"""Linear stability analysis on the harmonic oscillator  q' = p, p' = -omega^2 q.

One step of the additive method with F1 = 0 acts on the scaled variables
(q, p/omega) as a 2x2 matrix

    M(mu) = I_2 + mu * W * S(mu)^{-1} * E,        mu = omega h,

with S(mu) the (s2+s1) stage block [[I, -mu*At], [mu*AtH, I]], E stacking the
all-ones vectors of both blocks and W holding the quadrature weights.  The
methods are symplectic, so det M = 1 and the eigenvalues stay on the unit
circle exactly when |tr M| <= 2.  Where the method is stable it acts as a
rotation by the modified frequency  mu_tilde = arccos(tr M / 2), and on
q'' = -omega^2 q + f(q) it admits a two-step trigonometric form with filter
weights  psi_i = b^T (I + mu^2 AtH At)^{-1} ahat_i.

Every mu-dependent quantity goes through one kernel, for an array of mu at
once.  It solves S(mu) X = [E | (0; ahat_i)]; the column (0; ahat_i) gives
Qt = mu At P and P = (I + mu^2 AtH At)^{-1} ahat_i, so psi_i = b^T P.  It
never factors the (s2+s1) stage block itself.  Writing the stage vector as
(Qt, P), the momenta satisfy P = R_p - mu AtH Qt, which leaves the s2 x s2
Schur complement  (I + nu G) Qt = R_q + mu At R_p  with G = At AtH and
nu = mu^2: the same (I + mu^2 ...)^{-1} structure as the filter functions,
on the smaller of the two blocks (s2 = s1 - 1 for the paper's methods), so
the factors hold about a quarter of the whole block's entries.  By Sylvester's determinant identity
det S(mu) = det(I + nu G), so the kernel fails exactly where the stage block
is singular.  G is reduced to upper Hessenberg form once per call,
G = Q H Q^T, so that I + nu H is upper Hessenberg for every mu (Laub, IEEE
TAC 26, 1981), and a chunk of mu values is factored at once, pivoting only
between adjacent rows.  G is a rounded product and Q is not exact, so one
step of iterative refinement follows, with the residual R - S X formed
against the original coupling blocks At and AtH; this restores the accuracy
of Gaussian elimination on the stage block itself (Skeel, Math. Comp. 35,
1980), also for the odd entries of M at negative mu and for nu up to 1e10.
Since S(mu) is affine in mu, the slope is M'(mu) = W S(mu)^{-2} E: with
X = S(mu)^{-1} E the kernel's own solution, one more refined solve through
the same factors gives M'(mu) = W S(mu)^{-1} X; the interval
search bisects it to locate tangencies.  All per-mu sums are accumulated
elementwise, term by term, never through BLAS, so a mu gives bitwise the
same M and psi in any batch: a scalar call agrees with any sweep holding it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from symparc.integrator import (
    ArkStepper,
    PhaseState,
    SingularStageSystemError,
    SplitForceSystem,
    StageSolveConfig,
)
from symparc.tableaux import ArkScheme

__all__ = [
    "NotStableError",
    "StabilityMatrix",
    "Resonance",
    "StabilityReport",
    "FilterEvaluation",
    "M11M22Check",
    "stability_matrix",
    "stability_matrix_samples",
    "half_trace",
    "half_trace_samples",
    "check_m11_equals_m22",
    "stability_intervals",
    "modified_frequency",
    "filter_functions",
    "trig_form_step_check",
]

# |half trace| may exceed 1 by roundoff at tangency points
_STABLE_SLACK = 1e-12


class NotStableError(RuntimeError):
    """The method is not stable at the requested mu."""


@dataclass(frozen=True)
class StabilityMatrix:
    """The 2x2 propagation matrix on scaled phase space at one mu."""

    m: np.ndarray
    mu: float

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("m must be 2x2")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def half_trace(self) -> float:
        return 0.5 * float(self.m[0, 0] + self.m[1, 1])

    @property
    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    @property
    def stable(self) -> bool:
        return abs(self.half_trace) <= 1.0 + _STABLE_SLACK


@dataclass(frozen=True)
class Resonance:
    """A mu with half trace equal to +-1; tangent points touch without crossing."""

    mu: float
    sign: int
    tangent: bool


@dataclass(frozen=True)
class StabilityReport:
    scheme_id: str
    mu_grid: np.ndarray
    half_trace: np.ndarray
    p_stable: bool
    intervals: tuple
    resonance_points: tuple


@dataclass(frozen=True)
class FilterEvaluation:
    """Filter weights psi_i and modified frequency at one mu, or at N of them
    with shapes mu (N,), psi (N, s1) and modified_mu (N,).

    ``modified_mu`` is NaN where the method is unstable.  For a Lobatto
    primary the last filter vanishes identically (last column of a_hat).
    """

    mu: float | np.ndarray
    psi: np.ndarray
    modified_mu: float | np.ndarray


@dataclass(frozen=True)
class M11M22Check:
    """Sampled diagonal agreement and the coupled moment identities.

    ``lhs[k] = b (AtH At)^k c`` and ``rhs[k] = bt (At AtH)^k ct`` for
    k = 0..min(s1,s2)-1; equality of all of them forces M11 = M22.
    """

    max_deviation: float
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def condition_residuals(self) -> np.ndarray:
        return np.abs(self.lhs - self.rhs)


# mu values per pass of the kernel; bounds the (s2, s2, chunk) factors and
# the (s2 + s1, 2 + k, chunk) solutions
_CHUNK = 8192


def _lu_hessenberg(H, mus):
    """Row-pivoted LU of I + mu^2 H for every mu at once, H upper Hessenberg.

    Works in an (n, n, N) layout with mu last.  Elimination only ever pivots
    between adjacent rows, so the factors are the swap masks, the multipliers
    and the upper triangle U.  A zero pivot raises SingularStageSystemError.
    """
    n = H.shape[0]
    U = H[:, :, None] * (mus * mus)
    U[np.arange(n), np.arange(n)] += 1.0
    swaps = np.empty((n - 1, len(mus)), dtype=bool)
    mults = np.empty((n - 1, len(mus)))
    for j in range(n - 1):
        top, low = U[j, j:], U[j + 1, j:]
        swap = np.abs(low[0]) > np.abs(top[0])
        top, low = np.where(swap, low, top), np.where(swap, top, low)
        _check_pivot(top[0], mus)
        mults[j] = low[0] / top[0]
        swaps[j] = swap
        U[j, j:] = top
        U[j + 1, j + 1:] = low[1:] - mults[j] * top[1:]
    _check_pivot(U[n - 1, n - 1], mus)
    return U, swaps, mults


def _check_pivot(pivot, mus):
    if not np.all(pivot):
        mu = mus[np.flatnonzero(pivot == 0.0)[0]]
        raise SingularStageSystemError(f"stage block singular at mu = {mu:.17g}")


def _lu_solve(lu, B):
    """Solve (I + mu^2 H) Y = B in place for B of shape (n, k, N)."""
    U, swaps, mults = lu
    n = U.shape[0]
    for j in range(n - 1):
        top = np.where(swaps[j], B[j + 1], B[j])
        B[j + 1] = np.where(swaps[j], B[j], B[j + 1]) - mults[j] * top
        B[j] = top
    for j in range(n - 1, -1, -1):
        B[j] /= U[j, j]
        B[:j] -= U[:j, j, None] * B[j]
    return B


def _apply(A, X):
    """A @ X for each mu, X of shape (n, k, N), summed term by term over n.

    Plain elementwise accumulation adds in the same order for every batch
    size, where a BLAS product may not.
    """
    out = A[:, 0, None, None] * X[0]
    for j in range(1, A.shape[1]):
        out += A[:, j, None, None] * X[j]
    return out


def _refined_solve(scheme: ArkScheme, Q, lu, m, R):
    """S(mu)^{-1} R for R of shape (s2 + s1, k, N), rows (Qt, P).

    Each pass solves the Schur complement (I + mu^2 G) Qt = R_q + mu At R_p
    in the Hessenberg basis of G = Q H Q^T, then sets P = R_p - mu AtH Qt.
    The second pass solves for the residual R - S X, formed against At and
    AtH themselves rather than the rounded G.
    """
    At, AtH, s2 = scheme.a_tilde, scheme.a_tilde_hat, scheme.s2

    def schur_pass(R):
        Qt = _apply(Q, _lu_solve(lu, _apply(Q.T, R[:s2] + m * _apply(At, R[s2:]))))
        return np.concatenate([Qt, R[s2:] - m * _apply(AtH, Qt)])

    X = schur_pass(R)
    Qt, P = X[:s2], X[s2:]
    residual = np.concatenate([R[:s2] - Qt + m * _apply(At, P),
                               R[s2:] - P - m * _apply(AtH, Qt)])
    return X + schur_pass(residual)


def _chunk_solvers(scheme: ArkScheme, mus):
    """Yield (slice, mu chunk, solve) with solve(R) = S(mu)^{-1} R per chunk."""
    H, Q = scipy.linalg.hessenberg(scheme.a_tilde @ scheme.a_tilde_hat, calc_q=True)
    for start in range(0, len(mus), _CHUNK):
        m = mus[start:start + _CHUNK]
        yield (slice(start, start + len(m)), m,
               functools.partial(_refined_solve, scheme, Q, _lu_hessenberg(H, m), m))


def _unit_rhs(scheme: ArkScheme, n: int, extra=None):
    """E: the all-ones vectors of the two stage blocks, once per mu, followed
    by a column (0; extra[:, i]) for each column of ``extra`` (s1, k)."""
    extra = np.empty((scheme.s1, 0)) if extra is None else extra
    E = np.zeros((scheme.s2 + scheme.s1, 2 + extra.shape[1], n))
    E[:scheme.s2, 0] = 1.0
    E[scheme.s2:, 1] = 1.0
    E[scheme.s2:, 2:] = extra[:, :, None]
    return E


def _weigh(scheme: ArkScheme, X):
    """W X for each mu, shape (2, k, N): b against P, -b_tilde against Qt."""
    s2 = scheme.s2
    return np.concatenate([_apply(scheme.b[None, :], X[s2:]),
                           -_apply(scheme.b_tilde[None, :], X[:s2])])


def _solve_samples(scheme: ArkScheme, mus, extra=None):
    """M(mu), shape (N, 2, 2), and b^T P for each column (0; extra[:, i]),
    shape (N, k), from one refined solve of [E | (0; extra)] per chunk."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    if mus.ndim != 1:
        raise ValueError("mu must be a scalar or a 1-d array")
    M = np.empty((len(mus), 2, 2))
    bP = np.empty((len(mus), 0 if extra is None else extra.shape[1]))
    for part, m, solve in _chunk_solvers(scheme, mus):
        WX = _weigh(scheme, solve(_unit_rhs(scheme, len(m), extra)))
        M[part] = np.eye(2) + m[:, None, None] * WX[:, :2].transpose(2, 0, 1)
        bP[part] = WX[0, 2:].T
    return M, bP


def stability_matrix_samples(scheme: ArkScheme, mus) -> np.ndarray:
    """M(mu) for an array of mu values; returns shape (len(mus), 2, 2)."""
    return _solve_samples(scheme, mus)[0]


def _half_trace_slopes(scheme: ArkScheme, mus) -> np.ndarray:
    """d/dmu of the half trace, from M'(mu) = W S(mu)^{-1} X with X = S(mu)^{-1} E."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    out = np.empty(len(mus))
    for part, m, solve in _chunk_solvers(scheme, mus):
        WY = _weigh(scheme, solve(solve(_unit_rhs(scheme, len(m)))))
        out[part] = 0.5 * (WY[0, 0] + WY[1, 1])
    return out


def stability_matrix(scheme: ArkScheme, mu: float) -> StabilityMatrix:
    """The 2x2 stability matrix at one mu = omega*h."""
    m = stability_matrix_samples(scheme, [mu])[0]
    return StabilityMatrix(m=m, mu=float(mu))


def half_trace_samples(scheme: ArkScheme, mus) -> np.ndarray:
    """tr M(mu) / 2 on an array of mu values (the stability function up to sign)."""
    M = stability_matrix_samples(scheme, mus)
    return 0.5 * (M[:, 0, 0] + M[:, 1, 1])


def half_trace(scheme: ArkScheme, mu: float) -> float:
    """tr M(mu) / 2 at one mu; sweeps should call :func:`half_trace_samples`."""
    return float(half_trace_samples(scheme, [mu])[0])


def check_m11_equals_m22(scheme: ArkScheme, mu_samples) -> M11M22Check:
    """Max |M11 - M22| over the samples plus the moment identities behind it."""
    M = stability_matrix_samples(scheme, mu_samples)
    deviation = float(np.max(np.abs(M[:, 0, 0] - M[:, 1, 1]))) if len(M) else 0.0
    k_max = min(scheme.s1, scheme.s2)
    lhs = np.empty(k_max)
    rhs = np.empty(k_max)
    u = scheme.c.copy()
    v = scheme.c_tilde.copy()
    for k in range(k_max):
        lhs[k] = scheme.b @ u
        rhs[k] = scheme.b_tilde @ v
        u = scheme.a_tilde_hat @ (scheme.a_tilde @ u)
        v = scheme.a_tilde @ (scheme.a_tilde_hat @ v)
    return M11M22Check(max_deviation=deviation, lhs=lhs, rhs=rhs)


def _modified_mu(half_trace):
    """arccos of the half trace in [0, pi]; NaN where |half trace| > 1 + slack."""
    ht = np.asarray(half_trace, dtype=float)
    return np.where(np.abs(ht) > 1.0 + _STABLE_SLACK, np.nan,
                    np.arccos(np.clip(ht, -1.0, 1.0)))


def modified_frequency(scheme: ArkScheme, mu):
    """mu_tilde = arccos(half trace) in [0, pi] for a scalar or a 1-d array of
    mu; raises NotStableError naming the first unstable mu."""
    mus = np.asarray(mu, dtype=float)
    ht = half_trace_samples(scheme, mus)
    mu_t = _modified_mu(ht)
    if np.isnan(mu_t).any():
        i = int(np.argmax(np.isnan(mu_t)))
        raise NotStableError(
            f"|half trace| = {abs(ht[i]):.6g} > 1 at mu = {np.atleast_1d(mus)[i]:g}")
    return float(mu_t[0]) if mus.ndim == 0 else mu_t


def filter_functions(scheme: ArkScheme, mu) -> FilterEvaluation:
    """psi_i(mu) = b^T (I + mu^2 AtH At)^{-1} ahat_i for each column of a_hat,
    with the modified frequency, for a scalar or a 1-d array of mu.

    psi_i is b^T P for the right-hand side (0; ahat_i) of the kernel's own
    refined solve: eliminating Qt = mu At P leaves (I + mu^2 AtH At) P = ahat_i.
    """
    mus = np.array(mu, dtype=float)
    M, psi = _solve_samples(scheme, mus, scheme.a_hat)
    mu_t = _modified_mu(0.5 * (M[:, 0, 0] + M[:, 1, 1]))
    if mus.ndim == 0:
        return FilterEvaluation(mu=float(mus), psi=psi[0], modified_mu=float(mu_t[0]))
    return FilterEvaluation(mu=mus, psi=psi, modified_mu=mu_t)


# ---------------------------------------------------------------------------
# Stability intervals and resonances
# ---------------------------------------------------------------------------

def _bisect(fn, lo, hi, f_lo, tol=1e-10, max_iter=200):
    """Roots on sign-changing brackets, all bisected in lock step.

    ``fn(x, idx)`` evaluates the functions of brackets ``idx`` at the points
    ``x``, so each iteration costs one batched call.  A bracket stops once it
    is narrower than ``tol`` (one width, or one per bracket) or hits an exact
    zero, and returns its midpoint.
    """
    lo, hi, f_lo = (np.array(v, dtype=float) for v in (lo, hi, f_lo))
    tol = np.broadcast_to(tol, lo.shape)
    root = np.empty(len(lo))
    idx = np.arange(len(lo))
    for _ in range(max_iter):
        mid = 0.5 * (lo[idx] + hi[idx])
        done = hi[idx] - lo[idx] < tol[idx]
        root[idx[done]] = mid[done]
        idx, mid = idx[~done], mid[~done]
        if not len(idx):
            return root
        f_mid = fn(mid, idx)
        done = f_mid == 0.0
        root[idx[done]] = mid[done]
        idx, mid, f_mid = idx[~done], mid[~done], f_mid[~done]
        left = (f_lo[idx] < 0.0) != (f_mid < 0.0)
        hi[idx[left]] = mid[left]
        lo[idx[~left]], f_lo[idx[~left]] = mid[~left], f_mid[~left]
    root[idx] = 0.5 * (lo[idx] + hi[idx])
    return root


# bracket width at which an extremum is located; from mu = 8 on, eight ulps
# of mu take over, since a bracket of floats cannot narrow below one ulp
_EXTREMUM_TOL = 1e-14


def _refine_extrema(scheme: ArkScheme, lo, hi):
    """Half-trace extrema inside each (lo, hi) by bisection on the exact slope."""
    d = _half_trace_slopes(scheme, np.concatenate([lo, hi]))
    d_lo, d_hi = d[:len(lo)], d[len(lo):]
    out = 0.5 * (lo + hi)
    change = (d_lo < 0.0) != (d_hi < 0.0)
    out[change] = _bisect(lambda x, idx: _half_trace_slopes(scheme, x),
                          lo[change], hi[change], d_lo[change],
                          tol=np.maximum(_EXTREMUM_TOL, 8.0 * np.spacing(hi[change])))
    return out


# sampled |half trace| within this slack of 1 still counts as stable, so a
# tangency evaluated a hair beyond 1 does not split the interval
_TANGENCY_SLACK = 1e-9


def stability_intervals(scheme: ArkScheme, mu_max: float,
                        grid_step: float = 1e-3) -> StabilityReport:
    """Sample the stability function on [0, mu_max] and locate its structure.

    Sign changes of half-trace -+ 1 are refined by bisection to 1e-10 and
    become interval boundaries.  Interior extrema are located by bisecting
    the exact slope to 1e-14 (eight ulps from mu = 8 on); those touching +-1 (to within 1e-7)
    are reported as tangent resonances.  ``p_stable`` holds when the single
    interval covers [0, mu_max] and every resonance point carries two
    independent eigenvectors (M = +-I there).  All brackets are refined
    together, one batched call per bisection step.
    """
    for name, value in (("mu_max", mu_max), ("grid_step", grid_step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    n = int(math.ceil(mu_max / grid_step)) + 1
    mus = np.linspace(0.0, mu_max, n)
    f = half_trace_samples(scheme, mus)
    f_at = functools.partial(half_trace_samples, scheme)
    stable = np.abs(f) <= 1.0 + _TANGENCY_SLACK

    # the crossing is through +1 or -1 depending on the local values; in a
    # kinked bracket |f| - 1 changes sign via the other branch
    cross = np.flatnonzero(stable[:-1] != stable[1:])
    f0, f1 = f[cross], f[cross + 1]
    target = np.where((np.maximum(f0, f1) > 1.0) | (np.minimum(f0, f1) > 0.0), 1.0, -1.0)
    kinked = (f0 - target < 0.0) == (f1 - target < 0.0)
    target[kinked] = -target[kinked]
    roots = _bisect(lambda x, idx: f_at(x) - target[idx],
                    mus[cross], mus[cross + 1], f0 - target)
    boundaries = [(float(r), int(t)) for r, t in zip(roots, target)]

    intervals = []
    resonances = [Resonance(mu=b, sign=s, tangent=False) for b, s in boundaries]
    edges = [0.0] + [b for b, _ in boundaries] + [mu_max]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        idx = min(n - 1, int(round(mid / mu_max * (n - 1))))
        if stable[idx]:
            intervals.append((lo, hi))

    # interior extrema that touch the lines +-1 without crossing
    df = np.diff(f)
    i = np.arange(1, n - 2)
    i = i[(df[i - 1] > 0.0) != (df[i] > 0.0)]
    mu_stars = _refine_extrema(scheme, mus[i - 1], mus[i + 1])
    for mu_star, val in zip(mu_stars.tolist(), f_at(mu_stars).tolist()):
        for sign in (1, -1):
            if abs(val - sign) < 1e-7 and not any(
                    abs(mu_star - r.mu) < 10.0 * grid_step for r in resonances):
                resonances.append(Resonance(mu=mu_star, sign=sign, tangent=True))

    resonances.sort(key=lambda r: r.mu)

    covered = (len(intervals) == 1
               and intervals[0][0] <= grid_step and intervals[0][1] >= mu_max - grid_step)
    M = stability_matrix_samples(scheme, [r.mu for r in resonances])
    signs = np.array([r.sign for r in resonances], dtype=float)
    non_defective = not np.any(np.abs(M - signs[:, None, None] * np.eye(2)) > 1e-6)
    p_stable = bool(covered and non_defective)

    return StabilityReport(
        scheme_id=scheme.name,
        mu_grid=mus,
        half_trace=f,
        p_stable=p_stable,
        intervals=tuple(intervals),
        resonance_points=tuple(resonances),
    )


# ---------------------------------------------------------------------------
# Two-step trigonometric form
# ---------------------------------------------------------------------------

def trig_form_step_check(scheme: ArkScheme, system: SplitForceSystem,
                         state: PhaseState, h: float,
                         config: StageSolveConfig | None = None) -> float:
    """Residual of the two-step trigonometric identities at (state, h).

    Steps once with +h and once with -h, then checks

        q1 - 2 cos(mu_t) q0 + q_-1 = h^2 sum_i psi_i (f(Q_i^+) + f(Q_i^-))
        2 h sin(mu_t)/mu p0        = q1 - q_-1 - h^2 sum_i psi_i (f(Q_i^+) - f(Q_i^-))

    with mu = omega h, mu_t the modified frequency, f the slow force and
    Q_i^+- the primary stages of the two steps.  Returns the larger max-norm
    residual.  Requires a linear fast part with a single frequency.
    """
    if system.omega_sq is None:
        raise ValueError("trig form check needs the linear fast part")
    w2 = np.unique(system.omega_sq)
    if len(w2) != 1:
        raise ValueError("trig form check needs a single fast frequency")
    omega = math.sqrt(float(w2[0]))
    mu = omega * h

    filters = filter_functions(scheme, abs(mu))
    if math.isnan(filters.modified_mu):
        raise NotStableError(f"method unstable at mu = {mu:g}")
    psi, mu_tilde = filters.psi, filters.modified_mu

    if config is None:
        config = StageSolveConfig(tolerance=1e-14, max_iterations=200)
    stepper = ArkStepper(scheme, system, config)

    q0, p0 = state.q, state.p
    out = []
    for sgn in (+1.0, -1.0):
        Q, P, _, _ = stepper.solve_stages(state, sgn * h)
        q_end = q0 + sgn * h * (scheme.b @ P)
        out.append((q_end, system.slow_force(Q)))
    (q_plus, f_plus), (q_minus, f_minus) = out

    res_q = q_plus - 2.0 * math.cos(mu_tilde) * q0 + q_minus \
        - h * h * (psi @ (f_plus + f_minus))
    sin_term = 2.0 * h * (math.sin(mu_tilde) / mu) * p0 if mu != 0.0 else 2.0 * h * p0
    res_p = sin_term - (q_plus - q_minus) + h * h * (psi @ (f_plus - f_minus))
    return max(float(np.max(np.abs(res_q))), float(np.max(np.abs(res_p))))
