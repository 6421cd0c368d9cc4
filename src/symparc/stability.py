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
once: the stage block kernel, ``kernel.py`` (:mod:`symparc.kernel`), which
the stepper's fold also solves its blocks with, at alpha = h,
beta = h omega^2 and nu = h^2 omega^2.  Here alpha = beta = mu.  It solves
S(mu) X = [E | (0; ahat_i)]; the column (0; ahat_i) gives Qt = mu At P and
P = (I + mu^2 AtH At)^{-1} ahat_i, so psi_i = b^T P.  That right-hand side
is the same for every mu: the kernel's :func:`~symparc.kernel.stage_rhs`
builds it once per call with one entry along the values' axis, and the
kernel broadcasts it.  It never factors the (s2+s1) stage block itself: it
eliminates the momenta and factors the s2 x s2 Schur complement I + nu G
with G = At AtH and nu = mu^2, reduced once per scheme to Hessenberg form,
and refines the solution once against At and AtH.  By Sylvester's
determinant identity det S(mu) = det(I + nu G), so the kernel fails exactly
where the stage block is singular, by the rule the stepper applies to its
blocks.

The kernel solves the mu in chunks of 8,192, and every sampled quantity is
reduced from a chunk as soon as the chunk is solved: the half trace and
the M11 = M22 check weigh M11 and M22 alone (b against P's first column,
-b_tilde against Qt's second), the filters their own columns, and the
check keeps a running max.  Only :func:`stability_matrix_samples`, whose caller
asks for M, returns an (N, 2, 2) array; the stability command writes its
CSV from the same chunks of M, one at a time (:func:`_matrix_chunks`).

Since S(mu) is affine in mu, the slope is M'(mu) = W S(mu)^{-2} E: with
X = S(mu)^{-1} E the kernel's own solution, one more refined solve through
the same factors gives M'(mu) = W S(mu)^{-1} X; the interval search bisects
it to locate tangencies.  All per-mu sums are accumulated
elementwise, term by term, never through BLAS, so a mu gives bitwise the
same M and psi in any batch: a scalar call agrees with any sweep holding it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from symparc.integrator import (
    ArkStepper,
    PhaseState,
    SingularStageSystemError,
    SplitForceSystem,
)
from symparc.kernel import _apply, _schur_basis, lu_factor, stage_rhs, stage_solve
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
    "MAX_INTERVAL_MU",
    "MAX_GRID_SAMPLES",
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


def _chunk_solvers(scheme: ArkScheme, mus):
    """Yield (slice, mu chunk, solve) with solve(R) = S(mu)^{-1} R per chunk."""
    H, Q = _schur_basis(scheme)
    for start in range(0, len(mus), _CHUNK):
        m = mus[start:start + _CHUNK]
        factors, singular = lu_factor(H, m * m)
        if singular.any():
            mu = m[np.flatnonzero(singular)[0]]
            raise SingularStageSystemError(f"stage block singular at mu = {mu:.17g}")
        yield (slice(start, start + len(m)), m,
               functools.partial(stage_solve, scheme, Q, factors, m, m))


def _weigh(scheme: ArkScheme, X):
    """W X for each mu, shape (2, k, N): b against P, -b_tilde against Qt."""
    s2 = scheme.s2
    return np.concatenate([_apply(scheme.b[None, :], X[s2:]),
                           -_apply(scheme.b_tilde[None, :], X[:s2])])


def _weigh_diagonal(scheme: ArkScheme, X):
    """(W X)[0, 0] and (W X)[1, 1] of :func:`_weigh` alone, shape (N,) each:
    b against P's column 0 and -b_tilde against Qt's column 1, each sum
    taken in the order :func:`_weigh` takes it."""
    s2 = scheme.s2
    return (_apply(scheme.b[None, :], X[s2:, :1])[0, 0],
            -_apply(scheme.b_tilde[None, :], X[:s2, 1:2])[0, 0])


def _check_squares(mus):
    """ValueError naming the first mu that is not finite or whose square
    overflows.  The extremes decide, so a long grid is not copied."""
    with np.errstate(over="ignore"):
        # a NaN anywhere is the min and the max
        if np.isfinite(mus.min() ** 2) and np.isfinite(mus.max() ** 2):
            return
        unusable = ~np.isfinite(mus * mus)
    raise ValueError(f"mu must be finite with a finite square, got "
                     f"{float(mus[np.flatnonzero(unusable)[0]])!r}")


def _mu_grid(mus) -> np.ndarray:
    """mus as a 1-d float array, each finite with a finite square."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    if mus.ndim != 1:
        raise ValueError("mu must be a scalar or a 1-d array")
    if len(mus):
        _check_squares(mus)
    return mus


def _solutions(scheme: ArkScheme, mus, extra=None):
    """Yield (slice, mu chunk, X) for the grid ``mus`` of :func:`_mu_grid`,
    with X = S(mu)^{-1} [E | (0; extra)] from one refined solve per chunk,
    ``extra`` of shape (s1, k, 1) as :func:`~symparc.kernel.stage_rhs` takes
    it: M = I + mu W X[:, :2] and b^T P = W X[0, 2:] for each column
    (0; extra[:, i]).  Callers weigh and reduce each chunk as it comes, so
    no (N, 2, 2) array is formed on their behalf."""
    E = stage_rhs(scheme, extra)
    for part, m, solve in _chunk_solvers(scheme, mus):
        yield part, m, solve(E)


def _diagonal(scheme: ArkScheme, m, X):
    """M11 and M22 of M = I + mu W X per mu, entry for entry as the full M
    of :func:`stability_matrix_samples` holds them."""
    w11, w22 = _weigh_diagonal(scheme, X)
    return 1.0 + m * w11, 1.0 + m * w22


def _matrix_chunks(scheme: ArkScheme, mus):
    """Yield (slice, mu chunk, M chunk) for the grid ``mus`` of
    :func:`_mu_grid`, one kernel chunk at a time, M of shape (chunk, 2, 2)."""
    for part, m, X in _solutions(scheme, mus):
        yield part, m, np.eye(2) + m[:, None, None] * _weigh(scheme, X).transpose(2, 0, 1)


def stability_matrix_samples(scheme: ArkScheme, mus) -> np.ndarray:
    """M(mu) for an array of mu values; returns shape (len(mus), 2, 2)."""
    mus = _mu_grid(mus)
    M = np.empty((len(mus), 2, 2))
    for part, _, chunk in _matrix_chunks(scheme, mus):
        M[part] = chunk
    return M


def _half_trace_slopes(scheme: ArkScheme, mus) -> np.ndarray:
    """d/dmu of the half trace, from M'(mu) = W S(mu)^{-1} X with X = S(mu)^{-1} E."""
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    out = np.empty(len(mus))
    E = stage_rhs(scheme)
    for part, m, solve in _chunk_solvers(scheme, mus):
        w11, w22 = _weigh_diagonal(scheme, solve(solve(E)))
        out[part] = 0.5 * (w11 + w22)
    return out


def stability_matrix(scheme: ArkScheme, mu: float) -> StabilityMatrix:
    """The 2x2 stability matrix at one mu = omega*h."""
    m = stability_matrix_samples(scheme, [mu])[0]
    return StabilityMatrix(m=m, mu=float(mu))


def half_trace_samples(scheme: ArkScheme, mus) -> np.ndarray:
    """tr M(mu) / 2 on an array of mu values (the stability function up to sign)."""
    mus = _mu_grid(mus)
    out = np.empty(len(mus))
    for part, m, X in _solutions(scheme, mus):
        m11, m22 = _diagonal(scheme, m, X)
        out[part] = 0.5 * (m11 + m22)
    return out


def half_trace(scheme: ArkScheme, mu: float) -> float:
    """tr M(mu) / 2 at one mu; sweeps should call :func:`half_trace_samples`."""
    return float(half_trace_samples(scheme, [mu])[0])


def check_m11_equals_m22(scheme: ArkScheme, mu_samples) -> M11M22Check:
    """Max |M11 - M22| over the samples plus the moment identities behind it."""
    deviation = 0.0
    for _, m, X in _solutions(scheme, _mu_grid(mu_samples)):
        m11, m22 = _diagonal(scheme, m, X)
        # np.maximum, unlike max(), carries a NaN through
        deviation = float(np.maximum(deviation, np.max(np.abs(m11 - m22))))
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
    grid = _mu_grid(mus)
    psi = np.empty((len(grid), scheme.s1))
    ht = np.empty(len(grid))
    for part, m, X in _solutions(scheme, grid, scheme.a_hat[:, :, None]):
        m11, m22 = _diagonal(scheme, m, X)
        ht[part] = 0.5 * (m11 + m22)
        psi[part] = _apply(scheme.b[None, :], X[scheme.s2:, 2:])[0].T
    mu_t = _modified_mu(ht)
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
# spacing of the mu samples in which the interval search brackets its roots
_GRID_STEP = 1e-3
# the longest interval search, 10,000,001 samples: the search holds every
# sample, about 47 B each, and lgl4 took 2.7 s and 467 MB at this mu_max
MAX_INTERVAL_MU = 1e4
# the most samples the stability command writes out: those of the longest
# interval search
MAX_GRID_SAMPLES = 10_000_001


def stability_intervals(scheme: ArkScheme, mu_max: float) -> StabilityReport:
    """Sample the stability function on [0, mu_max] and locate its structure.

    Interior extrema of the samples are located by bisecting the exact slope
    to 1e-14 (eight ulps from mu = 8 on).  An extremum past +-(1 + slack)
    between stable samples is an unstable gap narrower than the grid.  Every
    crossing of +-1, whether between two samples of which one is stable and
    one not or on either side of such a gap, is bisected to 1e-10 toward the
    line its unstable end lies beyond, all in one lock-step call, and is
    reported as a resonance that is not tangent.  The intervals are the
    stretches between consecutive crossings whose midpoint is stable.  The
    other extrema that touch +-1 (to within 1e-7) are reported as tangent
    resonances.  The search sees a gap only where the grid brackets its
    extremum.  ``p_stable`` holds when the single interval covers
    [0, mu_max] and every resonance point carries two independent
    eigenvectors (M = +-I there).  ``mu_max`` above :data:`MAX_INTERVAL_MU`
    is a ValueError.
    """
    if not 0.0 < mu_max <= MAX_INTERVAL_MU:
        raise ValueError(f"mu_max must be positive and at most {MAX_INTERVAL_MU:g}, "
                         f"got {mu_max!r}")
    n = int(math.ceil(mu_max / _GRID_STEP)) + 1
    mus = np.linspace(0.0, mu_max, n)
    f = half_trace_samples(scheme, mus)
    f_at = functools.partial(half_trace_samples, scheme)
    stable = np.abs(f) <= 1.0 + _TANGENCY_SLACK

    # interior extrema of the samples, refined on the exact slope
    df = np.diff(f)
    i = np.arange(1, n - 2)
    i = i[(df[i - 1] > 0.0) != (df[i] > 0.0)]
    mu_stars = _refine_extrema(scheme, mus[i - 1], mus[i + 1])
    vals = f_at(mu_stars)
    side = np.where(vals > 0.0, 1.0, -1.0)
    # an extremum past the slack between stable samples is an unstable gap
    # narrower than the grid, with one crossing on each side of it
    gap = ((np.abs(vals) > 1.0 + _TANGENCY_SLACK) & stable[i]
           & (side * f[i - 1] < 1.0) & (side * f[i + 1] < 1.0))

    # every crossing of +-1 lies between a stable and an unstable end: the
    # grid's changes of stability and both sides of each gap.  Each is
    # bisected toward the line its unstable end lies beyond
    cross = np.flatnonzero(stable[:-1] != stable[1:])
    lo = np.concatenate([mus[cross], mus[i - 1][gap], mu_stars[gap]])
    hi = np.concatenate([mus[cross + 1], mu_stars[gap], mus[i + 1][gap]])
    f_lo = np.concatenate([f[cross], f[i - 1][gap], vals[gap]])
    beyond = np.concatenate([np.where(stable[cross], f[cross + 1], f[cross]),
                             vals[gap], vals[gap]])
    target = np.where(beyond > 0.0, 1.0, -1.0)
    roots = _bisect(lambda x, idx: f_at(x) - target[idx], lo, hi, f_lo - target)
    resonances = [Resonance(mu=r, sign=int(t), tangent=False)
                  for r, t in zip(roots.tolist(), target.tolist())]

    # the stretches between consecutive boundaries whose midpoint is stable
    edges = [0.0, *sorted(roots.tolist()), mu_max]
    stretches = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    mids = f_at([0.5 * (a + b) for a, b in stretches])
    intervals = [ab for ab, m in zip(stretches, mids) if abs(m) <= 1.0 + _TANGENCY_SLACK]

    # the other extrema that touch the lines +-1 without crossing
    for mu_star, val, s in zip(mu_stars[~gap].tolist(), vals[~gap].tolist(),
                               side[~gap].tolist()):
        if abs(val - s) < 1e-7 and not any(
                abs(mu_star - r.mu) < 10.0 * _GRID_STEP for r in resonances):
            resonances.append(Resonance(mu=mu_star, sign=int(s), tangent=True))

    resonances.sort(key=lambda r: r.mu)

    covered = (len(intervals) == 1
               and intervals[0][0] <= _GRID_STEP and intervals[0][1] >= mu_max - _GRID_STEP)
    M = stability_matrix_samples(scheme, [r.mu for r in resonances])
    signs = np.array([r.sign for r in resonances], dtype=float)
    non_defective = not np.any(np.abs(M - signs[:, None, None] * np.eye(2)) > 1e-6)
    p_stable = bool(covered and non_defective)

    return StabilityReport(
        scheme_id=scheme.name,
        p_stable=p_stable,
        intervals=tuple(intervals),
        resonance_points=tuple(resonances),
    )


# ---------------------------------------------------------------------------
# Two-step trigonometric form
# ---------------------------------------------------------------------------

# the stage tolerance of the check's two steps, tighter than a run's 1e-12
_TRIG_CHECK_TOL = 1e-14


def trig_form_step_check(scheme: ArkScheme, system: SplitForceSystem,
                         state: PhaseState, h: float) -> float:
    """Residual of the two-step trigonometric identities at (state, h).

    Steps once with +h and once with -h, then checks

        q1 - 2 cos(mu_t) q0 + q_-1 = h^2 sum_i psi_i (f(Q_i^+) + f(Q_i^-))
        2 h sin(mu_t)/mu p0        = q1 - q_-1 - h^2 sum_i psi_i (f(Q_i^+) - f(Q_i^-))

    with mu = omega h, mu_t the modified frequency, f the slow force and
    Q_i^+- the primary stages of the two steps.  Returns the larger max-norm
    residual.  Requires a linear fast part with a single frequency.  The two
    steps solve their stages to a tolerance of 1e-14 (see :class:`ArkStepper`).
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

    stepper = ArkStepper(scheme, system, _TRIG_CHECK_TOL)

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
