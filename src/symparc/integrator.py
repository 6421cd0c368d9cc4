"""Time stepping for split second-order systems  q'' = F1(q) + F2(q).

One step of the additive method advances (q0, p0) through the stage system

    P_i  = p0 + h sum_j ahat[i,j] F1(Q_j) + h sum_k ahat_tilde[i,k] F2(Qt_k)
    Q_i  = q0 + h sum_j a[i,j] P_j
    Qt_k = q0 + h sum_j at[k,j] P_j

    q1 = q0 + h sum_i b_i P_i
    p1 = p0 + h sum_i b_i F1(Q_i) + h sum_k bt_k F2(Qt_k)

The stage unknowns are solved by one fixed-point loop over the forces.  A
pass holds the forces of the previous pass fixed and solves the linear
block

    [ I      -h At ] [Qt]   [ q0 ]
    [ h W AtH   I  ] [P ] = [ p0 + h Ahat F1(Q) + h AtH G ]

of each coordinate exactly.  When the fast force is linear (F2 = -Omega^2 q
with diagonal Omega^2), the default linearly-implicit mode takes F2 into
the block: W is the coordinate's entry of Omega^2 and G = 0, so there is one
block per distinct entry and the loop iterates F1 only.  Fixed-point mode
takes any fast force: W = 0 and G = F2(Qt), so one block serves every
coordinate and the loop iterates F1 and F2 alike.  It contracts only for
h*omega below ~2, so the linear mode is the default whenever the diagonal
structure is available.

A pass is affine in the forces, so the block solve is folded into the
tableau once per step size (Hairer & Wanner, Solving ODEs II, IV.8).  The
blocks of all the step sizes a step needs and has not folded yet are
solved together, by one call of the stage block kernel below over all
their (step size, Omega^2 value) pairs: it factors the s2 x s2 Schur
complement I + h^2 w At AtH, the matrix the stability analysis factors at
h^2 w = mu^2, so the cost is the kernel's loop overhead, paid once for all
pairs.  In fixed-point mode w = 0 and the block is unit upper triangular,
so the fold solves it in closed form, with no factorization.  Per
coordinate, the iterated rows are X = c0 + K F, where c0 = u q0 + v p0 is
formed once per step and F are the forces that read X's first rows.  The
two modes differ only in this fold:

    linearly-implicit:  X = Q,          F = F1(Q)
    fixed-point:        X = (Q, Qt, P), F = (F1(Q), F2(Qt))

(in the first, K = h^2 a [M^-1]_PP Ahat is an s1 x s1 matrix).  A pass costs
one product with K and one force evaluation, and the pass that converges
ends the step in one more affine map, of (q0, p0, F, F(X)) to (q1, p1).
The loop starts from X = c0 + K F(q0), every force at q0: in
linearly-implicit mode the block carries the fast force exactly and only
the slow force is held constant, so the start is off by O(h^3 dF1/dt) with
no (h omega)^3 term, and exact when F1 is constant.  The start costs no
pass.

The Lobatto IIIA-B pair is explicit in its first and last stages for
separable forces (Hairer, Lubich & Wanner, Geometric Numerical Integration,
II.2), and the fold shows it in exact zeros: a[0] = 0 makes the first row
Q_1 = q0, and ahat[:, -1] = 0 leaves F1(Q_s) read by no row, only by the
update.  So F1(q0) is evaluated once per step (the start uses it too),
a pass evaluates the forces of the interior stages Q_2 ... Q_{s-1} alone,
and F1(Q_s) is evaluated once, in the pass that converges; Q_s itself stays
in the iteration and in its convergence test.  A scheme without interior
stages (lgl2, the base of imex-yoshida4 and imex-yoshida6) is explicit in
linearly-implicit mode, the classical IMEX step: Q_2 = c0 + K F1(q0), then
F1(Q_2), and no pass.  The stepper reads the zeros off the tableau once
and the fold keeps them exact; a scheme without them iterates every stage.

The loop also steps a batch: q and p of shape (n, d) are n independent
states.  omega_sq of shape (n, d) gives each its own diagonal; one of shape
(d,) is shared by every member.  h is one step size, or one per member,
shape (n,).  The stage arrays hold all n*d coordinates as columns, shape
(s, n*d), each column with the folded maps of its own (h, Omega^2) pair.
Every member converges against its own scale and stops iterating once it
has converged, and every sum runs column by column, so a member's state is
bitwise the one it reaches alone.

Force callbacks must be vectorized over leading axes: they receive arrays of
shape (..., d) -- (k, d) for k stages of one state, (k, n, d) for a batch,
and the state itself -- and return the force row-wise.
"""

from __future__ import annotations

import contextvars
import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from symparc import _rk8
from symparc.tableaux import ArkScheme, Variant, build_scheme

__all__ = [
    "PhaseState",
    "SplitForceSystem",
    "SolverMode",
    "StageSolveConfig",
    "Trajectory",
    "ArkStepper",
    "ComposedStepper",
    "StageSolveError",
    "NonconvergenceError",
    "NumericalFailureError",
    "SingularStageSystemError",
    "OracleFailureError",
    "ark_step",
    "solve_stages",
    "integrate",
    "yoshida_compose",
    "reference_solve",
    "make_stepper",
    "scheme_from_name",
    "YOSHIDA4_SUBSTEPS",
    "YOSHIDA6_SUBSTEPS",
]

_log = logging.getLogger(__name__)


class StageSolveError(RuntimeError):
    """A stage solve failed.  ``members`` holds the failing rows of a batched
    state (0 for a single state)."""

    def __init__(self, message, members=()):
        super().__init__(message)
        self.members = tuple(int(i) for i in members)


class NonconvergenceError(StageSolveError):
    """Stage iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual=math.inf, iterations=0, step_index=None,
                 members=()):
        super().__init__(message, members)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


class NumericalFailureError(StageSolveError):
    """A force at finite input, or the stage maps of a step size, came out NaN or Inf."""


class SingularStageSystemError(StageSolveError):
    """The linear stage block could not be factorized."""


class OracleFailureError(RuntimeError):
    """The reference solver could not certify the requested tolerance."""


@dataclass(frozen=True)
class PhaseState:
    """Positions and momenta at one time.

    ``q`` and ``p`` have shape (d,) for one state, or (n, d) for a batch of
    n states that :class:`ArkStepper` steps together.  ``t`` is one time, or
    for a batch stepped with one step size per member, one time per member.
    """

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        q = np.atleast_1d(np.array(self.q, dtype=float))
        p = np.atleast_1d(np.array(self.p, dtype=float))
        if q.shape != p.shape or q.ndim > 2:
            raise ValueError("q and p must be arrays of equal shape (d,) or (n, d)")
        q.setflags(write=False)
        p.setflags(write=False)
        t = self.t
        if isinstance(t, np.ndarray) and t.ndim:
            t = np.array(t, dtype=float)
            if t.shape != q.shape[:-1]:
                raise ValueError("t must be one time, or one per member of a batch")
            t.setflags(write=False)
        else:
            t = float(t)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)

    @property
    def dimension(self) -> int:
        return self.q.shape[-1]


def _probe_points(d: int):
    rng = np.random.default_rng(1729)
    return np.stack([np.ones(d), np.linspace(-1.0, 1.0, d), rng.standard_normal(d)])


@dataclass(frozen=True)
class SplitForceSystem:
    """The two force fields of a split mechanical system.

    ``f1`` is the slow (typically nonlinear) force, ``f2`` the fast one.
    When the fast force is linear, pass the diagonal of Omega^2 as
    ``omega_sq``; ``f2`` is then derived automatically (or cross-checked on
    probe points if given explicitly); shape (n, d) gives each member of a
    batched state its own diagonal.  Both callbacks must broadcast over
    leading axes.  ``hamiltonian(q, p)`` is optional and used only for
    diagnostics.
    """

    dimension: int
    f1: Optional[Callable] = None
    f2: Optional[Callable] = None
    omega_sq: Optional[np.ndarray] = None
    hamiltonian: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.omega_sq is not None:
            w = np.array(self.omega_sq, dtype=float)
            if w.ndim not in (1, 2) or w.shape[-1] != self.dimension:
                raise ValueError("omega_sq must be the diagonal of Omega^2, "
                                 "shape (d,) or (n, d)")
            if not np.all((w >= 0.0) & np.isfinite(w)):
                raise ValueError("omega_sq entries must be nonnegative and finite")
            w.setflags(write=False)
            object.__setattr__(self, "omega_sq", w)
            if self.f2 is None:
                object.__setattr__(self, "f2", lambda q: -w * q)
            else:
                probes = _probe_points(self.dimension)
                if w.ndim == 2:
                    probes = np.repeat(probes[:, None], len(w), axis=1)
                expected = -w * probes
                got = np.asarray(self.f2(probes), dtype=float)
                scale = max(1.0, float(np.max(np.abs(expected))))
                if np.max(np.abs(got - expected)) > 1e-12 * scale:
                    raise ValueError("f2 disagrees with -omega_sq * q on probe points")

    def slow_force(self, q):
        if self.f1 is None:
            return np.zeros_like(q)
        return np.asarray(self.f1(q), dtype=float)

    def fast_force(self, q):
        if self.f2 is None:
            return np.zeros_like(q)
        return np.asarray(self.f2(q), dtype=float)

    def energy(self, state: PhaseState) -> float:
        if self.hamiltonian is None:
            raise ValueError("system has no hamiltonian callback")
        return float(self.hamiltonian(state.q, state.p))


class SolverMode(str, Enum):
    FIXED_POINT = "fixed-point"
    LINEARLY_IMPLICIT = "linearly-implicit"


@dataclass(frozen=True)
class StageSolveConfig:
    """Stage-solver controls.

    ``tolerance`` is relative to each member's own scale max(1, |q0|_inf,
    |p0|_inf): a member has converged once no iterated row moved by more
    than tolerance times its scale in a pass.  Linearly-implicit mode tests
    the stages Q; fixed-point mode tests P, Q and Qt.  ``max_iterations``
    bounds the passes; a step without interior stages (lgl2 in
    linearly-implicit mode) is explicit and takes none, so it does not
    bound it.  ``mode=None`` picks linearly-implicit when the system has a
    diagonal fast part and plain fixed-point otherwise.
    """

    tolerance: float = 1e-12
    max_iterations: int = 50
    mode: Optional[SolverMode] = None

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# Divergence guard for the fixed-point loop: once updates exceed this factor
# times the state scale, further iterations cannot recover.
_DIVERGENCE_FACTOR = 1e12


# true while a _quiet function runs
_QUIET = contextvars.ContextVar("quiet", default=False)


def _quiet(fn):
    """``fn`` under np.errstate(over="ignore", invalid="ignore"): a run that
    overflows fails the finite checks with the typed error, and NumPy's
    warnings would only repeat it.  Only the outermost call enters it; a
    driver's steps and a composed step's substeps do not, as entering costs
    a few microseconds, a few percent of a single-state step."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return guarded


# ---------------------------------------------------------------------------
# The stage block kernel
#
# The stepper and the stability analysis solve the same stage block
# S = [[I, -alpha At], [beta AtH, I]] for many values at once: the stepper
# with alpha = h and beta = h omega^2, the stability matrix with
# alpha = beta = mu.  The kernel factors only the s2 x s2 Schur complement
# I + nu G, G = At AtH and nu = alpha beta, whose determinant is det S
# (Sylvester).  G is reduced once per scheme to upper Hessenberg form,
# G = Q H Q^T, so that the elimination of I + nu H pivots only between
# adjacent rows (Laub, IEEE TAC 26, 1981); one step of iterative refinement
# against At and AtH themselves restores the accuracy of Gaussian
# elimination on S (Skeel, Math. Comp. 35, 1980).  Every operation runs
# elementwise over the values, in an (n, k, N) layout with the values last,
# and every sum term by term, never through BLAS, so a value's solution is
# bitwise the one it gets alone.
# ---------------------------------------------------------------------------

def _householder_hessenberg(A):
    """(H, Q) with A = Q H Q^T, H upper Hessenberg and Q orthogonal, by
    Householder reflections (Golub & Van Loan, Matrix Computations, 7.4).
    The entries below the subdiagonal are exactly zero."""
    H = np.array(A, dtype=float)
    n = len(H)
    Q = np.eye(n)
    for k in range(n - 2):
        x = H[k + 1:, k]
        if not np.any(x[1:]):
            continue
        alpha = -math.copysign(float(np.linalg.norm(x)), x[0])
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        # H <- P H P and Q <- Q P with the reflection P = I - 2 v v^T
        H[k + 1:, k:] -= 2.0 * np.outer(v, v @ H[k + 1:, k:])
        H[:, k + 1:] -= 2.0 * np.outer(H[:, k + 1:] @ v, v)
        Q[:, k + 1:] -= 2.0 * np.outer(Q[:, k + 1:] @ v, v)
        H[k + 1, k], H[k + 2:, k] = alpha, 0.0
    return H, Q


@functools.lru_cache(maxsize=64)
def _hessenberg(g: bytes, n: int):
    """The read-only :func:`_householder_hessenberg` of the n x n matrix
    G = At AtH given by its bytes ``g``: one reduction per scheme, however
    many calls sample it."""
    reduced = _householder_hessenberg(np.frombuffer(g).reshape(n, n))
    for a in reduced:
        a.setflags(write=False)
    return reduced


def _schur_basis(scheme: ArkScheme):
    """(H, Q) with At AtH = Q H Q^T, H upper Hessenberg; see :func:`_hessenberg`."""
    G = scheme.a_tilde @ scheme.a_tilde_hat
    return _hessenberg(G.tobytes(), len(G))


def lu_factor(H, nu):
    """Row-pivoted LU of I + nu H for every value of the (N,) array nu, with
    H upper Hessenberg.  Returns (factors, singular).

    The factors are the upper triangle U, shape (n, n, N), the swap masks
    and the multipliers: elimination only ever pivots between adjacent rows.
    ``singular`` marks the values with a pivot that is NaN or below
    1e-14 max(1, |nu| max|H|), checked as each column is eliminated; their
    factors hold inf or NaN, without a warning.
    """
    n = H.shape[0]
    swaps = np.empty((n - 1, len(nu)), dtype=bool)
    mults = np.empty((n - 1, len(nu)))
    singular = np.zeros(len(nu), dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        U = H[:, :, None] * nu
        U[np.arange(n), np.arange(n)] += 1.0
        tol = np.maximum(1e-14, 1e-14 * np.abs(H).max() * np.abs(nu))
        for j in range(n - 1):
            top, low = U[j, j:], U[j + 1, j:]
            swap = np.abs(low[0]) > np.abs(top[0])
            top, low = np.where(swap, low, top), np.where(swap, top, low)
            singular |= ~(np.abs(top[0]) >= tol)
            mults[j] = low[0] / top[0]
            swaps[j] = swap
            U[j, j:] = top
            U[j + 1, j + 1:] = low[1:] - mults[j] * top[1:]
        singular |= ~(np.abs(U[n - 1, n - 1]) >= tol)
    return (U, swaps, mults), singular


def lu_solve(factors, B):
    """Solve (I + nu H) Y = B in place for B of shape (n, k, N), through the
    factors of :func:`lu_factor`."""
    U, swaps, mults = factors
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
    """A @ X for each value, X of shape (n, k, N), summed term by term over n.

    Plain elementwise accumulation adds in the same order for every batch
    size, where a BLAS product may not.
    """
    out = A[:, 0, None, None] * X[0]
    for j in range(1, A.shape[1]):
        out += A[:, j, None, None] * X[j]
    return out


def stage_solve(scheme: ArkScheme, Q, factors, alpha, beta, R):
    """S^{-1} R for the stage blocks S = [[I, -alpha At], [beta AtH, I]] of
    the (N,) values alpha and beta, R of shape (s2 + s1, k, N) with rows
    (Qt, P), and ``factors`` those of I + alpha beta H from
    :func:`lu_factor`, in the basis Q of :func:`_schur_basis`.

    Each pass solves the Schur complement (I + nu G) Qt = R_q + alpha At R_p
    in the Hessenberg basis of G, then sets P = R_p - beta AtH Qt.  The
    second pass solves for the residual R - S X, formed against At and AtH
    themselves rather than the rounded G.
    """
    At, AtH, s2 = scheme.a_tilde, scheme.a_tilde_hat, scheme.s2

    def schur_pass(R):
        Qt = _apply(Q, lu_solve(factors, _apply(Q.T, R[:s2] + alpha * _apply(At, R[s2:]))))
        return np.concatenate([Qt, R[s2:] - beta * _apply(AtH, Qt)])

    X = schur_pass(R)
    Qt, P = X[:s2], X[s2:]
    residual = np.concatenate([R[:s2] - Qt + alpha * _apply(At, P),
                               R[s2:] - P - beta * _apply(AtH, Qt)])
    return X + schur_pass(residual)


def _member_max(columns, n: int):
    """The largest of each member's entries in ``columns``, shape (n*d,) -> (n,)."""
    # NumPy reduces a short contiguous axis slowly; the transposed copy is
    # reduced along its long leading axis instead
    return np.ascontiguousarray(columns.reshape(n, -1).T).max(axis=0)


def _failing(F, n: int):
    """Which of the n members hold a non-finite entry in the forces F,
    shape (slots, n*d)."""
    return ~np.all(np.isfinite(F).reshape(len(F), n, -1), axis=(0, 2))


def _step_size(h, state: PhaseState):
    """``h`` as one float, or as an (n,) array with one step size per member
    of the batched ``state``; ValueError unless every step size is finite.
    Zero and negative step sizes are valid."""
    if not isinstance(h, float):
        sizes = np.asarray(h, dtype=float)
        if sizes.ndim:
            members = state.q.shape[:-1]
            if sizes.shape != members:
                raise ValueError(f"h must be one step size, or one per member of shape "
                                 f"{members}, got shape {sizes.shape}")
            if not np.isfinite(sizes).all():
                raise ValueError(f"every step size must be finite, got {sizes.tolist()}")
            return sizes
        h = float(sizes)
    if not math.isfinite(h):
        raise ValueError(f"step size must be finite, got {h!r}")
    return h


class _StageMaps(NamedTuple):
    """One step as affine maps, per column c of the flattened state.  The
    fold has rows (Q in linearly-implicit mode, (Q, Qt, P) in fixed-point
    mode) and m force slots, slot j holding the force of row j (F1(Q), or
    F1(Q) and F2(Qt)).  :class:`ArkStepper` splits the slots by the
    tableau's exact zeros, which the fold keeps:

    - explicit: a slow-force row whose map is exactly q0 (Q_1 in the
      Lobatto schemes, since a[0] = 0).  Its force is F1(q0), evaluated
      once per step.
    - lagged: a slot that no row reads (F1(Q_s), since ahat[:, -1] = 0).
      Only (q1, p1) read it, so its force is evaluated in the converging
      pass alone.
    - iterated: every other slot, evaluated in every pass.

    The slots are ordered explicit, then per force iterated and lagged, and
    X holds the rows after the explicit ones.  With F the forces that X is
    computed from and h the column's step size:

        X[i, c]        = sum_j start[i, j, c] (q0, p0)[j, c]
                         + sum_j primary[i, j, c] F[j, c]
        (q1, p1)[i, c] = sum_j update[i, j, c] (q0, p0, F, F(X))[j, c]

    ``primary`` stops after the last slot that X reads; the lagged slots of
    F and F(X) that the maps multiply by an exact zero hold a finite value.

    ``solution`` is the (Qt, P) map over (q0, p0, F) of each (step size,
    Omega^2 value) pair, shape (H*V, s2 + s1, 2 + m), and ``index`` the pair
    of each column.  ``inputs`` is the buffer each step stacks (q0, p0, F,
    F(X)) into and ``forces`` the two force buffers a step swaps: at the
    sweep's N a fresh array per step is larger than malloc's mmap
    threshold, and some processes then fault its pages in anew on every
    step.
    """

    start: np.ndarray          # (rows of X, 2, N)
    primary: np.ndarray        # (rows of X, slots read, N)
    update: np.ndarray         # (2, 2 + 2 m, N)
    solution: np.ndarray       # (H*V, s2 + s1, 2 + m)
    index: np.ndarray          # (N,)
    inputs: np.ndarray         # (2 + 2 m, N)
    forces: np.ndarray         # (2, m, N)


class ArkStepper:
    """One-step map of an additive scheme applied to a split system.

    A state may be a batch of shape (n, d), stepped with one step size or
    one per member; see the module docstring.  Holds a small cache of folded
    stage maps (keyed by the step size, or by the tuple of per-member step
    sizes; the system's Omega^2 is fixed).  Instances are cheap to build and
    must not be shared across threads or stepped from their own force
    callbacks.
    """

    def __init__(self, scheme: ArkScheme, system: SplitForceSystem,
                 config: StageSolveConfig | None = None):
        self.scheme = scheme
        self.system = system
        self.config = config if config is not None else StageSolveConfig()
        mode = self.config.mode
        if mode is None:
            mode = (SolverMode.LINEARLY_IMPLICIT if system.omega_sq is not None
                    else SolverMode.FIXED_POINT)
        if mode is SolverMode.LINEARLY_IMPLICIT and system.omega_sq is None:
            raise ValueError("linearly-implicit mode needs the diagonal omega_sq")
        self.mode = mode
        # step-size keyed cache of the folded stage maps; compositions
        # alternate between a handful of substep sizes
        self._block_cache = {}
        # the factorized stage solve per scalar step size, which the maps are
        # gathered from: a member that leaves a batch refactors no other
        self._folds = {}
        if mode is SolverMode.LINEARLY_IMPLICIT:
            # one block per distinct entry of Omega^2; _columns maps each
            # coordinate of the flattened omega_sq to its block
            self._values, self._columns = np.unique(system.omega_sq.ravel(),
                                                    return_inverse=True)
            self._shape = system.omega_sq.shape
        else:
            # the one block at w = 0 serves every coordinate
            self._values = np.zeros(1)
            self._columns = np.zeros(system.dimension, dtype=np.intp)
            self._shape = (system.dimension,)

        # the Lobatto layout of the maps (see _StageMaps), off the tableau:
        # the explicit rows are the zero rows of a, the lagged slots the zero
        # columns of ahat and, for the F2 slots of fixed-point mode, of AtH
        s1 = scheme.s1
        explicit = ~scheme.a.any(axis=1)
        unread = ~scheme.a_hat.any(axis=0)
        if mode is SolverMode.FIXED_POINT:
            unread = np.concatenate((unread, ~scheme.a_tilde_hat.any(axis=0)))
        m = len(unread)
        slots = np.arange(m)
        order = [slots[:s1][explicit]]
        # the (force, rows of X, slots) blocks evaluated in every pass and in
        # the converging one; with no iterated slot the step is explicit
        passes, final = [], []
        lo = e = len(order[0])
        for force, kind in ((system.slow_force, slots[:s1][~explicit]),
                            (system.fast_force, slots[s1:])):
            iterated, lagged = kind[~unread[kind]], kind[unread[kind]]
            order += [iterated, lagged]
            for blocks, hi in ((passes, lo + len(iterated)), (final, lo + len(kind))):
                if hi > lo:
                    blocks.append((force, slice(lo - e, hi - e), slice(lo, hi)))
            lo += len(kind)
        order = np.concatenate(order)
        self._passes, self._final, self._explicit = tuple(passes), tuple(final), e
        # the fold's row of each slot's row and of every other row; X holds
        # those after the explicit ones and reads the slots up to the last
        # one that is not lagged
        rows = m + s1 if mode is SolverMode.FIXED_POINT else m
        self._layout = np.concatenate((order, np.arange(m, rows)))
        read = np.flatnonzero(~unread[order])
        self._read = order[:read[-1] + 1 if len(read) else 0]
        # the fold's columns of the update map in slot order
        self._update_columns = np.concatenate(((0, 1), 2 + order, 2 + m + order))

    # -- linear block ------------------------------------------------------

    def _block_inverses(self, h) -> _StageMaps:
        """The stage solve folded into affine maps per column, for one step
        size h (a float) or one per member (a tuple).

        The maps of each (step size, Omega^2 value) pair come from
        :meth:`_fold`, which solves the blocks of every step size of the key
        that is not folded yet in one call, and are gathered to the N state
        columns; see :class:`_StageMaps`.  A float h maps the columns
        of omega_sq itself; a tuple of n step sizes maps a batch of n
        members, each member's d columns with its own step size, over an
        omega_sq of shape (n, d) or (d,).  The cache keeps, per key, the
        gathered start, primary and update weights of the rows and slots the
        loop reads (in linearly-implicit Lobatto schemes
        (s1 - 1)(s1 + 1) + 6 s1 + 4 numbers per column) and the per-pair
        (Qt, P) solution, which only solve_stages gathers.
        """
        cached = self._block_cache.get(h)
        if cached is not None:
            return cached
        n_values, d = len(self._values), self.system.dimension
        if isinstance(h, tuple):
            sizes = np.array(h)
            steps, which = np.unique(sizes, return_inverse=True)
            values = self._columns
            if values.size != sizes.size * d:   # omega_sq shared by the members
                values = np.tile(values, len(sizes))
            index = np.repeat(which, d) * n_values + values
        else:
            steps, index = (h,), self._columns
        folds = self._fold(steps, lambda j, k: self._rows_with(np.isin(index, j * n_values + k)))
        start, primary, update, solution = (np.concatenate(x) for x in zip(*folds))
        rows, columns, m = self._layout[self._explicit:], self._update_columns, primary.shape[-1]
        maps = _StageMaps(start=self._gather(start[:, rows], index),
                          primary=self._gather(primary[:, rows][:, :, self._read], index),
                          update=self._gather(update[:, :, columns], index),
                          solution=solution[:, :, columns[:2 + m]], index=index,
                          inputs=np.empty((len(columns), len(index))),
                          forces=np.empty((2, m, len(index))))
        if len(self._block_cache) > 16:
            self._block_cache.clear()
        self._block_cache[h] = maps
        return maps

    def _fold(self, steps, members):
        """The stage solve at each step size h of ``steps``, for each value w
        of the block: per h, the maps start (V, rows, 2), primary (V, rows, m)
        and update (V, 2, 2 + 2 m) of the fold's rows and slots, and the
        (Qt, P) solution (V, s2 + s1, 2 + m).  ``members(j, k)`` names the
        rows that use the j-th step size with the value, or any of the
        values, k: those a singular block or maps that are not finite fail.

        Solving the block [[I, -h At], [h w AtH, I]] against the right-hand
        side [q0; p0 + h Ahat F1 (+ h AtH F2 in fixed-point mode)] column by
        column gives (Qt, P) as affine functions of (q0, p0, F), and with them
        Q = q0 + h a P, q1 = q0 + h b P and p1 = p0 - h w bt Qt + h b F1(Q)
        (+ h bt F2(Qt)).  In linearly-implicit mode the blocks of every step
        size not folded yet go through the stage block kernel in one
        :func:`lu_factor` call over all their (h, w) pairs, with alpha = h and
        beta = h w, so nu = h^2 w.  In fixed-point mode w = 0, so the block is
        unit upper triangular: P is the right-hand side's momentum rows and
        Qt = q0 + h At P, with no factorization.  Each fold is cached per h,
        and is bitwise the same in any batch.  The maps keep the tableau's
        exact zeros: a zero row of a gives a row of X that is exactly (1, 0)
        on (q0, p0) and 0 on F, and a zero column of Ahat a right-hand side
        column, and so a column of every map but update's F(X) part, that is
        exactly 0.
        """
        folds = [self._folds.get(h) for h in steps]
        new = [j for j, folded in enumerate(folds) if folded is None]
        if not new:
            return folds
        scheme, values = self.scheme, self._values
        s1, s2 = scheme.s1, scheme.s2
        fixed_point = self.mode is SolverMode.FIXED_POINT
        m = s1 + s2 if fixed_point else s1
        h = np.array([steps[j] for j in new], dtype=float)
        # the step size of each (h, w) pair, and per pair the right-hand
        # side's rows (Qt, P) and columns (q0, p0, F_1, ..., F_m)
        alpha = np.repeat(h, len(values))
        rhs = np.zeros((s2 + s1, 2 + m, len(alpha)))
        rhs[:s2, 0] = 1.0
        rhs[s2:, 1] = 1.0
        rhs[s2:, 2:2 + s1] = scheme.a_hat[:, :, None] * alpha
        if fixed_point:
            rhs[s2:, 2 + s1:] = scheme.a_tilde_hat[:, :, None] * alpha
            # P is the right-hand side's momentum rows and Qt = q0 + h At P,
            # summed from the last stage down as back substitution sums it;
            # adding 0.0 makes the zeros of P positive, which keeps the maps
            # bitwise those of Gaussian elimination on the block
            h_at = scheme.a_tilde[:, :, None] * alpha
            for k in range(s1 - 1, -1, -1):
                rhs[:s2] += h_at[:, k, None] * rhs[s2 + k]
            rhs[s2:] += 0.0
            solution = rhs
        else:
            H, Q = _schur_basis(scheme)
            beta = alpha * np.tile(values, len(h))
            factors, singular = lu_factor(H, alpha * beta)
            if singular.any():
                i, k = divmod(int(np.flatnonzero(singular)[0]), len(values))
                raise SingularStageSystemError(
                    f"stage block is numerically singular for h={h[i]}, omega^2={values[k]}",
                    members(new[i], k))
            solution = stage_solve(scheme, Q, factors, alpha, beta, rhs)
        solution = np.ascontiguousarray(np.moveaxis(solution, -1, 0)).reshape(
            (len(h), len(values)) + rhs.shape[:2])
        Qt, P = solution[:, :, :s2], solution[:, :, s2:]
        primary = h[:, None, None, None] * (scheme.a @ P)
        primary[..., 0] += 1.0
        if fixed_point:
            primary = np.concatenate((primary, Qt, P), axis=2)
        update = np.zeros((len(h), len(values), 2, 2 + 2 * m))
        update[:, :, 0, :2 + m] = h[:, None, None] * (scheme.b @ P)
        update[:, :, 1, :2 + m] = (-h[:, None] * values)[:, :, None] * (scheme.b_tilde @ Qt)
        update[..., 0, 0] += 1.0
        update[..., 1, 1] += 1.0
        update[..., 1, 2 + m:] = h[:, None, None] * (np.concatenate((scheme.b, scheme.b_tilde))
                                                     if fixed_point else scheme.b)
        # maps that overflow would make every stage non-finite, and the force
        # checks would then blame the force
        finite = np.all([np.isfinite(x).all(axis=(2, 3)) for x in (solution, primary, update)], 0)
        if not finite.all():
            i = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NumericalFailureError(f"stage maps are not finite for h={h[i]}",
                                        members(new[i], np.flatnonzero(~finite[i])))
        start, primary = primary[..., :2], primary[..., 2:]
        if len(self._folds) + len(new) > 64:
            self._folds.clear()
        for i, j in enumerate(new):
            folds[j] = self._folds[steps[j]] = (start[i], primary[i], update[i], solution[i])
        return folds

    @staticmethod
    def _gather(by_pair, index):
        """(P, ...) weights of the (step size, value) pairs as (..., N) state
        columns, column c taking pair index[c]."""
        return np.take(np.moveaxis(by_pair, 0, -1), index, axis=-1)

    def _rows_with(self, hit):
        """The members (0 for a single state) holding a column where ``hit``."""
        return np.flatnonzero(hit.reshape(-1, self.system.dimension).any(axis=1))

    # -- stage solve -------------------------------------------------------

    @_quiet
    def solve_stages(self, state: PhaseState, h):
        """Return (Q, P, Q_tilde, iterations) for one step of size h (one
        float, or one per member of a batch); the stage arrays have shape
        (stages,) + state shape."""
        h = _step_size(h, state)
        shape, s1, s2 = (-1,) + state.q.shape, self.scheme.s1, self.scheme.s2
        maps, x, X, iterations = self._iterate(state, h)
        sol = np.einsum("ijc,jc->ic", self._gather(maps.solution, maps.index),
                        x[:maps.solution.shape[-1]])
        # the explicit rows are q0 itself
        stages = np.empty((len(self._layout), X.shape[1]))
        explicit = np.broadcast_to(x[0], (self._explicit, len(x[0])))
        stages[self._layout] = np.concatenate((explicit, X))
        return (stages[:s1].reshape(shape), sol[s2:].reshape(shape), sol[:s2].reshape(shape),
                iterations)

    def _iterate(self, state, h):
        """Iterate the rows X of the fold with the state flattened to N = n*d
        columns.  Returns (maps, x, X, iterations): the step's
        :class:`_StageMaps`, their inputs x = (q0, p0, F, F(X)) stacked into
        ``maps.inputs``, where F are the forces X was computed from, and the
        converged X.  X starts from every force at q0, in no pass; a step
        without iterated slots is explicit, and that start is its X."""
        system, cfg = self.system, self.config
        shape = state.q.shape
        if shape != self._shape and shape[1:] != self._shape:
            raise ValueError(f"state shape {shape} does not match the system's {self._shape}")
        n = shape[0] if len(shape) == 2 else 1
        # one float step over the columns of omega_sq itself, or else one
        # step size per member
        if isinstance(h, float):
            maps = self._block_inverses(h if shape == self._shape else (h,) * n)
        else:
            maps = self._block_inverses(tuple(h.tolist()))
        q0, p0 = state.q.reshape(-1), state.p.reshape(-1)
        x = maps.inputs
        qp = x[:2]
        qp[0], qp[1] = q0, p0
        scale = _member_max(np.abs(qp).max(axis=0), n)
        np.maximum(scale, 1.0, out=scale)
        limit, blowup = cfg.tolerance * scale, _DIVERGENCE_FACTOR * scale
        c0 = np.einsum("ijc,jc->ic", maps.start, qp)

        # the forces X was computed from, which the next forces overwrite
        # once a pass no longer needs them, and the forces of X.  Every slot
        # starts at the force on q0, the start X = c0 + K F(q0); the
        # explicit slots keep F1(q0) throughout
        forces = maps.forces
        forces[:, :self.scheme.s1] = system.slow_force(state.q).reshape(-1)
        if self.mode is SolverMode.FIXED_POINT:
            forces[:, self.scheme.s1:] = system.fast_force(state.q).reshape(-1)
        source, F = forces
        read, stages = maps.primary.shape[1], (-1,) + shape
        X_new = np.einsum("ijc,jc->ic", maps.primary, F[:read])
        X_new += c0
        # a step without iterated slots is explicit: X_new is its stages
        final = not self._passes
        blocks = self._final if final else self._passes
        iteration = 0
        done = None     # the members that have converged, once some but not all have
        while True:
            for force, rows, slots in blocks:
                source[slots] = force(X_new[rows].reshape(stages)).reshape(-1, len(q0))
            X, source, F = X_new, F, source
            # every force that X or (q1, p1) reads is checked
            if not np.isfinite(F).all():
                bad = _failing(F, n)
                if iteration == 0 or final:
                    raise NumericalFailureError("force evaluation returned NaN/Inf",
                                                np.flatnonzero(bad))
                if done is not None:
                    bad &= ~done
                if bad.any():
                    raise NonconvergenceError(
                        f"stage iteration diverged after {iteration + 1} iterations",
                        residual=math.inf, iterations=iteration + 1,
                        members=np.flatnonzero(bad))
            if final:
                np.concatenate((source, F), out=x[2:])
                return maps, x, X, iteration
            X_new = np.einsum("ijc,jc->ic", maps.primary, F[:read])
            X_new += c0
            iteration += 1
            change = X_new - X
            residual = _member_max(np.abs(change, out=change).max(axis=0), n)
            if done is not None:
                # converged members keep the stages they converged with
                # and the forces those came from
                frozen = np.repeat(done, len(q0) // n)
                np.copyto(X_new, X, where=frozen)
                np.copyto(F, source, where=frozen)
                residual[done] = 0.0
            # count_nonzero is much cheaper than all/any on a few members
            converged = residual <= limit
            n_converged = np.count_nonzero(converged)
            final = n_converged == n
            if not final:
                diverged = residual > blowup
                if np.count_nonzero(diverged):
                    raise NonconvergenceError(
                        f"stage iteration diverged after {iteration} iterations",
                        residual=float(np.max(residual[diverged])), iterations=iteration,
                        members=np.flatnonzero(diverged))
                if iteration == cfg.max_iterations:
                    worst = float(np.max(residual))
                    raise NonconvergenceError(
                        f"stage iteration did not reach tolerance {cfg.tolerance:g} "
                        f"within {cfg.max_iterations} iterations (residual {worst:.3e})",
                        residual=worst, iterations=cfg.max_iterations,
                        members=np.flatnonzero(~converged))
                if n_converged:
                    done = converged
            blocks = self._final if final else self._passes

    # -- stepping ----------------------------------------------------------

    def step(self, state: PhaseState, h) -> PhaseState:
        return self.step_with_iterations(state, h)[0]

    @_quiet
    def step_with_iterations(self, state: PhaseState, h):
        """The next state and the number of stage-loop passes (for a batch,
        the largest over its members).  ``h`` is one step size, or for a
        batch one per member, shape (n,); ValueError unless it is finite."""
        h = _step_size(h, state)
        maps, x, _, iterations = self._iterate(state, h)
        q1, p1 = np.einsum("ijc,jc->ic", maps.update, x)
        shape = state.q.shape
        return PhaseState(q=q1.reshape(shape), p=p1.reshape(shape), t=state.t + h), iterations


def ark_step(scheme: ArkScheme, system: SplitForceSystem, state: PhaseState,
             h, config: StageSolveConfig | None = None) -> PhaseState:
    """Advance one step of size h (for a batch, one float or one per member).
    See ArkStepper for the stage equations."""
    return ArkStepper(scheme, system, config).step(state, h)


def solve_stages(scheme: ArkScheme, system: SplitForceSystem, state: PhaseState,
                 h, config: StageSolveConfig | None = None):
    """Solve the implicit stage system; returns (Q, P, Q_tilde, iterations)."""
    return ArkStepper(scheme, system, config).solve_stages(state, h)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """States recorded every ``stride`` steps, plus per-step iteration counts."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    stage_iterations: np.ndarray
    stride: int = 1

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> PhaseState:
        return PhaseState(q=self.qs[i], p=self.ps[i], t=float(self.times[i]))

    def final_state(self) -> PhaseState:
        return self.state(len(self) - 1)

    def write_csv(self, path):
        d = self.qs.shape[1]
        header = ("t," + ",".join(f"q_{k + 1}" for k in range(d)) + ","
                  + ",".join(f"p_{k + 1}" for k in range(d)) + ",stage_iters")
        # the first record has no step behind it
        iters = np.zeros(len(self), dtype=int)
        iters[1:] = self.stage_iterations[np.arange(1, len(self)) * self.stride - 1]
        cells = np.column_stack((self.times, self.qs, self.ps))
        _write_table(path, header, ",".join(["%.17g"] * (1 + 2 * d) + ["%d"]),
                     ((*row.tolist(), k) for row, k in zip(cells, iters.tolist())))


def _write_table(path, header: str, template: str, rows):
    """Write a CSV file: ``header``, then ``template % row`` for each tuple
    in ``rows``, every line ending in a bare newline.  "%.17g" prints a float
    exactly as format(x, ".17g") does.  Lines are written as they are made,
    so a long table is never held in memory as text."""
    line = template + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def _at_step(exc: NonconvergenceError, step: int, t: float) -> NonconvergenceError:
    """``exc`` restated for a run that failed in the given step, at time t."""
    return NonconvergenceError(f"step {step} (t={t:g}): {exc}", residual=exc.residual,
                               iterations=exc.iterations, step_index=step,
                               members=exc.members)


@_quiet
def integrate(scheme, system: SplitForceSystem, state0: PhaseState, h: float,
              n_steps: int, config: StageSolveConfig | None = None,
              observer: Optional[Callable] = None, stride: int = 1) -> Trajectory:
    """Repeated stepping from ``state0``; ``observer`` sees every new state.

    ``scheme`` may be an ArkScheme, a scheme/composition name (see
    :func:`make_stepper`) or any object with a ``step(state, h)`` method.
    Recorded times are t0 + n*h evaluated directly, not accumulated.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if state0.q.ndim != 1:
        raise ValueError("integrate steps one state, not a batch")
    stepper = make_stepper(scheme, system, config)
    d = state0.dimension
    n_records = n_steps // stride + 1
    times = np.empty(n_records)
    qs = np.empty((n_records, d))
    ps = np.empty((n_records, d))
    iters = np.zeros(n_steps, dtype=int)
    times[0], qs[0], ps[0] = state0.t, state0.q, state0.p
    state = state0
    record = 1
    for i in range(n_steps):
        try:
            if hasattr(stepper, "step_with_iterations"):
                state, it = stepper.step_with_iterations(state, h)
            else:
                state, it = stepper.step(state, h), 0
        except NonconvergenceError as exc:
            exc.step_index = i
            raise _at_step(exc, i, state.t) from exc
        state = PhaseState(q=state.q, p=state.p, t=state0.t + (i + 1) * h)
        iters[i] = it
        if observer is not None:
            observer(state)
        if (i + 1) % stride == 0:
            times[record] = state.t
            qs[record], ps[record] = state.q, state.p
            record += 1
    return Trajectory(times=times[:record], qs=qs[:record], ps=ps[:record],
                      stage_iterations=iters, stride=stride)


# ---------------------------------------------------------------------------
# Yoshida compositions
# ---------------------------------------------------------------------------

# Triple jump: the unique real solution of w0 + 2 w1 = 1, w0^3 + 2 w1^3 = 0.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA4_SUBSTEPS = (_W1, 1.0 - 2.0 * _W1, _W1)

# Seven-stage symmetric set, solution A of Yoshida, Phys. Lett. A 150 (1990)
# 262-268; Newton-refined so that sum w = 1, sum w^3 = 0, sum w^5 = 0 hold to
# full double precision.
_Y6_W1 = -1.1776799841788719
_Y6_W2 = 0.23557321335935791
_Y6_W3 = 0.78451361047755785
_Y6_W0 = 1.0 - 2.0 * (_Y6_W1 + _Y6_W2 + _Y6_W3)
YOSHIDA6_SUBSTEPS = (_Y6_W3, _Y6_W2, _Y6_W1, _Y6_W0, _Y6_W1, _Y6_W2, _Y6_W3)


class ComposedStepper:
    """Symmetric composition of a base one-step map with fractional substeps.

    h is one step size or, for a batch, one per member; each substep scales
    it by its fraction."""

    def __init__(self, base, substeps):
        counted = getattr(base, "step_with_iterations", None)
        if counted is None:
            plain = base.step if hasattr(base, "step") else base

            def counted(state, h):
                return plain(state, h), 0
        self._step_fn = counted
        self.substeps = tuple(float(w) for w in substeps)

    def step(self, state: PhaseState, h) -> PhaseState:
        return self.step_with_iterations(state, h)[0]

    @_quiet
    def step_with_iterations(self, state: PhaseState, h):
        """The composed step and the stage iterations of all its substeps
        (0 for a base without iteration counts)."""
        if not isinstance(h, float):
            h = np.asarray(h, dtype=float)
        t0 = state.t
        total = 0
        for w in self.substeps:
            state, iterations = self._step_fn(state, w * h)
            total += iterations
        # substep times accumulate roundoff; pin the exact step
        return PhaseState(q=state.q, p=state.p, t=t0 + h), total


def yoshida_compose(base, target_order: int) -> ComposedStepper:
    """Raise a time-symmetric order-2 stepper to order 4 or 6.

    ``base`` is either a stepper object or a callable ``(state, h) -> state``.
    """
    if target_order == 4:
        return ComposedStepper(base, YOSHIDA4_SUBSTEPS)
    if target_order == 6:
        return ComposedStepper(base, YOSHIDA6_SUBSTEPS)
    raise ValueError(f"unsupported composition order {target_order} (use 4 or 6)")


# ---------------------------------------------------------------------------
# Scheme / stepper resolution by name
# ---------------------------------------------------------------------------

def scheme_from_name(name: str) -> ArkScheme:
    """Resolve 'lgl{2,4,6,...}' / 'lglc{2,4,6,...}' to a constructed scheme."""
    for prefix, variant in (("lglc", Variant.COLLOCATION), ("lgl", Variant.INTERPOLATION)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            order = int(name[len(prefix):])
            if order < 2 or order % 2:
                raise ValueError(f"scheme order must be even and >= 2, got {name!r}")
            return build_scheme(order // 2 + 1, variant)
    raise ValueError(f"unknown scheme name {name!r}")


def make_stepper(spec, system: SplitForceSystem,
                 config: StageSolveConfig | None = None):
    """Build a stepper from a scheme, a name, or pass through a stepper.

    Names: ``lgl2``/``lgl4``/``lgl6`` (interpolation family), ``lglc*``
    (collocation family), ``imex-yoshida4``/``imex-yoshida6`` (compositions
    of the two-stage interpolation method).
    """
    if hasattr(spec, "step"):
        return spec
    if isinstance(spec, ArkScheme):
        return ArkStepper(spec, system, config)
    if isinstance(spec, str):
        if spec.startswith("imex-yoshida"):
            order = int(spec.removeprefix("imex-yoshida"))
            base = ArkStepper(build_scheme(2, Variant.INTERPOLATION), system, config)
            return yoshida_compose(base, order)
        return ArkStepper(scheme_from_name(spec), system, config)
    raise TypeError(f"cannot build a stepper from {spec!r}")


# ---------------------------------------------------------------------------
# Reference solution by step-halved order-8 Runge-Kutta
#
# A step of the 12-stage tableau of _rk8 is a linear map of the rows
# (q_n, p_n, F(Q_0), ..., F(Q_11)), each stage reading the rows before its
# force; only the weights depend on the system.  Without a diagonal fast
# part they are the tableau's Nystrom form for q'' = F1 + F2 (Hairer,
# Norsett & Wanner, Solving ODEs I, II.14).  With one (omega_sq), the flow
# of q' = p, p' = -Omega^2 q is an exact rotation per coordinate (free
# flight where omega = 0), and the tableau integrates only the slow force
# in the frame that rotates with it: Lawson's integrating-factor method
# (Lawson, SIAM J. Numer. Anal. 4 (1967); Hochbruck & Ostermann, Acta
# Numerica 19 (2010)), whose step is limited by how fast F1 varies along
# the rotating trajectory, not by h*omega.  The rotation is not what the
# additive methods do (they apply Gauss quadrature to the fast force), so
# the oracle does not share their error; it imports none of their code.
# ---------------------------------------------------------------------------

def _flow_factors(omega, t):
    """cos(omega t), sin(omega t)/omega (t where omega = 0) and
    omega sin(omega t); each of shape t.shape + omega.shape."""
    t = np.asarray(t, dtype=float)[..., None]
    theta = t * omega
    sin = np.sin(theta)
    sinc = np.divide(sin, omega, out=np.broadcast_to(t, theta.shape).copy(),
                     where=omega > 0.0)
    return np.cos(theta), sinc, omega * sin


def _lawson_weights(omega, h: float):
    """Weights of one integrating-factor step of size h.

    With c(t) = cos(omega t) and s(t) = sin(omega t)/omega per coordinate, the
    step of Lawson's method on the tableau (A, b, c) reads the rows
    r = (q_n, p_n, F1(Q_0), ..., F1(Q_11)) and computes

        Q_i     = c(c_i h) q_n + s(c_i h) p_n + h sum_j a_ij s((c_i - c_j) h) F1(Q_j)
        q_{n+1} = c(h) q_n + s(h) p_n + h sum_j b_j s((1 - c_j) h) F1(Q_j)
        p_{n+1} = -omega sin(omega h) q_n + c(h) p_n + h sum_j b_j c((1 - c_j) h) F1(Q_j)

    since the rotations compose: exp(c_i h L) exp(-c_j h L) = exp((c_i - c_j) h L).
    Returns weights[o, j], the (d,) factor of row j in output o (Q_0, ...,
    Q_11, q_{n+1}, p_{n+1}).
    """
    n, c = _rk8.N_STAGES, _rk8.C
    cos_c, sin_c, _ = _flow_factors(omega, c * h)
    _, sin_cc, _ = _flow_factors(omega, np.subtract.outer(c, c) * h)
    cos_h, sin_h, wsin_h = _flow_factors(omega, h)
    cos_b, sin_b, _ = _flow_factors(omega, (1.0 - c) * h)
    hb = (h * _rk8.B)[:, None]
    weights = np.zeros((n + 2, n + 2, omega.shape[-1]))
    weights[:n, 0], weights[:n, 1] = cos_c, sin_c
    weights[:n, 2:] = (h * _rk8.A)[..., None] * sin_cc
    weights[n, 0], weights[n, 1], weights[n, 2:] = cos_h, sin_h, hb * sin_b
    weights[n + 1, 0], weights[n + 1, 1], weights[n + 1, 2:] = -wsin_h, cos_h, hb * cos_b
    return weights


def _nystrom_weights(h: float, d: int):
    """Weights of one step of size h of the tableau on q'' = F(q), in the
    layout of :func:`_lawson_weights`; with the stage momenta eliminated,

        Q_i     = q_n + c_i h p_n + h^2 sum_j (A^2)_ij F(Q_j)
        q_{n+1} = q_n + h p_n + h^2 sum_j (b A)_j F(Q_j)
        p_{n+1} = p_n + h sum_j b_j F(Q_j).
    """
    n, a, b = _rk8.N_STAGES, _rk8.A, _rk8.B
    weights = np.zeros((n + 2, n + 2, d))
    weights[:n, 0], weights[:n, 1] = 1.0, (h * _rk8.C)[:, None]
    weights[:n, 2:] = (h * h * (a @ a))[..., None]
    weights[n, 0], weights[n, 1], weights[n, 2:] = 1.0, h, (h * h * (b @ a))[:, None]
    weights[n + 1, 1], weights[n + 1, 2:] = 1.0, (h * b)[:, None]
    return weights


def _check_finite(y):
    if not np.all(np.isfinite(y)):
        raise OracleFailureError("reference integration produced NaN/Inf")


def _rk8_final_state(system: SplitForceSystem, state0: PhaseState, duration: float,
                     n_steps: int) -> np.ndarray:
    """(q, p) after ``n_steps`` equal order-8 steps over ``duration``, as one
    (2d,) array: integrating-factor steps over F1 when the system has
    ``omega_sq``, Nystrom steps over F1 + F2 otherwise.  A system with no
    force left steps the exact rotation or free flight."""
    d, n, h = state0.dimension, _rk8.N_STAGES, duration / n_steps
    if system.omega_sq is None:
        f1, f2 = system.f1, system.f2
        force = f2 if f1 is None else f1 if f2 is None else lambda q: f1(q) + f2(q)
        weights = _nystrom_weights(h, d)
    else:
        force, weights = system.f1, _lawson_weights(np.sqrt(system.omega_sq), h)
    maps = np.einsum("ojk,kl->okjl", weights, np.eye(d)).reshape(n + 2, d, (n + 2) * d)
    final = maps[n:].reshape(2 * d, (n + 2) * d)
    rows = np.empty((n + 2, d))
    flat = rows.reshape(-1)
    state = flat[:2 * d]  # (q_n, p_n): the first two rows
    state[:d], state[d:] = state0.q, state0.p
    # Q_i reads the first i + 2 rows; the views stay bound to the buffers
    stages = [(np.ascontiguousarray(maps[i, :, :(i + 2) * d]), flat[:(i + 2) * d], rows[i + 2])
              for i in range(1, n)]
    if force is None:  # a step is the exact rotation or free flight
        final, flat, stages = np.ascontiguousarray(final[:, :2 * d]), state, ()
    q, new = np.empty(d), np.empty(2 * d)
    for step in range(n_steps):
        if force is not None:
            rows[2] = force(rows[0])  # Q_0 = q_n
        for m, r, f_i in stages:
            np.matmul(m, r, out=q)
            f_i[...] = force(q)
        np.matmul(final, flat, out=new)
        state[...] = new
        if step % 64 == 0:
            _check_finite(state)
    _check_finite(state)
    return state.copy()


def _initial_step_count(system: SplitForceSystem, duration: float) -> int:
    n = max(64, int(math.ceil(8.0 * abs(duration))))
    if system.omega_sq is not None:
        # The rotation is exact, so the step error comes only from the slow
        # force sampled along the rotating trajectory, and h*omega ~ 2 is
        # already fine enough: on the chain at omega = 1e4 the first two
        # levels (100 and 200 steps over T = 0.02; 15000 and 30000 over
        # T = 3) agree to about 1.4e-2 of tol = 1e-9.
        w_max = math.sqrt(float(np.max(system.omega_sq)))
        n = max(n, int(math.ceil(abs(duration) * w_max / 2.0)))
    return n


# step halvings after the first level before the oracle gives up
_MAX_REFINEMENTS = 24


@_quiet
def reference_solve(system: SplitForceSystem, state0: PhaseState, T: float,
                    tol: float = 1e-12) -> PhaseState:
    """State at time T by fixed-step order-8 integration with step halving.

    With ``omega_sq`` set, the fast linear force is taken exactly by one
    rotation per coordinate and the order-8 tableau integrates only the slow
    force (the integrating-factor method above); otherwise the tableau
    integrates both forces.  The step count doubles until two successive
    runs agree to ``tol`` (max-norm, relative to max(1, final state)); the
    finer run is returned.  Each level is logged at DEBUG with its step
    count and its agreement divided by ``tol``.  Independent of the
    additive-method stepping code.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    if state0.q.ndim != 1 or (system.omega_sq is not None and system.omega_sq.ndim != 1):
        raise ValueError("the reference solver steps one state with one omega_sq diagonal")
    duration = T - state0.t
    if not math.isfinite(duration):
        raise ValueError("T must be finite")
    if duration == 0.0:
        return state0
    n = _initial_step_count(system, duration)
    y_prev = _rk8_final_state(system, state0, duration, n)
    _log.debug("reference level: %d steps", n)
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        y = _rk8_final_state(system, state0, duration, n)
        bound = tol * max(1.0, float(np.max(np.abs(y))))
        diff = float(np.max(np.abs(y - y_prev)))
        _log.debug("reference level: %d steps, agreement %.3g tol", n, diff / bound)
        if diff <= bound:
            d = state0.dimension
            return PhaseState(q=y[:d], p=y[d:], t=T)
        y_prev = y
    raise OracleFailureError(
        f"step halving did not certify tolerance {tol:g} within "
        f"{_MAX_REFINEMENTS} refinements ({n} steps)")
