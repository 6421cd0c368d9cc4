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

of each coordinate exactly.  The system decides how.  When it gives the
fast force as linear, F2 = -Omega^2 q with the diagonal Omega^2 as
``omega_sq``, the solve is linearly-implicit: it takes F2 into the block,
W is the coordinate's entry of Omega^2 and G = 0, so there is one block per
distinct entry and the loop iterates F1 only.  This is what keeps h*omega
in the hundreds usable.  A system without ``omega_sq`` may have any fast
force, and the solve is fixed-point: W = 0 and G = F2(Qt), so one block
serves every coordinate and the loop iterates F1 and F2 alike.  That
contracts only for h*omega below ~2.

A pass is affine in the forces, so the block solve is folded into the
tableau once per step size (Hairer & Wanner, Solving ODEs II, IV.8).  The
blocks of all the step sizes a step needs and has not folded yet are
solved together, by one call of the stage block kernel, ``kernel.py``
(:mod:`symparc.kernel`), over all their (step size, Omega^2 value) pairs:
it factors the s2 x s2 Schur complement I + h^2 w At AtH, the matrix the
stability analysis factors at h^2 w = mu^2, so the cost is the kernel's
loop overhead, paid once for all pairs.  In fixed-point mode w = 0 and the
block is unit upper triangular, so the fold solves it in closed form, with
no factorization.  Per coordinate, the iterated rows are X = c0 + K F,
where c0 = u q0 + v p0 is formed once per step and F are the forces that
read X's first rows.  The two modes differ only in this fold:

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
F1(Q_2), and no pass.  The stepper looks for the zeros in these two places
only, the first row of a and the last column of ahat, and the fold keeps
them exact; a scheme without them there iterates every stage.

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
from typing import Callable, NamedTuple, Optional

import numpy as np

from symparc import _rk8
# _fold calls lu_factor by this module's name for it, which bench/tracing.py
# wraps to count factorizations and tests patch to refuse them
from symparc.kernel import _schur_basis, lu_factor, stage_rhs, stage_solve
from symparc.tableaux import ArkScheme, Variant, build_scheme

__all__ = [
    "PhaseState",
    "SplitForceSystem",
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


def _computed_state(q, p, t) -> PhaseState:
    """The PhaseState of arrays a step has just computed from a valid state,
    without the copy and checks of :class:`PhaseState`: q and p, and t if it
    is an array, are only set read-only, and a scalar t is made a float.
    Nothing else may hold the arrays writable."""
    q.setflags(write=False)
    p.setflags(write=False)
    if isinstance(t, np.ndarray):
        t.setflags(write=False)
    else:
        t = float(t)
    state = object.__new__(PhaseState)
    vars(state).update(q=q, p=p, t=t)
    return state


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
    batched state its own diagonal.  ``omega_sq`` also chooses the stage
    solve: with it, :class:`ArkStepper` takes the fast force into the stage
    block (linearly-implicit); without it, the stepper iterates ``f2`` by
    fixed point, which contracts only for h*omega below ~2.  Both callbacks
    must broadcast over leading axes.  ``hamiltonian(q, p)`` is optional and
    used only for diagnostics.
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


# Passes of the stage loop after which a member that has not converged fails.
_MAX_PASSES = 50

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


def _member_max(columns, n: int):
    """The largest of each member's entries in ``columns``, of the state's
    shape, (d,) or (n, d) -> (n,)."""
    # NumPy reduces a short contiguous axis slowly; the transposed copy is
    # reduced along its long leading axis instead
    return np.ascontiguousarray(columns.reshape(n, -1).T).max(axis=0)


def _failing(F, n: int):
    """Which of the n members hold a non-finite entry in the forces F,
    shape (slots,) + the state's shape."""
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


def _step_count(T: float, h: float, names=("T", "h")) -> int:
    """round(T / h), the steps of a run over the time T by the step size h.
    ValueError, naming T and h as ``names`` calls them, unless h is positive,
    T nonnegative, both finite and the count below 2^63: no int64 holds
    more, T / h may even overflow to inf, and such a run would never end."""
    t_name, h_name = names
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"{h_name} must be positive and finite, got {h!r}")
    if not (T >= 0.0 and math.isfinite(T)):
        raise ValueError(f"{t_name} must be nonnegative and finite, got {T!r}")
    if not T / h < 2.0 ** 63:
        raise ValueError(f"{h_name} {h!r} is too small for {t_name} {T!r}: "
                         f"the run would take 2^63 steps or more")
    return round(T / h)


try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:     # NumPy < 2
    from numpy.core.multiarray import c_einsum as _einsum
# _einsum is the C function np.einsum(..., optimize=False) ends in, so it
# gives the same bits.  Calling it directly skips np.einsum's Python
# dispatcher and __array_function__ check, about 1-2 us per call, which a
# single-state step pays for every map product and the energy observer for
# every state.  kernel._apply does not use it: on a contiguous (n, 1, 1)
# operand einsum sums in a SIMD dot order, not term by term, and the kernel
# must add alike for every batch size.

# the product of each column's maps with its inputs: out[i, c] = sum_j
# map[i, j, c] in[j, c], where c runs over the state's shape; every stage
# pass and update forms it through _einsum
_BY_COLUMN = "ij...,j...->i..."


class _StageMaps(NamedTuple):
    """One step as affine maps, per column c of the state.  The
    fold has rows (Q in linearly-implicit mode, (Q, Qt, P) in fixed-point
    mode) and m force slots, slot j holding the force of row j (F1(Q), or
    F1(Q) and F2(Qt)).  :class:`ArkStepper` splits the slots by the
    Lobatto pair's exact zeros, which the fold keeps:

    - explicit: the first slot, when the first row of a is zero (a[0] = 0
      makes Q_1 = q0).  Its force is F1(q0), evaluated once per step.
    - lagged: the last F1 slot, when the last column of ahat is zero
      (ahat[:, -1] = 0 leaves F1(Q_s) read by no row).  Only (q1, p1) read
      it, so its force is evaluated in the converging pass alone.
    - iterated: every other slot, evaluated in every pass.  The F2 slots
      of fixed-point mode are always iterated.

    X holds the rows after the explicit one.  With F the forces that X is
    computed from and h the column's step size:

        X[i, c]        = sum_j start[i, j, c] (q0, p0)[j, c]
                         + sum_j primary[i, j, c] F[j, c]
        (q1, p1)[i, c] = sum_j update[i, j, c] (q0, p0, F, F(X))[j, c]

    ``primary`` stops after the last slot that X reads; the lagged slots of
    F and F(X) that the maps multiply by an exact zero hold a finite value.

    The column axes have the state's shape S, (d,) or (n, d), so that
    every row is a state's worth of stages, forces or (q, p) that the force
    callbacks read and write without a reshape.  ``solution`` is the (Qt, P)
    map over (q0, p0, F) of each (step size, Omega^2 value) pair, shape
    (H*V, s2 + s1, 2 + m), and ``index`` the pair of each of the N = n*d
    columns.  ``inputs`` is the buffer each step stacks (q0, p0, F, F(X))
    into and ``forces`` the two force buffers a step swaps: at the sweep's
    N a fresh array per step is larger than malloc's mmap threshold, and
    some processes then fault its pages in anew on every step.
    """

    start: np.ndarray          # (rows of X, 2) + S
    primary: np.ndarray        # (rows of X, slots read) + S
    update: np.ndarray         # (2, 2 + 2 m) + S
    solution: np.ndarray       # (H*V, s2 + s1, 2 + m)
    index: np.ndarray          # (N,)
    inputs: np.ndarray         # (2 + 2 m,) + S
    forces: np.ndarray         # (2, m) + S


class ArkStepper:
    """One-step map of an additive scheme applied to a split system.

    A state may be a batch of shape (n, d), stepped with one step size or
    one per member; see the module docstring.  Holds a small cache of folded
    stage maps (keyed by the step size, or by the tuple of per-member step
    sizes; the system's Omega^2 is fixed).  Instances are cheap to build and
    must not be shared across threads or stepped from their own force
    callbacks.

    ``tol`` is relative to each member's own scale max(1, |q0|_inf,
    |p0|_inf): a member has converged once no iterated row moved by more
    than tol times its scale in a pass.  A system with ``omega_sq`` is
    solved linearly-implicitly, testing the stages Q; one without is
    iterated by fixed point, testing P, Q and Qt (see the module
    docstring).  A member that has not converged after 50 passes
    (``_MAX_PASSES``) fails; a linearly-implicit step without interior stages (lgl2)
    is explicit and takes no pass, so the cap does not bound it.
    """

    def __init__(self, scheme: ArkScheme, system: SplitForceSystem, tol: float = 1e-12):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {tol!r}")
        self.scheme = scheme
        self.system = system
        self.tol = tol
        # a system without the diagonal Omega^2 has F2 iterated by fixed
        # point; one with it has F2 solved in the block
        self._fixed_point = fixed_point = system.omega_sq is None
        # step-size keyed cache of the folded stage maps; compositions
        # alternate between a handful of substep sizes
        self._block_cache = {}
        # the factorized stage solve per scalar step size, which the maps are
        # gathered from: a member that leaves a batch refactors no other
        self._folds = {}
        # one block per distinct entry of Omega^2, which is 0 throughout when
        # F2 is iterated; _columns maps each coordinate of the flattened
        # diagonal to its block
        omega_sq = np.zeros(system.dimension) if fixed_point else system.omega_sq
        self._values, self._columns = np.unique(omega_sq.ravel(), return_inverse=True)
        self._shape = omega_sq.shape

        # the Lobatto layout of the maps (see _StageMaps): the first row is
        # explicit where a[0] = 0, the last F1 slot lagged where ahat[:, -1] = 0
        s1, m = scheme.s1, scheme.s1 + scheme.s2 if fixed_point else scheme.s1
        e = int(not scheme.a[0].any())
        lagged = int(not scheme.a_hat[:, -1].any())
        # the (force, rows of X, slots) blocks evaluated in every pass and in
        # the converging one; with no iterated slot the step is explicit
        passes, final = [], []
        for blocks, hi in ((passes, s1 - lagged), (final, s1)):
            if hi > e:
                blocks.append((system.slow_force, slice(0, hi - e), slice(e, hi)))
            if fixed_point:
                blocks.append((system.fast_force, slice(s1 - e, m - e), slice(s1, m)))
        self._passes, self._final, self._explicit = tuple(passes), tuple(final), e
        # X reads the slots up to the last one that is not lagged
        self._read = m if fixed_point else s1 - lagged

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
            shape = (len(h), d)
        else:
            steps, index, shape = (h,), self._columns, self._shape
        folds = self._fold(steps, lambda j, k: self._rows_with(np.isin(index, j * n_values + k)))
        start, primary, update, solution = (np.concatenate(x) for x in zip(*folds))

        def gather(by_pair):
            by_column = self._gather(by_pair, index)
            return by_column.reshape(by_column.shape[:-1] + shape)

        e = self._explicit
        maps = _StageMaps(start=gather(start[:, e:]), primary=gather(primary[:, e:, :self._read]),
                          update=gather(update), solution=solution, index=index,
                          inputs=np.empty((update.shape[-1],) + shape),
                          forces=np.empty((2, primary.shape[-1]) + shape))
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
        fixed_point = self._fixed_point
        m = s1 + s2 if fixed_point else s1
        h = np.array([steps[j] for j in new], dtype=float)
        # the step size of each (h, w) pair, and per pair the right-hand
        # side's rows (Qt, P) and columns (q0, p0, F_1, ..., F_m)
        alpha = np.repeat(h, len(values))
        forces = (np.concatenate((scheme.a_hat, scheme.a_tilde_hat), axis=1) if fixed_point
                  else scheme.a_hat)
        rhs = stage_rhs(scheme, forces[:, :, None] * alpha)
        if fixed_point:
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
        s1, s2 = self.scheme.s1, self.scheme.s2
        maps, x, X, iterations = self._iterate(state, h)
        solution = self._gather(maps.solution, maps.index)
        sol = _einsum(_BY_COLUMN, solution.reshape(solution.shape[:2] + state.q.shape),
                      x[:solution.shape[1]])
        # the explicit row is q0 itself
        stages = np.concatenate((np.broadcast_to(x[0], (self._explicit,) + x[0].shape), X))
        return stages[:s1], sol[s2:], sol[:s2], iterations

    def _iterate(self, state, h):
        """Iterate the rows X of the fold, each of the state's shape.
        Returns (maps, x, X, iterations): the step's :class:`_StageMaps`,
        their inputs x = (q0, p0, F, F(X)) stacked into ``maps.inputs``,
        where F are the forces X was computed from, and the converged X.
        X starts from every force at q0, in no pass; a step without
        iterated slots is explicit, and that start is its X.

        One reduction decides a pass: the largest change of any column,
        against the smallest member's tolerance.  Only a batch that fails
        that test finds out which members converged, and only then does
        each member's bookkeeping run.  The forces are checked in the
        converging pass, where nothing else shows their failure.  In the
        other passes they are checked only once the largest change is not
        finite, which a NaN or Inf in any slot that X reads makes it (a
        lagged slot holds F1(q0) until the converging pass, and the start X
        reads that).  A force that fails in its first evaluation raises
        NumericalFailureError naming its members; one that first fails in a
        later pass diverges them.
        """
        system = self.system
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
        x = maps.inputs
        x[0], x[1] = state.q, state.p
        qp = x[:2]
        c0 = _einsum(_BY_COLUMN, maps.start, qp)

        # the forces X was computed from, which the next forces overwrite
        # once a pass no longer needs them, and the forces of X.  Every slot
        # starts at the force on q0, the start X = c0 + K F(q0); the
        # explicit slots keep F1(q0) throughout
        forces = maps.forces
        forces[:, :self.scheme.s1] = system.slow_force(state.q)
        if self._fixed_point:
            forces[:, self.scheme.s1:] = system.fast_force(state.q)
        source, F = forces[0], forces[1]   # unpacking an array costs more
        read = maps.primary.shape[1]
        X_new = _einsum(_BY_COLUMN, maps.primary, F[:read])
        X_new += c0
        # a step without iterated slots is explicit: X_new is its stages
        final = not self._passes
        if not final:
            # each member's scale max(1, |q0|_inf, |p0|_inf)
            if n == 1:
                scale = max(float(np.abs(qp).max()), 1.0)
                limit = smallest = self.tol * scale
            else:
                scale = _member_max(np.abs(qp).max(axis=0), n)
                np.maximum(scale, 1.0, out=scale)
                limit = self.tol * scale
                smallest = limit.min()
            blowup = _DIVERGENCE_FACTOR * scale
        blocks = self._final if final else self._passes
        iteration = 0
        done = None     # the members that have converged, once some but not all have
        while True:
            for force, rows, slots in blocks:
                source[slots] = force(X_new[rows])
            X, source, F = X_new, F, source
            if final:
                if not np.isfinite(F).all():
                    raise NumericalFailureError("force evaluation returned NaN/Inf",
                                                np.flatnonzero(_failing(F, n)))
                x[2:2 + len(F)] = source
                x[2 + len(F):] = F
                return maps, x, X, iteration
            X_new = _einsum(_BY_COLUMN, maps.primary, F[:read])
            X_new += c0
            iteration += 1
            if done is not None:
                # converged members keep the stages they converged with
                # and the forces those came from
                np.copyto(X_new, X, where=frozen)
                np.copyto(F, source, where=frozen)
            change = np.subtract(X_new, X)
            worst = np.abs(change, out=change).max()
            if worst <= smallest:
                final = True
            # a single state that has neither converged nor failed iterates
            # on; anything else is settled member by member
            elif n > 1 or not worst <= blowup or iteration == _MAX_PASSES:
                if not math.isfinite(worst):
                    bad = _failing(F, n)
                    # the first forces failing is the force's fault, not the loop's
                    if iteration == 1 and bad.any():
                        raise NumericalFailureError("force evaluation returned NaN/Inf",
                                                    np.flatnonzero(bad))
                    if done is not None:
                        bad &= ~done
                    if bad.any():
                        raise NonconvergenceError(
                            f"stage iteration diverged after {iteration} iterations",
                            residual=math.inf, iterations=iteration,
                            members=np.flatnonzero(bad))
                residual = _member_max(change.max(axis=0), n)
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
                    if iteration == _MAX_PASSES:
                        worst = float(np.max(residual))
                        raise NonconvergenceError(
                            f"stage iteration did not reach tolerance {self.tol:g} "
                            f"within {_MAX_PASSES} iterations (residual {worst:.3e})",
                            residual=worst, iterations=_MAX_PASSES,
                            members=np.flatnonzero(~converged))
                    if n_converged:
                        done = converged
                        frozen = done[:, None]
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
        qp1 = _einsum(_BY_COLUMN, maps.update, x)
        return _computed_state(qp1[0], qp1[1], state.t + h), iterations


def ark_step(scheme: ArkScheme, system: SplitForceSystem, state: PhaseState,
             h, tol: float = 1e-12) -> PhaseState:
    """Advance one step of size h (for a batch, one float or one per member).
    See ArkStepper for the stage equations and ``tol``."""
    return ArkStepper(scheme, system, tol).step(state, h)


def solve_stages(scheme: ArkScheme, system: SplitForceSystem, state: PhaseState,
                 h, tol: float = 1e-12):
    """Solve the implicit stage system; returns (Q, P, Q_tilde, iterations)."""
    return ArkStepper(scheme, system, tol).solve_stages(state, h)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """States recorded every ``stride`` steps and after the last step, plus
    per-step iteration counts."""

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
        steps = _record_steps(len(self), self.stride, len(self.stage_iterations))
        iters[1:] = self.stage_iterations[steps - 1]
        cells = np.column_stack((self.times, self.qs, self.ps))
        _write_table(path, header, ",".join(["%.17g"] * (1 + 2 * d) + ["%d"]),
                     ((*row.tolist(), k) for row, k in zip(cells, iters.tolist())))


def _record_steps(records: int, stride: int, n_steps: int):
    """The step after which each of ``records`` records but the first is
    taken: every ``stride``-th step of ``n_steps``, and the last."""
    return np.minimum(np.arange(1, records) * stride, n_steps)


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


def _stepper(obj):
    """``obj`` if it is a stepper, with ``step_with_iterations(state, h)``."""
    if not callable(getattr(obj, "step_with_iterations", None)):
        raise TypeError(f"{obj!r} is not a stepper: it has no step_with_iterations(state, h)")
    return obj


@_quiet
def _run(batch, state: PhaseState, h, n_steps, observe=None):
    """Step member i of the batched ``state`` n_steps[i] times by h (one
    float, or one per member) as one batch.  ``batch(rows)`` gives the
    stepper of the members ``rows``; it is called again when members leave,
    as a stepper may hold their data.  After every step, ``observe(rows,
    state, iterations)`` sees the members still running.  A member leaves
    after its last step, or when its stage solve fails; the step is then
    redone without it.  Returns each member's final q and p (2, n, d), NaN
    if it failed, and (index, error) per failed member in index order.
    """
    n, t0 = len(n_steps), state.t
    sizes = np.broadcast_to(h, n)   # read on a failure alone
    finals = np.full((2,) + state.q.shape, math.nan)
    failures = []
    rows, ends = np.arange(n), n_steps   # the members still running, and their step counts
    stepper = batch(rows)
    step, stop = 0, ends.min()
    while len(rows):
        if step == stop:   # checked before stepping: a zero-step member never steps
            keep = ends != step
            finals[:, rows[~keep]] = state.q[~keep], state.p[~keep]
        else:
            try:
                state, iterations = stepper.step_with_iterations(state, h)
            except StageSolveError as exc:
                keep = np.full(len(rows), bool(exc.members))   # naming none fails all
                keep[list(exc.members)] = False
                failures += [(int(i), _at_step(exc, step, t0 + step * sizes[i])
                              if isinstance(exc, NonconvergenceError) else exc)
                             for i in rows[~keep]]
            else:
                step += 1
                if observe is not None:
                    observe(rows, state, iterations)
                continue
        rows, ends = rows[keep], ends[keep]
        h = h[keep] if np.ndim(h) else h
        state = PhaseState(q=state.q[keep], p=state.p[keep], t=t0 + step * h)
        if len(rows):
            stepper = batch(rows)
            stop = ends.min()
    return finals, sorted(failures, key=lambda failure: failure[0])


def integrate(scheme, system: SplitForceSystem, state0: PhaseState, h: float,
              n_steps: int, tol: float = 1e-12,
              observer: Optional[Callable] = None, stride: int = 1) -> Trajectory:
    """Repeated stepping from ``state0``; ``observer`` sees every new state.

    The trajectory records every ``stride``-th state and the state after the
    last step.  ``scheme`` is anything :func:`make_stepper` takes.  The run
    is a one-member batch of :func:`_run`, so a failed step raises the error
    it records there.  Times are t0 + n*h evaluated directly, not
    accumulated.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if state0.q.ndim != 1:
        raise ValueError("integrate steps one state, not a batch")
    stepper = make_stepper(scheme, system, tol)
    t0, qs, ps, iters = state0.t, [state0.q], [state0.p], []

    def observe(rows, state, iterations):
        iters.append(iterations)
        q, p = state.q[0], state.p[0]
        if observer is not None:
            observer(_computed_state(q, p, t0 + len(iters) * h))
        if len(iters) % stride == 0 or len(iters) == n_steps:
            qs.append(q)
            ps.append(p)

    batch = PhaseState(q=state0.q[None], p=state0.p[None], t=t0)
    _, failures = _run(lambda rows: stepper, batch, h, np.array([n_steps]), observe)
    if failures:
        raise failures[0][1]
    times = np.append(t0, t0 + _record_steps(len(qs), stride, n_steps) * h)
    return Trajectory(times=times, qs=np.array(qs), ps=np.array(ps),
                      stage_iterations=np.array(iters, dtype=int), stride=stride)


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
    """Symmetric composition of a base stepper with fractional substeps.

    h is one step size or, for a batch, one per member; each substep scales
    it by its fraction."""

    def __init__(self, base, substeps):
        self._step_fn = _stepper(base).step_with_iterations
        self.substeps = tuple(float(w) for w in substeps)

    def step(self, state: PhaseState, h) -> PhaseState:
        return self.step_with_iterations(state, h)[0]

    @_quiet
    def step_with_iterations(self, state: PhaseState, h):
        """The composed step and the stage iterations of all its substeps."""
        if not isinstance(h, float):
            h = np.asarray(h, dtype=float)
        t0 = state.t
        total = 0
        for w in self.substeps:
            state, iterations = self._step_fn(state, w * h)
            total += iterations
        # substep times accumulate roundoff; pin the exact step
        return _computed_state(state.q, state.p, t0 + h), total


def yoshida_compose(base, target_order: int) -> ComposedStepper:
    """Raise a time-symmetric order-2 stepper to order 4 or 6.

    ``base`` is a stepper, with ``step_with_iterations(state, h)``; TypeError otherwise.
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


def _composition_order(name: str) -> int:
    """4 or 6 for imex-yoshida4 or imex-yoshida6; ValueError for any other name."""
    if name not in ("imex-yoshida4", "imex-yoshida6"):
        raise ValueError(f"unknown composition {name!r}")
    return int(name[-1])


def make_stepper(spec, system: SplitForceSystem, tol: float = 1e-12):
    """Build a stepper from a scheme or a name, or pass a stepper through.

    Names: ``lgl2``/``lgl4``/``lgl6`` (interpolation family), ``lglc*``
    (collocation family), ``imex-yoshida4``/``imex-yoshida6`` (compositions
    of the two-stage interpolation method).  A stepper is any object with
    ``step_with_iterations(state, h)``; anything else is a TypeError.
    """
    if isinstance(spec, ArkScheme):
        return ArkStepper(spec, system, tol)
    if isinstance(spec, str):
        if spec.startswith("imex-yoshida"):
            order = _composition_order(spec)   # before building the base
            base = ArkStepper(build_scheme(2, Variant.INTERPOLATION), system, tol)
            return yoshida_compose(base, order)
        return ArkStepper(scheme_from_name(spec), system, tol)
    return _stepper(spec)


# ---------------------------------------------------------------------------
# Reference solution by step-halved order-8 Runge-Kutta
#
# A step of the 12-stage tableau of _rk8 is a linear map of the rows
# (q_n, p_n, F(Q_0), ..., F(Q_11)), each stage reading the rows before its
# force; only the weights depend on the system.  They are those of Lawson's
# integrating-factor method (Lawson, SIAM J. Numer. Anal. 4 (1967);
# Hochbruck & Ostermann, Acta Numerica 19 (2010)): the flow of q' = p,
# p' = -Omega^2 q is an exact rotation per coordinate (free flight where
# omega = 0), and the tableau integrates the remaining force in the frame
# that moves with it.  With a diagonal fast part (omega_sq) that force is
# F1 alone, and the step is limited by how fast F1 varies along the
# rotating trajectory, not by h*omega.  Without one, every coordinate is in
# free flight (omega = 0) and the tableau integrates F1 + F2.  The rotation
# is not what the additive methods do (they apply Gauss quadrature to the
# fast force), so the oracle does not share their error; it imports none of
# their code.
#
# Certification compares a run of n steps with one of 2n.  The two step as
# one pair: each coarse step of 2h is one batched step over both runs' rows
# (the coarse step and the first fine substep, one force call per stage for
# both), then the second fine substep runs alone, 24 force calls where two
# separate runs make 36.  Each run's products go through its own maps, so
# each is bitwise the run it makes alone.
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


def _check_finite(y):
    if not np.all(np.isfinite(y)):
        raise OracleFailureError("reference integration produced NaN/Inf")


def _rk8_final_state(system: SplitForceSystem, state0: PhaseState, duration: float,
                     n_steps: int) -> np.ndarray:
    """(q, p) after ``n_steps`` equal order-8 steps over ``duration`` (row
    0) and after ``n_steps / 2`` steps of twice the size (row 1), as one
    (2, 2d) array; ``n_steps`` must be even.  Integrating-factor steps over
    F1 around the rotations of ``omega_sq``, or, for a system without it,
    over F1 + F2 around free flight (omega = 0); a system with no force
    left steps the exact rotation or free flight.  The coarse run is a
    second member that rides along the fine one, as the comment above
    describes; each row is bitwise the run that member makes alone."""
    if n_steps < 2 or n_steps % 2:
        raise ValueError("n_steps must be even and positive")
    d, n = state0.dimension, _rk8.N_STAGES
    hs = (duration / n_steps, duration / (n_steps // 2))
    if system.omega_sq is None:
        f1, f2 = system.f1, system.f2
        force = f2 if f1 is None else f1 if f2 is None else lambda q: f1(q) + f2(q)
        omega = np.zeros(d)
    else:
        force, omega = system.f1, np.sqrt(system.omega_sq)
    weights = np.stack([_lawson_weights(omega, h) for h in hs])
    # maps[member, o] is output o's (d, (n + 2) d) map of that member's rows
    maps = np.einsum("mojk,kl->mokjl", weights, np.eye(d)).reshape(2, n + 2, d, (n + 2) * d)
    final = maps[:, n:].reshape(2, 2 * d, (n + 2) * d)
    rows = np.empty((2, n + 2, d))
    flat = rows.reshape(2, (n + 2) * d, 1)
    state = flat[:, :2 * d]  # (q_n, p_n) of each member: its first two rows
    state[:, :d, 0], state[:, d:, 0] = state0.q, state0.p
    # Q_i reads the first i + 2 rows
    stage_maps = [np.ascontiguousarray(maps[:, i, :, :(i + 2) * d]) for i in range(1, n)]
    if force is None:  # a step is the exact rotation or free flight
        final, flat, stage_maps = np.ascontiguousarray(final[..., :2 * d]), state, []
    q, new = np.empty((2, d, 1)), np.empty((2, 2 * d, 1))

    def views(k):
        """The views a step of members ``k`` reads and writes, bound to the
        buffers once."""
        stages = [(m[k], flat[k, :(i + 2) * d], q[k], q[k, ..., 0], rows[k, i + 2])
                  for i, m in enumerate(stage_maps, 1)]
        return rows[k, 0], rows[k, 2], stages, final[k], flat[k], new[k], state[k]

    def advance(q_n, f_0, stages, update, r, out, y):
        if force is not None:
            f_0[...] = force(q_n)  # Q_0 = q_n
        for m, r_i, out_i, q_i, f_i in stages:
            np.matmul(m, r_i, out=out_i)
            f_i[...] = force(q_i)
        np.matmul(update, r, out=out)
        y[...] = out

    pair, fine = views(slice(None)), views(0)
    for step in range(n_steps // 2):
        advance(*pair)
        advance(*fine)
        if step % 32 == 0:
            _check_finite(state)
    _check_finite(state)
    return state[..., 0].copy()


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

    The order-8 tableau steps Lawson's integrating-factor method above.
    With ``omega_sq`` set, the fast linear force is taken exactly by one
    rotation per coordinate and the tableau integrates only the slow force;
    otherwise every coordinate is in free flight between the stages and the
    tableau integrates both forces.  Each pass steps a pair of runs, n steps
    and 2n steps, as the two members of one batch (so a (2n, 4n) pair costs
    the force calls of the 4n run alone); until the two agree to ``tol``
    (max-norm, relative to max(1, finer state)), n doubles and the next
    pair runs.  The finer run is returned.  Each level is logged at DEBUG
    with its step count and its agreement with the level before divided by
    ``tol``.  Raises :class:`OracleFailureError` once two successive pairs
    fail to shrink the agreement (roundoff then outgrows the step error),
    naming the best agreement reached, or after ``_MAX_REFINEMENTS`` pairs.
    Independent of the additive-method stepping code.
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
    _log.debug("reference level: %d steps", n)
    best = previous = math.inf
    stalls = 0
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        y, y_coarse = _rk8_final_state(system, state0, duration, n)
        bound = tol * max(1.0, float(np.max(np.abs(y))))
        diff = float(np.max(np.abs(y - y_coarse)))
        agreement = diff / bound
        _log.debug("reference level: %d steps, agreement %.3g tol", n, agreement)
        if diff <= bound:
            d = state0.dimension
            return PhaseState(q=y[:d], p=y[d:], t=T)
        stalls = stalls + 1 if agreement >= previous else 0
        best, previous = min(best, agreement), agreement
        if stalls == 2:
            raise OracleFailureError(
                f"step halving stopped converging at {n} steps: two successive "
                f"halvings did not shrink the agreement; the best reached was "
                f"{best:.3g} times tolerance {tol:g}")
    raise OracleFailureError(
        f"step halving did not certify tolerance {tol:g} within "
        f"{_MAX_REFINEMENTS} refinements ({n} steps)")
