"""Time stepping for split second-order systems  q'' = F1(q) + F2(q).

One step of the additive method advances (q0, p0) through the stage system

    P_i  = p0 + h sum_j ahat[i,j] F1(Q_j) + h sum_k ahat_tilde[i,k] F2(Qt_k)
    Q_i  = q0 + h sum_j a[i,j] P_j
    Qt_k = q0 + h sum_j at[k,j] P_j

    q1 = q0 + h sum_i b_i P_i
    p1 = p0 + h sum_i b_i F1(Q_i) + h sum_k bt_k F2(Qt_k)

The stage unknowns are solved either by plain fixed-point iteration or, when
the fast force is linear (F2 = -Omega^2 q with diagonal Omega^2), by an outer
fixed-point loop over F1 only with the linear block

    [ I      -h At ] [Qt]   [ q0 ]
    [ h W AtH   I  ] [P ] = [ p0 + h Ahat F1(Q) ]

solved exactly per distinct diagonal entry W of Omega^2.  Plain fixed-point
contracts only for h*omega below ~2, so the linear path is the default
whenever the diagonal structure is available.

A pass of that loop is affine in F1, so the block solve is folded into the
tableau once per step size (Hairer & Wanner, Solving ODEs II, IV.8): per
coordinate, Q = c0 + K F1 with K = h^2 a [M^-1]_PP Ahat an s1 x s1 matrix
and c0 = u q0 + v p0 formed once per step, and (q1, p1) is one more affine
map of (q0, p0, F1), plus h b F1(Q) in p1.  A pass then costs one product
with K and one slow-force call; the step never forms P and Qt.

The linear path also steps a batch: q and p of shape (n, d) are n
independent states, and omega_sq of shape (n, d) gives each its own
diagonal.  The stage arrays then hold all n*d coordinates as columns, shape
(s, n*d), and every member converges against its own scale and stops
iterating once it has converged, so it runs as it would alone.

Force callbacks must be vectorized over leading axes: they receive arrays of
shape (..., d) -- (s, d) for one state, (s, n, d) for a batch -- and return
the force row-wise.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

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
    "stage_block",
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
    """A force evaluation returned NaN or Inf for finite input."""


class SingularStageSystemError(StageSolveError):
    """The linear stage block could not be factorized."""


class OracleFailureError(RuntimeError):
    """The reference solver could not certify the requested tolerance."""


@dataclass(frozen=True)
class PhaseState:
    """Positions and momenta at one time.

    ``q`` and ``p`` have shape (d,) for one state, or (n, d) for a batch of
    n states that :class:`ArkStepper` steps together (linear path only).
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
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", float(self.t))

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

    ``tolerance`` is relative to max(1, |q0|_inf, |p0|_inf).  ``mode=None``
    picks linearly-implicit when the system has a diagonal fast part and
    plain fixed-point otherwise.
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


def stage_block(scheme: ArkScheme, h: float, w):
    """The linear stage block [[I, -h At], [h w AtH, I]] of the unknowns
    (Qt, P); an array of w gives one block per entry, shape w.shape + (m, m)."""
    s2, m = scheme.s2, scheme.s1 + scheme.s2
    w = np.asarray(w, dtype=float)
    block = np.broadcast_to(np.eye(m), w.shape + (m, m)).copy()
    block[..., :s2, s2:] = -h * scheme.a_tilde
    block[..., s2:, :s2] = (h * w)[..., None, None] * scheme.a_tilde_hat
    return block


def _member_max(columns, n: int):
    """The largest of each member's entries in ``columns``, shape (n*d,) -> (n,)."""
    # NumPy reduces a short contiguous axis slowly; the transposed copy is
    # reduced along its long leading axis instead
    return np.ascontiguousarray(columns.reshape(n, -1).T).max(axis=0)


class _StageMaps(NamedTuple):
    """One linearly-implicit step at a fixed h as affine maps, per column c
    of the flattened state.  With F1 the slow forces (rows j) that the
    primary stages Q are computed from:

        Q[i, c]        = sum_j start[i, j, c] (q0, p0)[j, c]
                         + sum_j primary[i, j, c] F1[j, c]
        (q1, p1)[i, c] = sum_j update[i, j, c] (q0, p0, F1)[j, c]
                         + (0, h b . F1(Q)[:, c])[i]

    ``solution`` is the (Qt, P) map over (q0, p0, F1) of each distinct
    Omega^2 value, shape (V, s2 + s1, 2 + s1).
    """

    start: np.ndarray      # (s1, 2, N)
    primary: np.ndarray    # (s1, s1, N)
    update: np.ndarray     # (2, 2 + s1, N)
    solution: np.ndarray   # (V, s2 + s1, 2 + s1)


class ArkStepper:
    """One-step map of an additive scheme applied to a split system.

    On the linearly-implicit path a state may be a batch of shape (n, d),
    the shape of the system's omega_sq; see the module docstring.  Holds a
    small cache of folded stage maps (keyed by the step size; the system's
    Omega^2 is fixed).  Instances are cheap to build and must not be shared
    across threads.
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
        if system.omega_sq is not None:
            # one block per distinct entry of Omega^2; _columns maps each
            # coordinate of the flattened state to its block
            self._values, self._columns = np.unique(system.omega_sq.ravel(),
                                                    return_inverse=True)

    # -- linear block ------------------------------------------------------

    def _block_inverses(self, h: float) -> _StageMaps:
        """The stage solve at step size h, folded into affine maps per column.

        Each distinct entry w of Omega^2 has its stage block factorized once;
        solving it against the right-hand side [q0; p0 + h Ahat F1] column by
        column gives (Qt, P) as affine functions of (q0, p0, F1), and with
        them Q = q0 + h a P, q1 = q0 + h b P and p1 - h b F1(Q) = p0 - h w bt Qt.
        The maps are built on the distinct values and gathered to the N
        state columns; see :class:`_StageMaps`.  The cache keeps, per step
        size, the gathered start, primary and update weights (together
        s1^2 + 4 s1 + 4 numbers per column, no more than the (2 s1 - 1)^2 of
        the block inverse for s1 >= 3) and the per-value (Qt, P) solution,
        which only solve_stages gathers.
        """
        cached = self._block_cache.get(h)
        if cached is not None:
            return cached
        scheme = self.scheme
        s1, s2 = scheme.s1, scheme.s2
        blocks = stage_block(scheme, h, self._values)
        # columns (q0, p0, F1_1, ..., F1_s1) of the right-hand side
        rhs = np.zeros((s1 + s2, 2 + s1))
        rhs[:s2, 0] = 1.0
        rhs[s2:, 1] = 1.0
        rhs[s2:, 2:] = h * scheme.a_hat
        solution = np.empty((len(self._values),) + rhs.shape)
        # an exactly singular block raises SingularStageSystemError below;
        # SciPy's warning about its zero pivot would only repeat that
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            for k, w in enumerate(self._values):
                try:
                    lu, piv = lu_factor(blocks[k])
                except (np.linalg.LinAlgError, ValueError) as exc:
                    raise SingularStageSystemError(
                        f"stage block factorization failed for h={h}, omega^2={w}",
                        self._rows_with(k)) from exc
                if np.min(np.abs(np.diag(lu))) < 1e-14 * max(1.0, float(np.max(np.abs(lu)))):
                    raise SingularStageSystemError(
                        f"stage block is numerically singular for h={h}, omega^2={w}",
                        self._rows_with(k))
                solution[k] = lu_solve((lu, piv), rhs)
        Qt, P = solution[:, :s2], solution[:, s2:]
        primary = h * (scheme.a @ P)
        primary[:, :, 0] += 1.0
        update = np.stack((h * (scheme.b @ P),
                           (-h * self._values)[:, None] * (scheme.b_tilde @ Qt)), axis=1)
        update[:, 0, 0] += 1.0
        update[:, 1, 1] += 1.0
        maps = _StageMaps(start=self._gather(primary[:, :, :2]),
                          primary=self._gather(primary[:, :, 2:]),
                          update=self._gather(update), solution=solution)
        if len(self._block_cache) > 16:
            self._block_cache.clear()
        self._block_cache[h] = maps
        return maps

    def _gather(self, by_value):
        """(V, ...) weights of the distinct values as (..., N) state columns."""
        return np.take(np.moveaxis(by_value, 0, -1), self._columns, axis=-1)

    def _rows_with(self, k: int):
        """Rows of omega_sq (0 for a single diagonal) holding its k-th value."""
        hit = (self._columns == k).reshape(-1, self.system.dimension)
        return np.flatnonzero(hit.any(axis=1))

    # -- stage solvers -----------------------------------------------------

    def solve_stages(self, state: PhaseState, h: float):
        """Return (Q, P, Q_tilde, iterations) for one step of size h; the
        stage arrays have shape (stages,) + state shape."""
        if self.mode is SolverMode.LINEARLY_IMPLICIT:
            maps, x, Q, _, iteration = self._linearly_implicit_full(state, h)
            s2 = self.scheme.s2
            sol = np.einsum("ijc,jc->ic", self._gather(maps.solution), x)
            shape = (-1,) + state.q.shape
            return (Q.reshape(shape), sol[s2:].reshape(shape), sol[:s2].reshape(shape),
                    iteration)
        Q, P, Qt, iteration, _, _ = self._fixed_point_full(state, h)
        return Q, P, Qt, iteration

    def _fixed_point_full(self, state, h):
        scheme, system, cfg = self.scheme, self.system, self.config
        q0, p0 = state.q, state.p
        if q0.ndim != 1:
            raise ValueError("fixed-point mode steps one state, not a batch")
        scale = max(1.0, float(np.max(np.abs(q0))), float(np.max(np.abs(p0))))
        P = np.tile(p0, (scheme.s1, 1))
        Q = q0 + h * np.outer(scheme.c, p0)
        Qt = q0 + h * np.outer(scheme.c_tilde, p0)
        F1 = system.slow_force(Q)
        F2 = system.fast_force(Qt)
        residual = math.inf
        for iteration in range(1, cfg.max_iterations + 1):
            if not (np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))):
                if iteration == 1:
                    raise NumericalFailureError("force evaluation returned NaN/Inf", (0,))
                raise NonconvergenceError(
                    f"fixed-point stage iteration diverged after {iteration} iterations",
                    residual=math.inf, iterations=iteration, members=(0,))
            P_new = p0 + h * (scheme.a_hat @ F1 + scheme.a_tilde_hat @ F2)
            Q_new = q0 + h * (scheme.a @ P_new)
            Qt_new = q0 + h * (scheme.a_tilde @ P_new)
            residual = max(
                float(np.max(np.abs(P_new - P))),
                float(np.max(np.abs(Q_new - Q))),
                float(np.max(np.abs(Qt_new - Qt))),
            )
            P, Q, Qt = P_new, Q_new, Qt_new
            F1 = system.slow_force(Q)
            F2 = system.fast_force(Qt)
            if residual <= cfg.tolerance * scale:
                return Q, P, Qt, iteration, F1, F2
            if residual > _DIVERGENCE_FACTOR * scale:
                raise NonconvergenceError(
                    f"fixed-point stage iteration diverged after {iteration} iterations",
                    residual=residual, iterations=iteration, members=(0,))
        raise NonconvergenceError(
            f"stage iteration did not reach tolerance {cfg.tolerance:g} "
            f"within {cfg.max_iterations} iterations (residual {residual:.3e})",
            residual=residual, iterations=cfg.max_iterations, members=(0,))

    def _linearly_implicit_full(self, state, h):
        """Iterate the primary stages with the state flattened to N = n*d
        columns.  Returns (maps, x, Q, F1(Q), iterations): the step's
        :class:`_StageMaps`, their inputs x = (q0, p0, F1) stacked to shape
        (2 + s1, N), where F1 are the forces Q was computed from, and the
        converged Q and its forces, shape (s1, N)."""
        scheme, system, cfg = self.scheme, self.system, self.config
        shape = state.q.shape
        if shape != system.omega_sq.shape:
            raise ValueError(f"state shape {shape} does not match omega_sq "
                             f"{system.omega_sq.shape}")
        n = shape[0] if len(shape) == 2 else 1
        s1 = scheme.s1
        q0, p0 = state.q.reshape(-1), state.p.reshape(-1)
        qp = np.stack((q0, p0))
        scale = _member_max(np.abs(qp).max(axis=0), n)
        np.maximum(scale, 1.0, out=scale)
        limit, blowup = cfg.tolerance * scale, _DIVERGENCE_FACTOR * scale
        maps = self._block_inverses(h)
        c0 = np.einsum("ijc,jc->ic", maps.start, qp)

        def slow_force(Q):
            return system.slow_force(Q.reshape((len(Q),) + shape)).reshape(len(Q), -1)

        # second-order Taylor predictor for the primary stages
        acc = (system.slow_force(state.q) + system.fast_force(state.q)).reshape(-1)
        Q = q0 + h * np.outer(scheme.c, p0) + (0.5 * h * h) * np.outer(scheme.c ** 2, acc)
        F1 = slow_force(Q)
        source = None   # the forces Q was computed from
        done = None     # the members that have converged, once some but not all have
        for iteration in range(1, cfg.max_iterations + 1):
            if not np.isfinite(F1).all():
                bad = ~np.all(np.isfinite(F1).reshape(s1, n, -1), axis=(0, 2))
                if done is not None:
                    bad &= ~done
                if iteration == 1:
                    raise NumericalFailureError("force evaluation returned NaN/Inf",
                                                np.flatnonzero(bad))
                if bad.any():
                    raise NonconvergenceError(
                        f"stage iteration diverged after {iteration} iterations",
                        residual=math.inf, iterations=iteration,
                        members=np.flatnonzero(bad))
            Q_new = np.einsum("ijc,jc->ic", maps.primary, F1)
            Q_new += c0
            change = Q_new - Q
            residual = _member_max(np.abs(change, out=change).max(axis=0), n)
            F1_new = slow_force(Q_new)
            if done is not None:
                # converged members keep the stages they converged with
                frozen = np.repeat(done, len(q0) // n)
                np.copyto(Q_new, Q, where=frozen)
                np.copyto(F1_new, F1, where=frozen)
                F1 = np.where(frozen, source, F1)
                residual[done] = 0.0
            Q, source, F1 = Q_new, F1, F1_new
            # count_nonzero is much cheaper than all/any on a few members
            converged = residual <= limit
            n_converged = np.count_nonzero(converged)
            if n_converged == n:
                return maps, np.concatenate((qp, source)), Q, F1, iteration
            diverged = residual > blowup
            if np.count_nonzero(diverged):
                raise NonconvergenceError(
                    f"slow-force iteration diverged after {iteration} iterations",
                    residual=float(np.max(residual[diverged])), iterations=iteration,
                    members=np.flatnonzero(diverged))
            if n_converged:
                done = converged
        worst = float(np.max(residual))
        raise NonconvergenceError(
            f"stage iteration did not reach tolerance {cfg.tolerance:g} "
            f"within {cfg.max_iterations} iterations (residual {worst:.3e})",
            residual=worst, iterations=cfg.max_iterations,
            members=np.flatnonzero(~converged))

    # -- stepping ----------------------------------------------------------

    def step(self, state: PhaseState, h: float) -> PhaseState:
        return self.step_with_iterations(state, h)[0]

    def step_with_iterations(self, state: PhaseState, h: float):
        """The next state and the number of stage-loop passes (for a batch,
        the largest over its members)."""
        shape = state.q.shape
        if self.mode is SolverMode.LINEARLY_IMPLICIT:
            maps, x, _, F1, iterations = self._linearly_implicit_full(state, h)
            q1, p1 = np.einsum("ijc,jc->ic", maps.update, x)
            p1 += (h * self.scheme.b) @ F1
            return (PhaseState(q=q1.reshape(shape), p=p1.reshape(shape), t=state.t + h),
                    iterations)
        scheme = self.scheme
        _, P, _, iterations, F1, F2 = self._fixed_point_full(state, h)
        q1 = state.q + h * (scheme.b @ P)
        p1 = state.p + h * (scheme.b @ F1 + scheme.b_tilde @ F2)
        return PhaseState(q=q1, p=p1, t=state.t + h), iterations


def ark_step(scheme: ArkScheme, system: SplitForceSystem, state: PhaseState,
             h: float, config: StageSolveConfig | None = None) -> PhaseState:
    """Advance one step of size h.  See ArkStepper for the stage equations."""
    return ArkStepper(scheme, system, config).step(state, h)


def solve_stages(scheme: ArkScheme, system: SplitForceSystem, state: PhaseState,
                 h: float, config: StageSolveConfig | None = None):
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
            raise NonconvergenceError(
                f"step {i} (t={state.t:g}): {exc}", residual=exc.residual,
                iterations=exc.iterations, step_index=i, members=exc.members) from exc
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
    """Symmetric composition of a base one-step map with fractional substeps."""

    def __init__(self, base, substeps):
        counted = getattr(base, "step_with_iterations", None)
        if counted is None:
            plain = base.step if hasattr(base, "step") else base

            def counted(state, h):
                return plain(state, h), 0
        self._step_fn = counted
        self.substeps = tuple(float(w) for w in substeps)

    def step(self, state: PhaseState, h: float) -> PhaseState:
        return self.step_with_iterations(state, h)[0]

    def step_with_iterations(self, state: PhaseState, h: float):
        """The composed step and the stage iterations of all its substeps
        (0 for a base without iteration counts)."""
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
# The 12-stage tableau of _rk8 integrates the full right-hand side when the
# system has no diagonal fast part.  When it has one (omega_sq), the flow of
# q' = p, p' = -Omega^2 q is an exact rotation per coordinate (free flight
# where omega = 0), and the tableau integrates only the slow force in the
# frame that rotates with it: Lawson's integrating-factor Runge-Kutta method
# (Lawson, SIAM J. Numer. Anal. 4 (1967); Hochbruck & Ostermann, Acta
# Numerica 19 (2010)).  Its step is then limited by how fast F1 varies along
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


def _lawson_maps(omega, h: float):
    """Matrices of one integrating-factor step of size h.

    With c(t) = cos(omega t) and s(t) = sin(omega t)/omega per coordinate, the
    step of Lawson's method on the tableau (A, b, c) reads the rows
    r = (q_n, p_n, F1(Q_0), ..., F1(Q_11)) and computes

        Q_i     = c(c_i h) q_n + s(c_i h) p_n + h sum_j a_ij s((c_i - c_j) h) F1(Q_j)
        q_{n+1} = c(h) q_n + s(h) p_n + h sum_j b_j s((1 - c_j) h) F1(Q_j)
        p_{n+1} = -omega sin(omega h) q_n + c(h) p_n + h sum_j b_j c((1 - c_j) h) F1(Q_j)

    since the rotations compose: exp(c_i h L) exp(-c_j h L) = exp((c_i - c_j) h L).
    Returns ``stages``, where stages[i - 1] is the (d, (i + 2) d) matrix taking
    the first i + 2 rows to Q_i (Q_0 = q_n), and the (2d, 14 d) matrix of
    (q_{n+1}, p_{n+1}).
    """
    n, c = _rk8.N_STAGES, _rk8.C
    d = omega.shape[-1]
    cos_c, sin_c, _ = _flow_factors(omega, c * h)
    _, sin_cc, _ = _flow_factors(omega, np.subtract.outer(c, c) * h)
    cos_h, sin_h, wsin_h = _flow_factors(omega, h)
    cos_b, sin_b, _ = _flow_factors(omega, (1.0 - c) * h)
    hb = (h * _rk8.B)[:, None]
    # weights[o, j]: the (d,) factor of row j in output o (Q_0..Q_11, q, p)
    weights = np.zeros((n + 2, n + 2, d))
    weights[:n, 0], weights[:n, 1] = cos_c, sin_c
    weights[:n, 2:] = (h * _rk8.A)[..., None] * sin_cc
    weights[n, 0], weights[n, 1], weights[n, 2:] = cos_h, sin_h, hb * sin_b
    weights[n + 1, 0], weights[n + 1, 1], weights[n + 1, 2:] = -wsin_h, cos_h, hb * cos_b
    maps = np.einsum("ojk,kl->okjl", weights, np.eye(d)).reshape(n + 2, d, (n + 2) * d)
    stages = [np.ascontiguousarray(maps[i, :, :(i + 2) * d]) for i in range(1, n)]
    return stages, maps[n:].reshape(2 * d, (n + 2) * d)


def _lawson_steps(system: SplitForceSystem, y: np.ndarray, h: float,
                  n_steps: int) -> np.ndarray:
    d = y.size // 2
    stage_maps, final = _lawson_maps(np.sqrt(system.omega_sq), h)
    f1 = system.f1
    rows = np.empty((_rk8.N_STAGES + 2, d))
    flat = rows.reshape(-1)
    state = flat[:2 * d]  # (q_n, p_n): the first two rows
    state[...] = y
    # Q_i reads the first i + 2 rows; the views stay bound to the buffers
    stages = [(m, flat[:m.shape[1]], rows[i + 2]) for i, m in enumerate(stage_maps, 1)]
    if f1 is None:  # a step is the exact rotation
        final, flat, stages = np.ascontiguousarray(final[:, :2 * d]), state, ()
    q, new = np.empty(d), np.empty(2 * d)
    for step in range(n_steps):
        if f1 is not None:
            rows[2] = f1(rows[0])  # Q_0 = q_n
        for m, r, f_i in stages:
            np.matmul(m, r, out=q)
            f_i[...] = f1(q)
        np.matmul(final, flat, out=new)
        state[...] = new
        if step % 64 == 0:
            _check_finite(state)
    return state.copy()


def _plain_steps(system: SplitForceSystem, y: np.ndarray, h: float,
                 n_steps: int) -> np.ndarray:
    d = y.size // 2
    ha, hb = h * _rk8.A, h * _rk8.B
    k = np.empty((_rk8.N_STAGES, 2 * d))
    stage = np.empty(2 * d)
    incr = np.empty(2 * d)
    f1, f2 = system.f1, system.f2
    kq, kp = list(k[:, :d]), list(k[:, d:])
    # stage i is y + (h A[i, :i]) @ k[:i]; the views stay bound to the buffers
    stages = [(ha[i, :i], k[:i]) for i in range(1, _rk8.N_STAGES)]

    def derivative(q, p, i):
        """k[i] = (p, F1(q) + F2(q)), written into the rows of k."""
        kq[i][...] = p
        kp[i][...] = 0.0 if f1 is None else f1(q)
        if f2 is not None:
            kp[i] += f2(q)

    y_q, y_p, stage_q, stage_p = y[:d], y[d:], stage[:d], stage[d:]
    for step in range(n_steps):
        derivative(y_q, y_p, 0)
        for i, (ha_i, k_i) in enumerate(stages, start=1):
            np.matmul(ha_i, k_i, out=stage)
            stage += y
            derivative(stage_q, stage_p, i)
        np.matmul(hb, k, out=incr)
        y += incr
        if step % 64 == 0:
            _check_finite(y)
    return y


def _check_finite(y):
    if not np.all(np.isfinite(y)):
        raise OracleFailureError("reference integration produced NaN/Inf")


def _rk8_final_state(system: SplitForceSystem, state0: PhaseState, duration: float,
                     n_steps: int) -> np.ndarray:
    """(q, p) after ``n_steps`` equal order-8 steps over ``duration``, as one
    (2d,) array: integrating-factor steps when the system has ``omega_sq``,
    plain Runge-Kutta steps otherwise."""
    y = np.concatenate([state0.q, state0.p])
    steps = _plain_steps if system.omega_sq is None else _lawson_steps
    y = steps(system, y, duration / n_steps, n_steps)
    _check_finite(y)
    return y


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


def reference_solve(system: SplitForceSystem, state0: PhaseState, T: float,
                    tol: float = 1e-12, max_refinements: int = 24) -> PhaseState:
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
    if max_refinements < 1:
        raise ValueError("max_refinements must be at least 1")
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
    for _ in range(max_refinements):
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
        f"{max_refinements} refinements ({n} steps)")
