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

Force callbacks must be vectorized over leading axes: they receive arrays of
shape (..., d) and return the force row-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

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


class NonconvergenceError(RuntimeError):
    """Stage iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual=math.inf, iterations=0, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


class NumericalFailureError(RuntimeError):
    """A force evaluation returned NaN or Inf for finite input."""


class SingularStageSystemError(RuntimeError):
    """The linear stage block could not be factorized."""


class OracleFailureError(RuntimeError):
    """The reference solver could not certify the requested tolerance."""


@dataclass(frozen=True)
class PhaseState:
    """Positions and momenta at one time."""

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        q = np.atleast_1d(np.array(self.q, dtype=float))
        p = np.atleast_1d(np.array(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dimension(self) -> int:
        return len(self.q)


def _probe_points(d: int):
    rng = np.random.default_rng(1729)
    return np.stack([np.ones(d), np.linspace(-1.0, 1.0, d), rng.standard_normal(d)])


@dataclass(frozen=True)
class SplitForceSystem:
    """The two force fields of a split mechanical system.

    ``f1`` is the slow (typically nonlinear) force, ``f2`` the fast one.
    When the fast force is linear, pass the diagonal of Omega^2 as
    ``omega_sq``; ``f2`` is then derived automatically (or cross-checked on
    probe points if given explicitly).  Both callbacks must broadcast over
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
            if w.shape != (self.dimension,):
                raise ValueError("omega_sq must be the diagonal of Omega^2, length d")
            if np.any(w < 0.0):
                raise ValueError("omega_sq entries must be nonnegative")
            w.setflags(write=False)
            object.__setattr__(self, "omega_sq", w)
            if self.f2 is None:
                object.__setattr__(self, "f2", lambda q: -w * q)
            else:
                probes = _probe_points(self.dimension)
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
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# Divergence guard for the fixed-point loop: once updates exceed this factor
# times the state scale, further iterations cannot recover.
_DIVERGENCE_FACTOR = 1e12


class ArkStepper:
    """One-step map of an additive scheme applied to a split system.

    Holds a small factorization cache for the linearly-implicit stage solve
    (keyed by the step size; the system's Omega^2 is fixed).  Instances are
    cheap to build and must not be shared across threads.
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
        # step-size keyed cache of the solved linear blocks; compositions
        # alternate between a handful of substep sizes
        self._block_cache = {}
        if system.omega_sq is not None:
            values, inverse = np.unique(system.omega_sq, return_inverse=True)
            self._groups = [np.nonzero(inverse == k)[0] for k in range(len(values))]
            self._group_values = values
        else:
            self._groups = None

    # -- linear block ------------------------------------------------------

    def _block_inverses(self, h: float):
        cached = self._block_cache.get(h)
        if cached is not None:
            return cached
        s1, s2 = self.scheme.s1, self.scheme.s2
        n = s1 + s2
        inverses = []
        for w in self._group_values:
            block = np.eye(n)
            block[:s2, s2:] = -h * self.scheme.a_tilde
            block[s2:, :s2] = h * w * self.scheme.a_tilde_hat
            try:
                lu, piv = lu_factor(block)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise SingularStageSystemError(
                    f"stage block factorization failed for h={h}, omega^2={w}") from exc
            if np.min(np.abs(np.diag(lu))) < 1e-14 * max(1.0, float(np.max(np.abs(lu)))):
                raise SingularStageSystemError(
                    f"stage block is numerically singular for h={h}, omega^2={w}")
            inverses.append(lu_solve((lu, piv), np.eye(n)))
        if len(self._block_cache) > 16:
            self._block_cache.clear()
        self._block_cache[h] = inverses
        return inverses

    # -- stage solvers -----------------------------------------------------

    def solve_stages(self, state: PhaseState, h: float):
        """Return (Q, P, Q_tilde, iterations) for one step of size h."""
        if self.mode is SolverMode.LINEARLY_IMPLICIT:
            return self._solve_linearly_implicit(state, h)
        return self._solve_fixed_point(state, h)

    def _scale(self, state: PhaseState) -> float:
        return max(1.0, float(np.max(np.abs(state.q))), float(np.max(np.abs(state.p))))

    def _solve_fixed_point(self, state, h):
        Q, P, Qt, iteration, _, _ = self._fixed_point_full(state, h)
        return Q, P, Qt, iteration

    def _fixed_point_full(self, state, h):
        scheme, system, cfg = self.scheme, self.system, self.config
        q0, p0 = state.q, state.p
        scale = self._scale(state)
        P = np.tile(p0, (scheme.s1, 1))
        Q = q0 + h * np.outer(scheme.c, p0)
        Qt = q0 + h * np.outer(scheme.c_tilde, p0)
        F1 = system.slow_force(Q)
        F2 = system.fast_force(Qt)
        residual = math.inf
        for iteration in range(1, cfg.max_iterations + 1):
            if not (np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))):
                if iteration == 1:
                    raise NumericalFailureError("force evaluation returned NaN/Inf")
                raise NonconvergenceError(
                    f"fixed-point stage iteration diverged after {iteration} iterations",
                    residual=math.inf, iterations=iteration)
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
                    residual=residual, iterations=iteration)
        raise NonconvergenceError(
            f"stage iteration did not reach tolerance {cfg.tolerance:g} "
            f"within {cfg.max_iterations} iterations (residual {residual:.3e})",
            residual=residual, iterations=cfg.max_iterations)

    def _solve_linearly_implicit(self, state, h):
        Q, P, Qt, iteration, _ = self._linearly_implicit_full(state, h)
        return Q, P, Qt, iteration

    def _linearly_implicit_full(self, state, h):
        """Also returns the slow force at the converged primary stages."""
        scheme, system, cfg = self.scheme, self.system, self.config
        q0, p0 = state.q, state.p
        s1, s2 = scheme.s1, scheme.s2
        scale = self._scale(state)
        invs = self._block_inverses(h)
        rhs = np.empty((s1 + s2, len(q0)))
        sol = np.empty_like(rhs)
        # second-order Taylor predictor for the primary stages
        F1 = system.slow_force(q0)
        acc = F1 + system.fast_force(q0)
        Q = q0 + h * np.outer(scheme.c, p0) + (0.5 * h * h) * np.outer(scheme.c ** 2, acc)
        F1 = system.slow_force(Q)
        residual = math.inf
        for iteration in range(1, cfg.max_iterations + 1):
            if not np.all(np.isfinite(F1)):
                if iteration == 1:
                    raise NumericalFailureError("force evaluation returned NaN/Inf")
                raise NonconvergenceError(
                    f"stage iteration diverged after {iteration} iterations",
                    residual=math.inf, iterations=iteration)
            rhs[:s2] = q0
            rhs[s2:] = p0 + h * (scheme.a_hat @ F1)
            for inv, cols in zip(invs, self._groups):
                sol[:, cols] = inv @ rhs[:, cols]
            P = sol[s2:]
            Q_new = q0 + h * (scheme.a @ P)
            residual = float(np.max(np.abs(Q_new - Q)))
            Q = Q_new
            F1 = system.slow_force(Q)
            if residual <= cfg.tolerance * scale:
                return Q, P, sol[:s2].copy(), iteration, F1
            if residual > _DIVERGENCE_FACTOR * scale:
                raise NonconvergenceError(
                    f"slow-force iteration diverged after {iteration} iterations",
                    residual=residual, iterations=iteration)
        raise NonconvergenceError(
            f"stage iteration did not reach tolerance {cfg.tolerance:g} "
            f"within {cfg.max_iterations} iterations (residual {residual:.3e})",
            residual=residual, iterations=cfg.max_iterations)

    # -- stepping ----------------------------------------------------------

    def step(self, state: PhaseState, h: float) -> PhaseState:
        return self.step_with_iterations(state, h)[0]

    def step_with_iterations(self, state: PhaseState, h: float):
        scheme, system = self.scheme, self.system
        if self.mode is SolverMode.LINEARLY_IMPLICIT:
            _, P, Qt, iterations, F1 = self._linearly_implicit_full(state, h)
            F2 = system.fast_force(Qt)
        else:
            _, P, Qt, iterations, F1, F2 = self._fixed_point_full(state, h)
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
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for row in range(len(self)):
                step = row * self.stride - 1
                iters = int(self.stage_iterations[step]) if row > 0 else 0
                cells = [format(self.times[row], ".17g")]
                cells += [format(x, ".17g") for x in self.qs[row]]
                cells += [format(x, ".17g") for x in self.ps[row]]
                cells.append(str(iters))
                fh.write(",".join(cells) + "\n")


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
                iterations=exc.iterations, step_index=i) from exc
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
# ---------------------------------------------------------------------------

def _rk8_final_state(system: SplitForceSystem, state0: PhaseState, duration: float,
                     n_steps: int) -> np.ndarray:
    d = state0.dimension
    h = duration / n_steps
    ha, hb = h * _rk8.A, h * _rk8.B
    y = np.concatenate([state0.q, state0.p])
    k = np.empty((_rk8.N_STAGES, 2 * d))
    stage = np.empty(2 * d)
    incr = np.empty(2 * d)
    wq = np.empty(d)
    f1, f2, w = system.f1, system.f2, system.omega_sq
    kq, kp = list(k[:, :d]), list(k[:, d:])
    # stage i is y + (h A[i, :i]) @ k[:i]; the views stay bound to the buffers
    stages = [(ha[i, :i], k[:i]) for i in range(1, _rk8.N_STAGES)]

    def derivative(q, p, i):
        """k[i] = (p, F1(q) + F2(q)), written into the rows of k."""
        kq[i][...] = p
        if w is not None:
            np.multiply(w, q, out=wq)
            if f1 is None:
                np.negative(wq, out=kp[i])
            else:
                np.subtract(f1(q), wq, out=kp[i])
        else:
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
        if step % 64 == 0 and not np.all(np.isfinite(y)):
            raise OracleFailureError("reference integration produced NaN/Inf")
    if not np.all(np.isfinite(y)):
        raise OracleFailureError("reference integration produced NaN/Inf")
    return y


def _initial_step_count(system: SplitForceSystem, duration: float, tol: float) -> int:
    n = max(64, int(math.ceil(8.0 * abs(duration))))
    if system.omega_sq is not None:
        w_max = math.sqrt(float(np.max(system.omega_sq)))
        if w_max > 0.0:
            # size h*omega so the first halving comparison already meets tol;
            # the measured global error on oscillatory problems is about
            # 4e-8 * omega * T * (h*omega)^8, padded by two orders here
            target = (tol / max(1e-300, 3.5e-6 * w_max * abs(duration))) ** 0.125
            target = min(0.5, max(0.01, target))
            n = max(n, int(math.ceil(abs(duration) * w_max / target)))
    return n


def reference_solve(system: SplitForceSystem, state0: PhaseState, T: float,
                    tol: float = 1e-12, max_refinements: int = 24) -> PhaseState:
    """State at time T by fixed-step order-8 integration with step halving.

    The step count doubles until two successive runs agree to ``tol``
    (max-norm, relative to max(1, final state)); the finer run is returned.
    Independent of the additive-method stepping code.
    """
    duration = T - state0.t
    if not math.isfinite(duration):
        raise ValueError("T must be finite")
    if duration == 0.0:
        return state0
    n = _initial_step_count(system, duration, tol)
    y_prev = _rk8_final_state(system, state0, duration, n)
    for _ in range(max_refinements):
        n *= 2
        y = _rk8_final_state(system, state0, duration, n)
        scale = max(1.0, float(np.max(np.abs(y))))
        if float(np.max(np.abs(y - y_prev))) <= tol * scale:
            d = state0.dimension
            return PhaseState(q=y[:d], p=y[d:], t=T)
        y_prev = y
    raise OracleFailureError(
        f"step halving did not certify tolerance {tol:g} within "
        f"{max_refinements} refinements ({n} steps)")
