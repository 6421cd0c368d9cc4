"""The Fermi-Pasta-Ulam-Tsingou chain and its experiment drivers.

2*ell unit masses joined by alternating stiff linear springs (frequency
omega) and soft quartic springs.  With q = [q_s, q_f] the concatenation of
slow and fast variables,

    H(q, p) = 1/2 |p|^2 + omega^2/2 |q_f|^2
              + 1/4 [ (q_s1 - q_f1)^4
                      + sum_{i<ell} (q_s,i+1 - q_f,i+1 - q_s,i - q_f,i)^4
                      + (q_s,ell + q_f,ell)^4 ].

The quartic part supplies the slow force F1, the quadratic part the linear
fast force F2 = -Omega^2 q with Omega^2 = diag(0, ..., 0, omega^2, ..., omega^2).
The oscillatory energy I_i = p_f,i^2/2 + omega^2 q_f,i^2/2 of each stiff
spring is an adiabatic invariant; resonance sweeps and order-reduction
studies track how well the integrators preserve H and I.

The ell + 1 elongations of the soft springs are linear in q, e = E q, so
the quartic part is V = 1/4 sum e^4 and the slow force is F1 = -E^T e^3.
E is applied as two constant +-1 factors: first q -> (u, v) with
u = q_s - q_f and v = q_s + q_f, then (u, v) -> e with e_1 = u_1,
e_i+1 = u_i+1 - v_i and e_ell+1 = v_ell.  Each output of either factor,
and each entry of -E^T e^3, is then a sum of at most two +-1 terms, which
rounds correctly whatever order the matrix product adds it in.  A single E
would have four terms in its middle rows, and a batch of states would no
longer give bitwise the forces of the states taken one at a time.  Inputs
of any leading shape are flattened to one row per state before the
products: one 2-d product is much cheaper than a stack of small ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from symparc.integrator import (
    PhaseState,
    SplitForceSystem,
    StageSolveConfig,
    StageSolveError,
    integrate,
    make_stepper,
    reference_solve,
)

__all__ = [
    "FputParams",
    "EnergyBreakdown",
    "EnergyHistory",
    "SweepResult",
    "ReductionRow",
    "ReductionTable",
    "fput_system",
    "paper_initial_state",
    "energy_breakdown",
    "experiment_energy",
    "experiment_resonance_sweep",
    "experiment_order_reduction",
    "convergence_errors",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class FputParams:
    """ell stiff springs of frequency omega (dimension is 2*ell)."""

    ell: int = 3
    omega: float = 50.0

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")

    @property
    def dimension(self) -> int:
        return 2 * self.ell


@functools.lru_cache(maxsize=None)
def _chain_matrices(ell: int):
    """The constant factors of the elongation map, as right-multipliers of
    row vectors: q @ to_uv = (u, v), (u, v) @ to_e = e, e^3 @ from_g = F1."""
    i = np.arange(ell)
    to_uv = np.zeros((2 * ell, 2 * ell))
    to_uv[i, i] = to_uv[i, ell + i] = to_uv[ell + i, ell + i] = 1.0
    to_uv[ell + i, i] = -1.0
    to_e = np.zeros((2 * ell, ell + 1))
    to_e[i, i] = 1.0
    to_e[ell + i, i + 1] = -1.0
    to_e[2 * ell - 1, ell] = 1.0
    from_g = -(to_uv @ to_e).T
    for m in (to_uv, to_e, from_g):
        m.setflags(write=False)
    return to_uv, to_e, from_g


def _extensions(q, ell: int):
    """Spring elongations e = E q of the quartic part, one row per state."""
    to_uv, to_e, _ = _chain_matrices(ell)
    return q.reshape(-1, 2 * ell).dot(to_uv).dot(to_e)


def _quartic_potential(q, ell: int):
    q = np.asarray(q)
    e = _extensions(q, ell)
    e *= e
    return 0.25 * np.sum(e * e, axis=-1).reshape(q.shape[:-1])


def _slow_force(q, ell: int):
    """F1 = -E^T e^3, broadcast over leading axes."""
    q = np.asarray(q)
    g = _extensions(q, ell)
    g *= g * g
    return g.dot(_chain_matrices(ell)[2]).reshape(q.shape)


def _chain_system(ell: int, omegas, hamiltonian=None) -> SplitForceSystem:
    """The chain with stiff frequency ``omegas``: a scalar for one chain, an
    array of n for a batch of n chains (omega_sq of shape (n, 2*ell))."""
    w2 = np.asarray(omegas, dtype=float) ** 2
    omega_sq = np.zeros(w2.shape + (2 * ell,))
    omega_sq[..., ell:] = w2[..., None]

    def f1(q):
        return _slow_force(q, ell)

    return SplitForceSystem(dimension=2 * ell, f1=f1, omega_sq=omega_sq,
                            hamiltonian=hamiltonian)


def fput_system(params: FputParams) -> SplitForceSystem:
    """Split system for the chain; forces broadcast over leading axes."""
    ell = params.ell
    w2 = params.omega ** 2

    def hamiltonian(q, p):
        return (0.5 * float(p @ p) + 0.5 * w2 * float(q[ell:] @ q[ell:])
                + float(_quartic_potential(q, ell)))

    return _chain_system(ell, params.omega, hamiltonian)


def paper_initial_state(params: FputParams) -> PhaseState:
    """q_s1 = 1, p_s1 = 1, q_f1 = 1/omega, p_f1 = 1, everything else zero."""
    q = np.zeros(params.dimension)
    p = np.zeros(params.dimension)
    q[0] = 1.0
    q[params.ell] = 1.0 / params.omega
    p[0] = 1.0
    p[params.ell] = 1.0
    return PhaseState(q=q, p=p, t=0.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total energy H and the oscillatory energies I_i of the stiff springs."""

    hamiltonian: float
    oscillatory: np.ndarray
    total_oscillatory: float


def energy_breakdown(params: FputParams, state: PhaseState) -> EnergyBreakdown:
    ell = params.ell
    if state.dimension != params.dimension:
        raise ValueError(f"state dimension {state.dimension} != 2*ell = {params.dimension}")
    qf = state.q[ell:]
    pf = state.p[ell:]
    osc = 0.5 * pf ** 2 + 0.5 * params.omega ** 2 * qf ** 2
    h = (0.5 * float(state.p @ state.p)
         + 0.5 * params.omega ** 2 * float(qf @ qf)
         + float(_quartic_potential(state.q, ell)))
    return EnergyBreakdown(hamiltonian=h, oscillatory=osc,
                           total_oscillatory=float(np.sum(osc)))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyHistory:
    """H and I_i recorded at every step of one run."""

    times: np.ndarray
    hamiltonian: np.ndarray
    oscillatory: np.ndarray   # (n_records, ell)

    @property
    def energy_error(self) -> np.ndarray:
        return np.abs(self.hamiltonian - self.hamiltonian[0])

    @property
    def total_oscillatory(self) -> np.ndarray:
        return self.oscillatory.sum(axis=1)

    def write_csv(self, path):
        ell = self.oscillatory.shape[1]
        header = "t,H_err," + ",".join(f"I{i + 1}" for i in range(ell)) + ",I_total"
        err = self.energy_error
        total = self.total_oscillatory
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for i in range(len(self.times)):
                cells = [format(self.times[i], ".17g"), format(err[i], ".17g")]
                cells += [format(x, ".17g") for x in self.oscillatory[i]]
                cells.append(format(total[i], ".17g"))
                fh.write(",".join(cells) + "\n")


def experiment_energy(scheme, params: FputParams, h: float, T: float,
                      config: StageSolveConfig | None = None) -> EnergyHistory:
    """Integrate from the standard initial state, recording H and I_i per step."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if not T >= 0.0:
        raise ValueError("T must be nonnegative")
    system = fput_system(params)
    state0 = paper_initial_state(params)
    n_steps = int(round(T / h)) if T > 0 else 0
    times = np.empty(n_steps + 1)
    hams = np.empty(n_steps + 1)
    oscs = np.empty((n_steps + 1, params.ell))
    b0 = energy_breakdown(params, state0)
    times[0], hams[0], oscs[0] = 0.0, b0.hamiltonian, b0.oscillatory
    cursor = 1

    def observer(state):
        nonlocal cursor
        b = energy_breakdown(params, state)
        times[cursor], hams[cursor], oscs[cursor] = state.t, b.hamiltonian, b.oscillatory
        cursor += 1

    integrate(scheme, system, state0, h, n_steps, config=config,
              observer=observer, stride=max(1, n_steps))
    return EnergyHistory(times=times, hamiltonian=hams, oscillatory=oscs)


@dataclass(frozen=True)
class SweepResult:
    """Per-frequency maxima of |H - H0| and |omega I - omega I0|."""

    h_omega_over_pi: np.ndarray
    max_energy_error: np.ndarray
    max_scaled_i_deviation: np.ndarray
    failures: tuple = ()

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("h_omega_over_pi,max_H_err,max_scaled_I_dev\n")
            for i in range(len(self.h_omega_over_pi)):
                fh.write(",".join(format(x, ".17g") for x in (
                    self.h_omega_over_pi[i],
                    self.max_energy_error[i],
                    self.max_scaled_i_deviation[i])) + "\n")


def _sweep_energies(state: PhaseState, omegas, ell: int):
    """H and omega * I_total of each row of a batch of chains."""
    qf, pf = state.q[:, ell:], state.p[:, ell:]
    fast = 0.5 * omegas ** 2 * np.sum(qf * qf, axis=1)
    hamiltonian = (0.5 * np.sum(state.p * state.p, axis=1) + fast
                   + _quartic_potential(state.q, ell))
    return hamiltonian, omegas * (0.5 * np.sum(pf * pf, axis=1) + fast)


def experiment_resonance_sweep(scheme, params: FputParams, h: float, T: float,
                               omega_grid, tolerance: float = 1e-12) -> SweepResult:
    """Worst |H - H0| and |omega I - omega I0| over [0, T], one chain per omega.

    All chains start from the standard initial state of their frequency and
    are stepped together as one batched state, one row per omega, by
    ``make_stepper(scheme, ...)``; compositions batch the same way.  A row
    whose stage solve fails is recorded in ``failures`` as (index,
    "Type: message") with NaN results, and the step is redone without it;
    any other error propagates.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size == 0:
        raise ValueError("omega grid must be nonempty")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if not 0.0 <= T < math.inf:
        raise ValueError(f"T must be nonnegative and finite, got {T!r}")
    if not np.all(np.isfinite(omegas) & (omegas > 0.0)):
        raise ValueError("every omega must be positive and finite")
    ell = params.ell
    config = StageSolveConfig(tolerance=tolerance)
    base = paper_initial_state(FputParams(ell=ell, omega=1.0))
    q, p = np.tile(base.q, (len(omegas), 1)), np.tile(base.p, (len(omegas), 1))
    q[:, ell] = 1.0 / omegas
    state = PhaseState(q=q, p=p)
    rows = np.arange(len(omegas))   # the rows still running
    h0, i0 = _sweep_energies(state, omegas, ell)
    worst = np.zeros((2, len(omegas)))
    failures = []
    stepper = make_stepper(scheme, _chain_system(ell, omegas), config)
    n_steps, step = int(round(T / h)), 0
    while step < n_steps and len(rows):
        try:
            state = stepper.step(state, h)
        except StageSolveError as exc:
            keep = np.zeros(len(rows), dtype=bool)
            if exc.members:   # a failure not pinned to rows fails them all
                keep[:] = True
                keep[list(exc.members)] = False
            failures += [(int(i), f"{type(exc).__name__}: {exc}") for i in rows[~keep]]
            rows, h0, i0, worst = rows[keep], h0[keep], i0[keep], worst[:, keep]
            state = PhaseState(q=state.q[keep], p=state.p[keep], t=state.t)
            stepper = make_stepper(scheme, _chain_system(ell, omegas[rows]), config)
            continue
        step += 1
        hamiltonian, scaled_i = _sweep_energies(state, omegas[rows], ell)
        np.maximum(worst, np.abs([hamiltonian - h0, scaled_i - i0]), out=worst)
    results = np.full((2, len(omegas)), math.nan)
    results[:, rows] = worst
    return SweepResult(
        h_omega_over_pi=h * omegas / math.pi,
        max_energy_error=results[0],
        max_scaled_i_deviation=results[1],
        failures=tuple(sorted(failures)),
    )


@dataclass(frozen=True)
class ReductionRow:
    scheme: str
    omega: float
    h: float
    err_slow_q: float
    err_slow_p: float


@dataclass(frozen=True)
class ReductionTable:
    """Rows in (omega, scheme, h) order; ``failures`` holds
    (row index, "Type: message") for each row recorded with NaN errors."""

    rows: tuple
    failures: tuple = ()

    def errors(self, scheme: str, omega: float):
        """(h, err_q, err_p) arrays for one scheme and frequency, sorted by h."""
        sel = sorted((r for r in self.rows
                      if r.scheme == scheme and r.omega == omega),
                     key=lambda r: r.h)
        return (np.array([r.h for r in sel]),
                np.array([r.err_slow_q for r in sel]),
                np.array([r.err_slow_p for r in sel]))

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("scheme,omega,h,err_qs,err_ps\n")
            for r in self.rows:
                fh.write(f"{r.scheme},{format(r.omega, '.17g')},{format(r.h, '.17g')},"
                         f"{format(r.err_slow_q, '.17g')},{format(r.err_slow_p, '.17g')}\n")


def experiment_order_reduction(scheme_names, params: FputParams, T: float,
                               h_grid, omega_grid,
                               config: StageSolveConfig | None = None,
                               reference_tol: float = 1e-9) -> ReductionTable:
    """Slow-variable errors at time T against the step-halved reference.

    One reference solve per omega is shared by all (scheme, h) pairs.  Each
    requested h is nudged to the nearest value with an integer step count,
    so every run lands exactly on T (a terminal-time offset of even 1e-5
    would swamp the errors measured here).  A run that fails in the stage
    solve is recorded with NaN errors and its cause in ``failures``; any
    other exception propagates.
    """
    ell = params.ell
    rows = []
    failures = []
    for omega in np.asarray(omega_grid, dtype=float):
        p = FputParams(ell=ell, omega=float(omega))
        system = fput_system(p)
        state0 = paper_initial_state(p)
        ref = reference_solve(system, state0, T, tol=reference_tol)
        for name in scheme_names:
            for h in np.asarray(h_grid, dtype=float):
                n_steps = max(1, int(round(T / h)))
                h_run = T / n_steps
                try:
                    traj = integrate(name, system, state0, h_run, n_steps,
                                     config=config, stride=n_steps)
                    final = traj.final_state()
                    err_q = float(np.max(np.abs(final.q[:ell] - ref.q[:ell])))
                    err_p = float(np.max(np.abs(final.p[:ell] - ref.p[:ell])))
                except StageSolveError as exc:
                    failures.append((len(rows), f"{type(exc).__name__}: {exc}"))
                    err_q = err_p = math.nan
                rows.append(ReductionRow(scheme=name, omega=float(omega),
                                         h=h_run, err_slow_q=err_q,
                                         err_slow_p=err_p))
    return ReductionTable(rows=tuple(rows), failures=tuple(failures))


def convergence_errors(scheme, params: FputParams, h_list, T: float,
                       config: StageSolveConfig | None = None,
                       reference_tol: float = 1e-13) -> np.ndarray:
    """Max-norm global error at T for each h, against the reference solver.

    As in the reduction study, each h is nudged so the run lands on T.
    """
    system = fput_system(params)
    state0 = paper_initial_state(params)
    ref = reference_solve(system, state0, T, tol=reference_tol)
    errs = []
    for h in h_list:
        n_steps = max(1, int(round(T / h)))
        traj = integrate(scheme, system, state0, T / n_steps, n_steps,
                         config=config, stride=n_steps)
        final = traj.final_state()
        errs.append(max(float(np.max(np.abs(final.q - ref.q))),
                        float(np.max(np.abs(final.p - ref.p)))))
    return np.array(errs)


def fit_loglog_slope(hs, errors, floor: float = 0.0) -> float:
    """Least-squares slope of log(error) against log(h), ignoring values
    at or below ``floor`` (roundoff-dominated points)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = np.isfinite(errors) & (errors > floor)
    if np.sum(mask) < 2:
        raise ValueError("need at least two error values above the floor")
    coeffs = np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)
    return float(coeffs[0])
