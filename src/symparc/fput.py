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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from symparc.integrator import (
    NonconvergenceError,
    NumericalFailureError,
    PhaseState,
    SingularStageSystemError,
    SplitForceSystem,
    StageSolveConfig,
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


def fput_system(params: FputParams) -> SplitForceSystem:
    """Split system for the chain; forces broadcast over leading axes."""
    ell = params.ell
    w2 = params.omega ** 2
    omega_sq = np.concatenate([np.zeros(ell), np.full(ell, w2)])

    def f1(q):
        return _slow_force(q, ell)

    def hamiltonian(q, p):
        return (0.5 * float(p @ p) + 0.5 * w2 * float(q[ell:] @ q[ell:])
                + float(_quartic_potential(q, ell)))

    return SplitForceSystem(dimension=2 * ell, f1=f1, omega_sq=omega_sq,
                            hamiltonian=hamiltonian)


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


def _sweep_batched(scheme, ell: int, omegas, h: float, T: float, tolerance: float):
    """All sweep frequencies advanced together as one batched state.

    Equivalent to and cross-checked against the per-point engine; one
    vectorized linearly-implicit solve replaces hundreds of scalar runs.
    Returns (max_H_err, max_scaled_I_dev, failure message or None) per run.
    """
    from symparc.integrator import scheme_from_name
    from symparc.tableaux import ArkScheme

    sch = scheme if isinstance(scheme, ArkScheme) else scheme_from_name(scheme)
    s1, s2 = sch.s1, sch.s2
    m = s1 + s2
    n = len(omegas)
    d = 2 * ell
    w2 = np.asarray(omegas, dtype=float) ** 2

    # block inverses: the zero-frequency (slow) block is shared, the fast
    # block is one small matrix per frequency
    slow_block = np.eye(m)
    slow_block[:s2, s2:] = -h * sch.a_tilde
    inv_slow = np.linalg.inv(slow_block)
    fast_blocks = np.broadcast_to(slow_block, (n, m, m)).copy()
    fast_blocks[:, s2:, :s2] = (h * w2)[:, None, None] * sch.a_tilde_hat
    inv_fast = np.linalg.inv(fast_blocks)

    q = np.zeros((n, d))
    p = np.zeros((n, d))
    q[:, 0] = 1.0
    q[:, ell] = 1.0 / np.asarray(omegas, dtype=float)
    p[:, 0] = 1.0
    p[:, ell] = 1.0

    def hamiltonian(qb, pb):
        return (0.5 * np.sum(pb * pb, axis=1)
                + 0.5 * w2 * np.sum(qb[:, ell:] ** 2, axis=1)
                + _quartic_potential(qb, ell))

    def osc_total(qb, pb):
        return (0.5 * np.sum(pb[:, ell:] ** 2, axis=1)
                + 0.5 * w2 * np.sum(qb[:, ell:] ** 2, axis=1))

    omega_arr = np.asarray(omegas, dtype=float)
    h0 = hamiltonian(q, p)
    i0 = omega_arr * osc_total(q, p)
    worst_h = np.zeros(n)
    worst_i = np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(q), axis=1),
                                       np.max(np.abs(p), axis=1)))

    n_steps = int(round(T / h))
    max_iterations = 50
    rhs = np.empty((n, m, d))
    for _ in range(n_steps):
        Q = q[:, None, :] + h * sch.c[None, :, None] * p[:, None, :]
        F1 = _slow_force(Q, ell)
        done = False
        for _ in range(max_iterations):
            rhs[:, :s2, :] = q[:, None, :]
            rhs[:, s2:, :] = p[:, None, :] + h * (sch.a_hat @ F1)
            sol_s = inv_slow @ rhs[:, :, :ell]
            sol_f = inv_fast @ rhs[:, :, ell:]
            P = np.concatenate([sol_s[:, s2:, :], sol_f[:, s2:, :]], axis=2)
            Q_new = q[:, None, :] + h * (sch.a @ P)
            residual = np.max(np.abs(Q_new - Q), axis=(1, 2))
            Q = Q_new
            F1 = _slow_force(Q, ell)
            bad = ~np.isfinite(residual) | (residual > 1e12 * scale)
            if np.any(bad & ~failed):
                failed |= bad
                q[bad], p[bad] = 0.0, 0.0
            if np.all((residual <= tolerance * scale) | failed):
                done = True
                break
        if not done:
            stuck = (residual > tolerance * scale) & ~failed
            failed |= stuck
            q[stuck], p[stuck] = 0.0, 0.0
        Qt = np.concatenate([sol_s[:, :s2, :], sol_f[:, :s2, :]], axis=2)
        F2 = np.empty_like(Qt)
        F2[:, :, :ell] = 0.0
        F2[:, :, ell:] = -w2[:, None, None] * Qt[:, :, ell:]
        q = q + h * (sch.b @ P)
        p = p + h * (sch.b @ F1 + sch.b_tilde @ F2)
        np.maximum(worst_h, np.abs(hamiltonian(q, p) - h0), out=worst_h)
        np.maximum(worst_i, np.abs(omega_arr * osc_total(q, p) - i0), out=worst_i)

    out = []
    for i in range(n):
        if failed[i]:
            out.append((math.nan, math.nan, "NonconvergenceError: batched stage solve"))
        else:
            out.append((worst_h[i], worst_i[i], None))
    return out


def _sweep_point(task):
    scheme, ell, omega, h, T, tolerance = task
    params = FputParams(ell=ell, omega=omega)
    system = fput_system(params)
    state0 = paper_initial_state(params)
    b0 = energy_breakdown(params, state0)
    h0 = b0.hamiltonian
    i0 = omega * b0.total_oscillatory
    worst = [0.0, 0.0]

    def observer(state):
        b = energy_breakdown(params, state)
        worst[0] = max(worst[0], abs(b.hamiltonian - h0))
        worst[1] = max(worst[1], abs(omega * b.total_oscillatory - i0))

    n_steps = int(round(T / h))
    try:
        integrate(scheme, system, state0, h, n_steps,
                  config=StageSolveConfig(tolerance=tolerance),
                  observer=observer, stride=max(1, n_steps))
    except Exception as exc:  # sweep continues past bad points
        return math.nan, math.nan, f"{type(exc).__name__}: {exc}"
    return worst[0], worst[1], None


def experiment_resonance_sweep(scheme, params: FputParams, h: float, T: float,
                               omega_grid, jobs: int = 1,
                               tolerance: float = 1e-12,
                               engine: str = "batched") -> SweepResult:
    """Run one integration per omega, recording worst-case energy deviations.

    Points are independent.  The default engine advances all of them in one
    vectorized batch; ``engine="per-point"`` runs separate integrations
    instead, distributed over ``jobs`` processes and merged back in grid
    order (both engines agree to solver tolerance).  Failures are recorded
    per point (NaN in the result arrays) and do not abort the sweep.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise ValueError("omega grid must be nonempty")
    if engine == "batched" and not (isinstance(scheme, str)
                                    and scheme.startswith("imex")):
        results = _sweep_batched(scheme, params.ell, omega_grid, h, T, tolerance)
    else:
        tasks = [(scheme, params.ell, float(w), h, T, tolerance) for w in omega_grid]
        if jobs > 1:
            chunk = max(1, len(tasks) // (8 * jobs))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_sweep_point, tasks, chunksize=chunk))
        else:
            results = [_sweep_point(t) for t in tasks]
    h_err = np.array([r[0] for r in results])
    i_dev = np.array([r[1] for r in results])
    failures = tuple((i, r[2]) for i, r in enumerate(results) if r[2] is not None)
    return SweepResult(
        h_omega_over_pi=h * omega_grid / math.pi,
        max_energy_error=h_err,
        max_scaled_i_deviation=i_dev,
        failures=failures,
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
                except (NonconvergenceError, NumericalFailureError,
                        SingularStageSystemError) as exc:
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
