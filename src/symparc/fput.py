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
    _einsum,
    _run,
    _step_count,
    _write_table,
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
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive and finite")

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


@functools.lru_cache(maxsize=None)
def _chain_force(ell: int):
    """F1 = -E^T e^3 of the chain, for arrays broadcast over leading axes,
    with the constant factors bound: a call makes its three products and
    no lookup."""
    to_uv, to_e, from_g = _chain_matrices(ell)
    d = 2 * ell

    def f1(q):
        g = q.reshape(-1, d).dot(to_uv).dot(to_e)
        g *= g * g
        return g.dot(from_g).reshape(q.shape)

    return f1


def _slow_force(q, ell: int):
    """F1 = -E^T e^3, broadcast over leading axes."""
    return _chain_force(ell)(np.asarray(q))


@functools.lru_cache(maxsize=None)
def _energy_weights(ell: int):
    """Weights of the squared columns of z = (p, omega q_f, e^2) in H."""
    w = np.full(4 * ell + 1, 0.5)
    w[3 * ell:] = 0.25
    w.setflags(write=False)
    return w


def _chain_energies(q, p, omegas, ell: int):
    """H and the oscillatory energies I_i of chains stacked along leading
    axes; ``omegas`` is one stiff frequency, or one per chain.

    H has the leading shape and I the leading shape + (ell,).  Every term
    of H is a square of an entry of z = (p, omega q_f, e^2), so H is one
    product of z^2 with constant weights, however many chains there are.
    The product is an einsum (``_einsum``, NumPy's C einsum), which sums
    each row alike wherever it sits in the stack; BLAS would round a row by
    its position.
    """
    q, p = np.asarray(q), np.asarray(p)
    lead = q.shape[:-1]
    to_uv, to_e, _ = _chain_matrices(ell)
    q, p = q.reshape(-1, 2 * ell), p.reshape(-1, 2 * ell)
    e = q.dot(to_uv).dot(to_e)   # the spring elongations e = E q
    e *= e
    w = omegas if isinstance(omegas, float) else np.asarray(omegas, dtype=float).reshape(-1, 1)
    z = np.concatenate((p, w * q[:, ell:], e), axis=1)
    z *= z
    osc = z[:, ell:2 * ell] + z[:, 2 * ell:3 * ell]
    osc *= 0.5
    return (_einsum("ij,j->i", z, _energy_weights(ell)).reshape(lead),
            osc.reshape(lead + (ell,)))


def _chain_system(ell: int, omegas, hamiltonian=None) -> SplitForceSystem:
    """The chain with stiff frequency ``omegas``: a scalar for one chain, an
    array of n for a batch of n chains (omega_sq of shape (n, 2*ell))."""
    with np.errstate(over="ignore"):
        w2 = np.asarray(omegas, dtype=float) ** 2
    if not np.isfinite(w2).all():
        raise ValueError("omega must be finite with a finite square")
    omega_sq = np.zeros(w2.shape + (2 * ell,))
    omega_sq[..., ell:] = w2[..., None]

    return SplitForceSystem(dimension=2 * ell, f1=_chain_force(ell), omega_sq=omega_sq,
                            hamiltonian=hamiltonian)


def fput_system(params: FputParams) -> SplitForceSystem:
    """Split system for the chain; forces broadcast over leading axes."""
    def hamiltonian(q, p):
        return _chain_energies(q, p, params.omega, params.ell)[0]

    return _chain_system(params.ell, params.omega, hamiltonian)


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
    if state.dimension != params.dimension:
        raise ValueError(f"state dimension {state.dimension} != 2*ell = {params.dimension}")
    h, osc = _chain_energies(state.q, state.p, params.omega, params.ell)
    # np.add.reduce is osc.sum() without the Python frame around it
    return EnergyBreakdown(hamiltonian=float(h), oscillatory=osc,
                           total_oscillatory=float(np.add.reduce(osc)))


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
        cells = np.column_stack((self.times, self.energy_error, self.oscillatory,
                                 self.total_oscillatory))
        _write_table(path, header, ",".join(["%.17g"] * (3 + ell)),
                     (tuple(row.tolist()) for row in cells))


def experiment_energy(scheme, params: FputParams, h: float, T: float,
                      tol: float = 1e-12) -> EnergyHistory:
    """Integrate from the standard initial state, recording H and I_i per step."""
    n_steps = _step_count(T, h)
    traj = integrate(scheme, fput_system(params), paper_initial_state(params), h, n_steps,
                     tol=tol)
    hamiltonian, oscillatory = _chain_energies(traj.qs, traj.ps, params.omega, params.ell)
    return EnergyHistory(times=traj.times, hamiltonian=hamiltonian, oscillatory=oscillatory)


@dataclass(frozen=True)
class SweepResult:
    """Per-frequency maxima of |H - H0| and |omega I - omega I0|."""

    h_omega_over_pi: np.ndarray
    max_energy_error: np.ndarray
    max_scaled_i_deviation: np.ndarray
    failures: tuple = ()

    def write_csv(self, path):
        cells = np.column_stack((self.h_omega_over_pi, self.max_energy_error,
                                 self.max_scaled_i_deviation))
        _write_table(path, "h_omega_over_pi,max_H_err,max_scaled_I_dev",
                     "%.17g,%.17g,%.17g", (tuple(row.tolist()) for row in cells))


def experiment_resonance_sweep(scheme, params: FputParams, h: float, T: float, omega_grid,
                               tol: float = 1e-12) -> SweepResult:
    """Worst |H - H0| and |omega I - omega I0| over [0, T], one chain per omega.

    All chains start from the standard initial state of their frequency and
    are stepped together as one batched state, one row per omega, by
    ``make_stepper(scheme, ..., tol)``; compositions batch the same way.  A row
    whose stage solve fails is recorded in ``failures`` as (index,
    "Type: message") with NaN results, and the step is redone without it;
    any other error propagates.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size == 0:
        raise ValueError("omega grid must be nonempty")
    n_steps = _step_count(T, h)
    if not np.all(np.isfinite(omegas) & (omegas > 0.0)):
        raise ValueError("every omega must be positive and finite")
    ell = params.ell
    base = paper_initial_state(FputParams(ell=ell, omega=1.0))
    q, p = np.tile(base.q, (len(omegas), 1)), np.tile(base.p, (len(omegas), 1))
    q[:, ell] = 1.0 / omegas

    def energies(state, omegas):
        """H and omega * I_total of each row, each as it is for the row alone."""
        hamiltonian, osc = _chain_energies(state.q, state.p, omegas, ell)
        return np.array((hamiltonian, omegas * _einsum("ij->i", osc)))

    state = PhaseState(q=q, p=p)
    origin = energies(state, omegas)
    worst = np.zeros_like(origin)   # the largest drifts |E - E0|

    def batch(rows):   # a chain's stepper holds its Omega^2
        return make_stepper(scheme, _chain_system(ell, omegas[rows]), tol)

    def observe(rows, state, iterations):
        # a slice while every member runs: a view, where indexing by rows copies
        running = rows if len(rows) < len(omegas) else slice(None)
        drift = np.abs(energies(state, omegas[running]) - origin[:, running])
        worst[:, running] = np.maximum(worst[:, running], drift)

    _, failures = _run(batch, state, h, np.full(len(omegas), n_steps), observe)
    worst[:, [i for i, _ in failures]] = math.nan
    return SweepResult(
        h_omega_over_pi=h * omegas / math.pi,
        max_energy_error=worst[0],
        max_scaled_i_deviation=worst[1],
        failures=tuple((i, f"{type(exc).__name__}: {exc}") for i, exc in failures),
    )


def _step_grid(h_grid, T: float, names=("T", "h")) -> np.ndarray:
    """The step count max(1, round(T / h)) of each h, so that each run
    lands on T; ValueError, naming T and h as ``names`` calls them, unless T
    and every h are positive and finite and :func:`_step_count` takes every
    h."""
    t_name, h_name = names
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"{t_name} must be positive and finite, got {T!r}")
    hs = np.asarray(h_grid, dtype=float)
    if not np.all(np.isfinite(hs) & (hs > 0.0)):
        raise ValueError(f"every {h_name} must be positive and finite, got {hs.tolist()}")
    return np.maximum(1, [_step_count(T, h, names) for h in hs.tolist()])


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
        _write_table(path, "scheme,omega,h,err_qs,err_ps", "%s,%.17g,%.17g,%.17g,%.17g",
                     ((r.scheme, r.omega, r.h, r.err_slow_q, r.err_slow_p) for r in self.rows))


def _grid_final_states(scheme, system: SplitForceSystem, state0: PhaseState, T: float,
                       n_steps: np.ndarray, tol: float):
    """States at T of one run of ``scheme`` per step count of ``n_steps``
    (see :func:`_step_grid`), stepped as one batch, each bitwise its
    single-state :func:`integrate` run.  Each run steps by T / n, so it
    lands exactly on T.  Returns (h_run, q, p, failures): those step sizes,
    the final q and p of each run (NaN if it failed), and (index, error) per
    failed run.
    """
    h_run = T / n_steps
    stepper = make_stepper(scheme, system, tol)
    state = PhaseState(q=np.tile(state0.q, (len(n_steps), 1)),
                       p=np.tile(state0.p, (len(n_steps), 1)), t=state0.t)
    finals, failures = _run(lambda rows: stepper, state, h_run, n_steps)
    return h_run, finals[0], finals[1], failures


def experiment_order_reduction(scheme_names, params: FputParams, T: float,
                               h_grid, omega_grid,
                               tol: float = 1e-12,
                               reference_tol: float = 1e-9) -> ReductionTable:
    """Slow-variable errors at time T against the step-halved reference.

    One reference solve per omega is shared by all (scheme, h) pairs.  Each
    requested h is nudged to the nearest value with an integer step count,
    so every run lands exactly on T (a terminal-time offset of even 1e-5
    would swamp the errors measured here).  A scheme's runs over the h grid
    are stepped as one batch, each as it would run alone.  A run that fails
    in the stage solve is recorded with NaN errors and its cause in
    ``failures``; any other exception propagates.
    """
    n_steps = _step_grid(h_grid, T)
    ell = params.ell
    rows = []
    failures = []
    for omega in np.asarray(omega_grid, dtype=float):
        p = FputParams(ell=ell, omega=float(omega))
        system = fput_system(p)
        state0 = paper_initial_state(p)
        ref = reference_solve(system, state0, T, tol=reference_tol)
        for name in scheme_names:
            h_run, q, p_final, failed = _grid_final_states(name, system, state0, T,
                                                           n_steps, tol)
            err_q = np.max(np.abs(q[:, :ell] - ref.q[:ell]), axis=1)
            err_p = np.max(np.abs(p_final[:, :ell] - ref.p[:ell]), axis=1)
            failures += [(len(rows) + i, f"{type(exc).__name__}: {exc}") for i, exc in failed]
            rows += [ReductionRow(scheme=name, omega=float(omega), h=h, err_slow_q=eq,
                                  err_slow_p=ep)
                     for h, eq, ep in zip(h_run.tolist(), err_q.tolist(), err_p.tolist())]
    return ReductionTable(rows=tuple(rows), failures=tuple(failures))


def convergence_errors(scheme_names, params: FputParams, h_list, T: float,
                       tol: float = 1e-12,
                       reference_tol: float = 1e-13) -> np.ndarray:
    """Max-norm global error at T for each scheme and h, one row per scheme,
    against one reference solve.

    As in the reduction study, each h is nudged so the run lands on T, and
    a scheme's runs are stepped as one batch.  A stage-solve failure of any
    run is raised: that of the first failing h in ``h_list`` order, in the
    first scheme that fails.
    """
    n_steps = _step_grid(h_list, T)
    system = fput_system(params)
    state0 = paper_initial_state(params)
    ref = reference_solve(system, state0, T, tol=reference_tol)
    errors = []
    for name in scheme_names:
        _, q, p, failures = _grid_final_states(name, system, state0, T, n_steps, tol)
        if failures:
            raise failures[0][1]
        errors.append(np.maximum(np.abs(q - ref.q).max(axis=1), np.abs(p - ref.p).max(axis=1)))
    return np.array(errors)


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
