"""The four benchmark workloads: seeded inputs, the timed body, output checks.

Each workload has ``setup(seed, out_dir)``, which builds parameters, systems
and the seeded grids (work a CLI invocation pays before computing), and
``run(inputs)``, the timed body.  ``run`` is a generator: it yields a list
of ``Outcome``, one per attempted operation, after each part of the body
(a sweep, a trajectory, a half-trace scan), so that the launcher can time
the parts one by one.  ``check=True`` marks an output check: the run is
correct only if every check holds.  Order-condition verdicts are operations
but not checks, so the known s1 = 11, 12 defects count as failures without
making the run incorrect.

Every call into symparc goes through a module attribute (``fput.integrate``
rather than a name imported here), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import symparc.cli  # noqa: F401  -- part of the set-up cost of a CLI invocation
from symparc import fput, integrator, stability, tableaux


@dataclass(frozen=True)
class Outcome:
    name: str
    ok: bool
    check: bool = True
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _returned(module, attr):
    """Collect the return values of ``module.attr`` while the block runs."""
    original = getattr(module, attr)
    values = []

    def capture(*args, **kwargs):
        value = original(*args, **kwargs)
        values.append(value)
        return value

    setattr(module, attr, capture)
    try:
        yield values
    finally:
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# stiff_oracle: acceptance criterion 9 on a shortened horizon
# ---------------------------------------------------------------------------

STIFF_SCHEMES = ("imex-yoshida4", "lgl4", "lgl6")
# T = 3 in criterion 9; at T = 0.02 the step-halved RK8 oracle (about 3.2k
# steps) still does three quarters of the work, and a run repeats it often.
STIFF_T = 0.02
STIFF_REF_TOL = 1e-9


def _stiff_setup(seed, out_dir):
    rng = np.random.default_rng(seed)
    omega_jitter, h_jitter = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=2)
    params = fput.FputParams(ell=3, omega=1e4 * omega_jitter)
    h_grid = np.geomspace(6e-4, 0.015, 12) * h_jitter
    return {
        "params": params,
        "h_grid": h_grid,
        "system": fput.fput_system(params),
        "state0": fput.paper_initial_state(params),
        "summary": {"omega": params.omega, "T": STIFF_T, "reference_tol": STIFF_REF_TOL,
                    "h_grid": h_grid.tolist(), "schemes": list(STIFF_SCHEMES)},
    }


def _stiff_run(inp):
    params, h_grid = inp["params"], inp["h_grid"]
    n_rows = len(STIFF_SCHEMES) * len(h_grid)
    with _returned(fput, "reference_solve") as refs:
        try:
            table = fput.experiment_order_reduction(
                list(STIFF_SCHEMES), params, STIFF_T, h_grid, [params.omega],
                reference_tol=STIFF_REF_TOL)
        except Exception as exc:  # the oracle raises when it cannot certify
            table, detail = None, _error(exc)
    if table is None:
        yield ([Outcome("oracle certifies", False, detail=detail),
                Outcome("oracle conserves H", False, detail=detail)]
               + [Outcome(f"row {i}", False, detail=detail) for i in range(n_rows)])
        return
    out = [Outcome("oracle certifies", len(refs) == 1, detail=f"{len(refs)} reference solves")]
    system, state0 = inp["system"], inp["state0"]
    h0 = system.energy(state0)
    drift = abs(system.energy(refs[-1]) - h0) if refs else math.inf
    out.append(Outcome("oracle conserves H", drift <= STIFF_REF_TOL * max(1.0, abs(h0)),
                       detail=f"|H - H0| = {drift:.3e}"))
    for i, row in enumerate(table.rows):
        finite = math.isfinite(row.err_slow_q) and math.isfinite(row.err_slow_p)
        out.append(Outcome(f"row {i} {row.scheme} h={row.h:.6g}", finite))
    out += [Outcome(f"row {i}", False, detail="missing")
            for i in range(len(table.rows), n_rows)]
    yield out


# ---------------------------------------------------------------------------
# resonance_sweep: acceptance criterion 8 on a shortened horizon
# ---------------------------------------------------------------------------

SWEEP_SCHEMES = ("lgl4", "lgl6")
SWEEP_POINTS = 450
SWEEP_H = 0.02
# T = 100 in criterion 8; the peaks sit at the same grid points from T = 2 on.
SWEEP_T = 5.0
PEAK_TOL = 0.05


def _sweep_setup(seed, out_dir):
    rng = np.random.default_rng(seed)
    ratios = np.linspace(0.01, 4.5, SWEEP_POINTS)
    phase = float(rng.uniform(0.0, 1.0))
    ratios = ratios + phase * (ratios[1] - ratios[0])
    return {
        "params": fput.FputParams(ell=3),
        "omegas": ratios * math.pi / SWEEP_H,
        "summary": {"h": SWEEP_H, "T": SWEEP_T, "points": SWEEP_POINTS,
                    "grid_phase": phase, "schemes": list(SWEEP_SCHEMES)},
    }


def _peak(result, lo=-math.inf, hi=math.inf):
    x = result.h_omega_over_pi
    window = (x > lo) & (x < hi)
    return float(x[window][int(np.nanargmax(result.max_energy_error[window]))])


def _sweep_run(inp):
    results = {}
    for name in SWEEP_SCHEMES:
        try:
            r = fput.experiment_resonance_sweep(name, inp["params"], SWEEP_H, SWEEP_T,
                                                inp["omegas"])
        except Exception as exc:
            yield [Outcome(f"{name} point {i}", False, detail=_error(exc))
                   for i in range(SWEEP_POINTS)]
            continue
        results[name] = r
        failed = dict(r.failures)
        yield [Outcome(f"{name} point {i}",
                       i not in failed and math.isfinite(r.max_energy_error[i])
                       and math.isfinite(r.max_scaled_i_deviation[i]),
                       detail=failed.get(i, ""))
               for i in range(SWEEP_POINTS)]
    out = []
    peaks = (("lgl4", 2.0 * math.sqrt(3.0) / math.pi, -math.inf, math.inf),
             ("lgl6", math.sqrt(10.0) / math.pi, 0.8, 1.3),
             ("lgl6", 2.0 * math.sqrt(15.0) / math.pi, -math.inf, math.inf))
    for name, expected, lo, hi in peaks:
        found = _peak(results[name], lo, hi) if name in results else math.nan
        out.append(Outcome(f"{name} peak near {expected:.4f}",
                           abs(found - expected) <= PEAK_TOL, detail=f"found {found:.4f}"))
    yield out


# ---------------------------------------------------------------------------
# trajectory: single-state runs at the `fput energy` and `highfreq` defaults
# ---------------------------------------------------------------------------

TRAJ_CONFIGS = (("lgl4", 50.0, 0.04), ("lgl6", 50.0, 0.04),
                ("imex-yoshida4", 50.0, 0.04), ("lgl4", 1000.0, 0.1))
# the CLI defaults run 5000 and 40000 steps; per-step cost is what matters
TRAJ_STEPS = 500
TRAJ_PERTURBATION = 1e-4
# largest |H - H0| / |H0| allowed; all four runs stay below 4e-3 over 500 steps
TRAJ_ENERGY_BOUND = 1e-2


def _traj_setup(seed, out_dir):
    rng = np.random.default_rng(seed)
    runs = []
    for scheme, omega, h in TRAJ_CONFIGS:
        params = fput.FputParams(ell=3, omega=omega)
        base = fput.paper_initial_state(params)
        d = params.dimension
        state0 = integrator.PhaseState(
            q=base.q * (1.0 + TRAJ_PERTURBATION * rng.standard_normal(d)),
            p=base.p * (1.0 + TRAJ_PERTURBATION * rng.standard_normal(d)))
        key = f"{scheme}-w{omega:g}"
        runs.append({"key": key, "scheme": scheme, "h": h, "params": params,
                     "system": fput.fput_system(params), "state0": state0,
                     "csv": out_dir / f"trajectory-{key}.csv"})
    return {
        "runs": runs,
        "digests": {},
        "summary": {"steps": TRAJ_STEPS, "configs": [
            {"key": r["key"], "h": r["h"], "q0": r["state0"].q.tolist(),
             "p0": r["state0"].p.tolist()} for r in runs]},
    }


def _traj_run(inp):
    for run in inp["runs"]:
        key, params = run["key"], run["params"]
        energies = np.empty(TRAJ_STEPS)
        cursor = 0

        def observer(state):
            nonlocal cursor
            energies[cursor] = fput.energy_breakdown(params, state).hamiltonian
            cursor += 1

        try:
            traj = integrator.integrate(run["scheme"], run["system"], run["state0"],
                                        run["h"], TRAJ_STEPS, observer=observer)
        except Exception as exc:  # NonconvergenceError names the failing step
            detail = _error(exc)
            yield [Outcome(f"{key} converges", False, detail=detail),
                   Outcome(f"{key} energy bounded", False, detail=detail)]
            continue
        h0 = fput.energy_breakdown(params, run["state0"]).hamiltonian
        drift = float(np.max(np.abs(energies - h0))) / abs(h0)
        out = [Outcome(f"{key} converges", True),
               Outcome(f"{key} energy bounded", drift <= TRAJ_ENERGY_BOUND,
                       detail=f"max |H - H0| / |H0| = {drift:.3e}")]
        traj.write_csv(run["csv"])
        digest = hashlib.sha256(run["csv"].read_bytes()).hexdigest()
        first = inp["digests"].get(key)
        if first is None:
            inp["digests"][key] = digest
        else:
            out.append(Outcome(f"{key} CSV byte-identical to the first repetition",
                               digest == first))
        yield out


# ---------------------------------------------------------------------------
# stability_scan: the tableaux and stability layers
# ---------------------------------------------------------------------------

MU_MAX = 1000.0
MU_POINTS = 1_000_000
INTERVAL_MU_MAX = 12.0
HALF_TRACE_SLACK = 1e-12
ENDPOINT_TOL = 1e-8
_R15 = math.sqrt(15.0)
# closed forms of the collocation stability intervals
COLLOCATION_INTERVALS = {
    "lglc2": ((0.0, 4.0),),
    "lglc4": ((0.0, 6.0 * math.sqrt(33.0) / 11.0), (2.0 * math.sqrt(3.0), 3.0 * math.sqrt(6.0))),
    "lglc6": ((0.0, math.sqrt(70.0 - 2.0 * math.sqrt(905.0))),
              (math.sqrt(10.0), 1.6 * _R15),
              (2.0 * _R15, math.sqrt(70.0 + 2.0 * math.sqrt(905.0)))),
}


def _scan_setup(seed, out_dir):
    rng = np.random.default_rng(seed)
    offset = float(rng.uniform(0.0, 1.0)) * MU_MAX / (MU_POINTS - 1)
    return {
        "mus": np.linspace(0.0, MU_MAX, MU_POINTS) + offset,
        "summary": {"mu_max": MU_MAX, "mu_points": MU_POINTS, "mu_offset": offset,
                    "max_stages": tableaux.MAX_STAGES},
    }


def _scan_run(inp):
    out, schemes = [], {}
    for variant in ("interpolation", "collocation"):
        for s1 in range(2, tableaux.MAX_STAGES + 1):
            name = f"verify s1={s1} {variant}"
            try:
                scheme = tableaux.build_scheme(s1, variant)
                report = tableaux.verify_order_conditions(scheme)
            except Exception as exc:
                out.append(Outcome(name, False, check=False, detail=_error(exc)))
                continue
            schemes[(s1, variant)] = scheme
            worst = max(c.residual for c in report.conditions if c.required)
            out.append(Outcome(name, report.passed, check=False,
                               detail=f"worst required residual {worst:.2e}"))
    yield out
    for order in (4, 6):
        scheme = schemes.get((order // 2 + 1, "interpolation"))
        excess = (float(np.max(np.abs(stability.half_trace_samples(scheme, inp["mus"])))) - 1.0
                  if scheme is not None else math.inf)
        yield [Outcome(f"lgl{order} half-trace excess", excess <= HALF_TRACE_SLACK,
                       detail=f"{excess:.2e}")]
    out = []
    for name, expected in COLLOCATION_INTERVALS.items():
        scheme = schemes.get((int(name[4:]) // 2 + 1, "collocation"))
        found = (stability.stability_intervals(scheme, INTERVAL_MU_MAX).intervals
                 if scheme is not None else ())
        if len(found) == len(expected):
            error = max(max(abs(lo - elo), abs(hi - min(ehi, INTERVAL_MU_MAX)))
                        for (lo, hi), (elo, ehi) in zip(found, expected))
        else:
            error = math.inf
        out.append(Outcome(f"{name} interval endpoints", error < ENDPOINT_TOL,
                           detail=f"{len(found)} intervals, endpoint error {error:.2e}"))
    yield out


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("stiff_oracle", _stiff_setup, _stiff_run),
    Workload("resonance_sweep", _sweep_setup, _sweep_run),
    Workload("trajectory", _traj_setup, _traj_run),
    Workload("stability_scan", _scan_setup, _scan_run),
)}
