"""Command-line front end: scheme construction, stability analysis,
integration runs and the oscillatory-chain experiment suite.

All numeric output uses 17 significant digits, '.' as decimal separator and
LF line endings; reruns with identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from symparc import fput as fputmod
from symparc import stability as stab
from symparc.integrator import (
    OracleFailureError,
    PhaseState,
    SplitForceSystem,
    StageSolveError,
    _composition_order,
    _step_count,
    _write_table,
    integrate,
    scheme_from_name,
)
from symparc.tableaux import build_scheme, scheme_to_json, verify_order_conditions

_SCHEME_CHOICES = "lgl2|lgl4|lgl6|lglc2|lglc4|lglc6|imex-yoshida4|imex-yoshida6"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _stage_tol(args) -> float:
    """The stage tolerance: --tol, checked, or 1e-12 when it was not given."""
    if args.tol is not None and not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise ValueError("--tol must be positive and finite")
    return _given(args.tol, 1e-12)


def _given(value, default):
    """An option's value, or the default when it was not given (0 is given)."""
    return default if value is None else value


def _known_scheme(name: str) -> str:
    if name.startswith("imex-yoshida"):
        _composition_order(name)  # raises on bad names
    else:
        scheme_from_name(name)  # raises on bad names
    return name


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------

def _tableau_csv(scheme) -> str:
    lines = ["name,i,j,value"]
    matrices = {"A": scheme.a, "Ahat": scheme.a_hat, "Atilde": scheme.a_tilde,
                "AtildeHat": scheme.a_tilde_hat}
    vectors = {"b": scheme.b, "c": scheme.c, "btilde": scheme.b_tilde,
               "ctilde": scheme.c_tilde}
    for name, m in matrices.items():
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                lines.append(f"{name},{i + 1},{j + 1},{_fmt(x)}")
    for name, v in vectors.items():
        for i, x in enumerate(v):
            lines.append(f"{name},{i + 1},,{_fmt(x)}")
    return "\n".join(lines)


def _cmd_tableau(args) -> int:
    scheme = build_scheme(args.s1, args.variant)
    if args.verify and args.format == "csv":
        raise ValueError("--verify needs --format json")
    text = _tableau_csv(scheme) if args.format == "csv" else scheme_to_json(scheme)
    if args.verify:
        report = verify_order_conditions(scheme)
        entries = ",\n    ".join(
            f'{{"condition": "{c.condition}", "residual": {_fmt(c.residual)}, '
            f'"required": {str(c.required).lower()}}}'
            for c in report.conditions)
        text += ("\n{\n  \"tolerance\": " + _fmt(report.tolerance)
                 + ",\n  \"passed\": " + str(report.passed).lower()
                 + ",\n  \"conditions\": [\n    " + entries + "\n  ]\n}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if args.verify and not report.passed else 0


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _report_json(report: stab.StabilityReport) -> str:
    intervals = ", ".join(f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in report.intervals)
    resonances = ", ".join(
        f'{{"mu": {_fmt(r.mu)}, "sign": {r.sign}, "tangent": {str(r.tangent).lower()}}}'
        for r in report.resonance_points)
    return ('{\n  "scheme": "%s",\n  "p_stable": %s,\n  "intervals": [%s],\n'
            '  "resonances": [%s]\n}' % (
                report.scheme_id, str(report.p_stable).lower(), intervals, resonances))


def _cmd_stability(args) -> int:
    if not 0.0 < args.mu_max <= stab.MAX_INTERVAL_MU:
        raise ValueError(f"--mu-max must be positive and at most {stab.MAX_INTERVAL_MU:g}")
    if not 1 <= args.grid <= stab.MAX_GRID_SAMPLES:
        raise ValueError(f"--grid must be at least 1 and at most {stab.MAX_GRID_SAMPLES:,}")
    scheme = scheme_from_name(args.scheme)
    report = stab.stability_intervals(scheme, args.mu_max)

    mus = np.linspace(0.0, args.mu_max, args.grid)
    M = stab.stability_matrix_samples(scheme, mus)
    m11, m22 = M[:, 0, 0], M[:, 1, 1]
    ht = 0.5 * (m11 + m22)
    det = m11 * m22 - M[:, 0, 1] * M[:, 1, 0]
    _write_table(args.out + ".csv", "mu,half_trace,det,m11,m22,modified_mu",
                 ",".join(["%.17g"] * 6), zip(*(col.tolist() for col in (
                     mus, ht, det, m11, m22, stab._modified_mu(ht)))))
    with open(args.out + ".json", "w", newline="\n") as fh:
        fh.write(_report_json(report) + "\n")
    print(f"{report.scheme_id}: p_stable={report.p_stable} "
          f"intervals={[(round(a, 6), round(b, 6)) for a, b in report.intervals]}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def _parse_vector(text: str, d: int, what: str) -> np.ndarray:
    values = np.array([float(x) for x in text.split(",")]) if text else np.zeros(d)
    if len(values) != d:
        raise ValueError(f"{what} must have {d} components")
    return values


def _cmd_integrate(args) -> int:
    name = _known_scheme(args.scheme)
    n_steps = _step_count(args.T, args.h, ("--T", "--h"))
    if args.stride < 1:
        raise ValueError("--stride must be at least 1")
    if args.problem == "fput":
        params = fputmod.FputParams(ell=args.ell, omega=args.omega)
        system = fputmod.fput_system(params)
        state0 = fputmod.paper_initial_state(params)
    else:
        d = args.dim
        system = SplitForceSystem(dimension=d)
        state0 = PhaseState(q=_parse_vector(args.q0, d, "--q0"),
                            p=_parse_vector(args.p0, d, "--p0"))
    traj = integrate(name, system, state0, args.h, n_steps, tol=_stage_tol(args),
                     stride=args.stride)
    if args.format == "json":
        _write_trajectory_json(traj, args.out)
    else:
        traj.write_csv(args.out)
    final = traj.final_state()
    summary = (f"{name}: {n_steps} steps of h={_fmt(args.h)}, "
               f"final t={_fmt(final.t)}, |q|={_fmt(np.max(np.abs(final.q)))}, "
               f"|p|={_fmt(np.max(np.abs(final.p)))}")
    if system.hamiltonian is not None:
        h_err = abs(system.energy(final) - system.energy(state0))
        summary += f", |H-H0|={_fmt(h_err)}"
    print(summary, file=sys.stderr)
    return 0


def _write_trajectory_json(traj, path):
    def vec(v):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    rows_q = ", ".join(vec(row) for row in traj.qs)
    rows_p = ", ".join(vec(row) for row in traj.ps)
    iters = ", ".join(str(int(x)) for x in traj.stage_iterations)
    with open(path, "w", newline="\n") as fh:
        fh.write('{\n  "t": %s,\n  "q": [%s],\n  "p": [%s],\n'
                 '  "stage_iters": [%s]\n}\n'
                 % (vec(traj.times), rows_q, rows_p, iters))


# ---------------------------------------------------------------------------
# fput experiment suite
# ---------------------------------------------------------------------------

def _cmd_fput(args) -> int:
    if args.experiment in ("energy", "highfreq"):
        energy = args.experiment == "energy"
        params = fputmod.FputParams(ell=args.ell,
                                    omega=_given(args.omega, 50.0 if energy else 1000.0))
        h = _given(args.h, 2.0 / params.omega if energy else 0.1)
        T = _given(args.T, 200.0 if energy else 4000.0)
        _step_count(T, h, ("--T", "--h"))
        history = fputmod.experiment_energy(_known_scheme(args.scheme), params, h, T,
                                            tol=_stage_tol(args))
        history.write_csv(args.out or args.experiment + ".csv")
        detail = (f"{len(history.times) - 1} steps" if energy
                  else f"h*omega/pi = {_fmt(h * params.omega / math.pi)}")
        print(f"{args.experiment}: {detail}, "
              f"max |H-H0| = {_fmt(np.max(history.energy_error))}", file=sys.stderr)
        return 0

    if args.experiment == "sweep":
        if args.points < 1:
            raise ValueError("--points must be at least 1")
        params = fputmod.FputParams(ell=args.ell, omega=_given(args.omega, 50.0))
        h = _given(args.h, 0.02)
        T = _given(args.T, 100.0)
        _step_count(T, h, ("--T", "--h"))  # the grid divides by h
        ratios = np.linspace(4.5 / args.points, 4.5, args.points)
        omegas = ratios * math.pi / h
        result = fputmod.experiment_resonance_sweep(
            _known_scheme(args.scheme), params, h, T, omegas, tol=_stage_tol(args))
        result.write_csv(args.out or "sweep.csv")
        errors = result.max_energy_error
        peak = ("none, every point failed" if np.isnan(errors).all()
                else _fmt(result.h_omega_over_pi[int(np.nanargmax(errors))]))
        print(f"sweep: {args.points} points, largest peak at h*omega/pi = {peak}",
              file=sys.stderr)
        if result.failures:
            for idx, msg in result.failures:
                print(f"  point {idx} failed: {msg}", file=sys.stderr)
            return 1
        return 0

    if args.experiment == "reduction":
        names = [_known_scheme(s) for s in args.schemes.split(",")]
        params = fputmod.FputParams(ell=args.ell, omega=_given(args.omega, 50.0))
        h_grid = ([float(x) for x in args.h_list.split(",")] if args.h_list
                  else [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625])
        omega_grid = ([float(x) for x in args.omega_list.split(",")] if args.omega_list
                      else [10.0, 100.0, 1000.0, 10000.0])
        T = _given(args.T, 3.0)
        fputmod._step_grid(h_grid, T, ("--T", "--h-list value"))
        table = fputmod.experiment_order_reduction(
            names, params, T, h_grid, omega_grid,
            tol=_stage_tol(args), reference_tol=args.ref_tol)
        table.write_csv(args.out or "reduction.csv")
        print(f"reduction: {len(table.rows)} rows, {len(table.failures)} failed points",
              file=sys.stderr)
        for idx, msg in table.failures:
            print(f"  row {idx} failed: {msg}", file=sys.stderr)
        return 1 if table.failures else 0

    raise ValueError(f"unknown experiment {args.experiment!r}")


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _cmd_converge(args) -> int:
    names = [_known_scheme(s) for s in args.schemes.split(",")]
    params = fputmod.FputParams(ell=args.ell, omega=args.omega)
    h_list = ([float(x) for x in args.h_list.split(",")] if args.h_list
              else [1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160])
    fputmod._step_grid(h_list, args.T, ("--T", "--h-list value"))
    errors = fputmod.convergence_errors(names, params, h_list, args.T,
                                        tol=_stage_tol(args), reference_tol=args.ref_tol)
    rows = []
    for name, errs in zip(names, errors):
        slope = fputmod.fit_loglog_slope(h_list, errs, floor=1e-12)
        print(f"{name}: slope {slope:.3f}", file=sys.stderr)
        rows += [(name, h, e) for h, e in zip(h_list, errs)]
    _write_table(args.out, "scheme,h,err", "%s,%.17g,%.17g", rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symparc",
        description="Symplectic additive Runge-Kutta methods for oscillatory systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableau", help="print the coefficient set of one method")
    p.add_argument("--s1", type=int, required=True, help="primary stage count (>= 2)")
    p.add_argument("--variant", choices=["interpolation", "collocation"],
                   required=True)
    p.add_argument("--verify", action="store_true",
                   help="append the order-condition residual report")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_tableau)

    p = sub.add_parser("stability", help="stability function, intervals, resonances")
    p.add_argument("--scheme", required=True, help="lgl2|lgl4|lgl6|lglc2|lglc4|lglc6")
    p.add_argument("--mu-max", type=float, default=12.0, dest="mu_max")
    p.add_argument("--grid", type=int, default=2001, help="CSV sample count")
    p.add_argument("--out", default="stability", help="prefix for .csv/.json output")
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("integrate", help="integrate one problem, write trajectory CSV")
    p.add_argument("--scheme", required=True, help=_SCHEME_CHOICES)
    p.add_argument("--problem", choices=["fput", "free"], default="fput")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--omega", type=float, default=50.0)
    p.add_argument("--dim", type=int, default=1, help="dimension of the free problem")
    p.add_argument("--q0", default="", help="comma-separated initial positions (free)")
    p.add_argument("--p0", default="", help="comma-separated initial momenta (free)")
    p.add_argument("--h", type=float, default=0.04)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--tol", type=float, default=None, help="stage tolerance")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="traj.csv")
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("fput", help="oscillatory-chain experiment suite")
    p.add_argument("experiment", choices=["energy", "sweep", "reduction", "highfreq"])
    p.add_argument("--scheme", default="lgl4", help=_SCHEME_CHOICES)
    p.add_argument("--schemes", default="lgl4,imex-yoshida4",
                   help="comma list for the reduction experiment")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--omega", type=float, default=None,
                   help="stiff frequency (default 50; 1000 for highfreq)")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--points", type=int, default=450, help="sweep grid size")
    p.add_argument("--h-list", default=None, dest="h_list")
    p.add_argument("--omega-list", default=None, dest="omega_list")
    p.add_argument("--tol", type=float, default=None, help="stage tolerance")
    p.add_argument("--ref-tol", type=float, default=1e-9, dest="ref_tol")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_fput)

    p = sub.add_parser("converge", help="global-error convergence study")
    p.add_argument("--schemes", default="lgl2,lgl4,lgl6")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--h-list", default=None, dest="h_list")
    p.add_argument("--tol", type=float, default=None, help="stage tolerance")
    p.add_argument("--ref-tol", type=float, default=1e-13, dest="ref_tol")
    p.add_argument("--out", default="converge.csv")
    p.set_defaults(fn=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad input: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StageSolveError, OracleFailureError) as exc:  # a run that failed: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
