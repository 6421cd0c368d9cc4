"""Command-line front end: scheme construction, stability analysis,
integration runs and the oscillatory-chain experiment suite.

All numeric output uses 17 significant digits, '.' as decimal separator and
LF line endings; reruns with identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
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
from symparc.tableaux import (build_scheme, scheme_to_csv, scheme_to_json,
                              verify_order_conditions)

_SCHEME_CHOICES = "lgl2|lgl4|lgl6|lglc2|lglc4|lglc6|imex-yoshida4|imex-yoshida6"
_DEFAULT = " (default: %(default)s)"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _stage_tol(args) -> float:
    """The stage tolerance --tol, checked."""
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise ValueError("--tol must be positive and finite")
    return args.tol


def _floats(text: str) -> list[float]:
    """A comma-separated list of numbers, such as an --h-list."""
    return [float(x) for x in text.split(",")]


def _known_scheme(name: str) -> str:
    if name.startswith("imex-yoshida"):
        _composition_order(name)  # raises on bad names
    else:
        scheme_from_name(name)  # raises on bad names
    return name


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------

def _cmd_tableau(args) -> int:
    scheme = build_scheme(args.s1, args.variant)
    if args.verify and args.format == "csv":
        raise ValueError("--verify needs --format json")
    text = scheme_to_csv(scheme) if args.format == "csv" else scheme_to_json(scheme)
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


def _stability_rows(scheme, mus):
    """The stability CSV's rows, one kernel chunk of mu solved at a time, so
    that no (N, 2, 2) matrix or N-row column list is held."""
    for start in range(0, len(mus), stab._CHUNK):
        m = mus[start:start + stab._CHUNK]
        M = stab.stability_matrix_samples(scheme, m)
        m11, m22 = M[:, 0, 0], M[:, 1, 1]
        ht = 0.5 * (m11 + m22)
        det = m11 * m22 - M[:, 0, 1] * M[:, 1, 0]
        yield from zip(*(c.tolist() for c in (m, ht, det, m11, m22, stab._modified_mu(ht))))


def _cmd_stability(args) -> int:
    if not 0.0 < args.mu_max <= stab.MAX_INTERVAL_MU:
        raise ValueError(f"--mu-max must be positive and at most {stab.MAX_INTERVAL_MU:g}")
    if not 1 <= args.grid <= stab.MAX_GRID_SAMPLES:
        raise ValueError(f"--grid must be at least 1 and at most {stab.MAX_GRID_SAMPLES:,}")
    scheme = scheme_from_name(args.scheme)
    report = stab.stability_intervals(scheme, args.mu_max)

    _write_table(args.out + ".csv", "mu,half_trace,det,m11,m22,modified_mu",
                 ",".join(["%.17g"] * 6),
                 _stability_rows(scheme, np.linspace(0.0, args.mu_max, args.grid)))
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


# the flags that each problem never reads; each is None unless given
_FOREIGN_FLAGS = {"fput": ("--dim", "--q0", "--p0"), "free": ("--ell", "--omega")}


def _cmd_integrate(args) -> int:
    name = _known_scheme(args.scheme)
    n_steps = _step_count(args.T, args.h, ("--T", "--h"))
    if args.stride < 1:
        raise ValueError("--stride must be at least 1")
    for flag in _FOREIGN_FLAGS[args.problem]:
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"{flag} does not apply to --problem {args.problem}")
    if args.problem == "fput":
        params = fputmod.FputParams(ell=3 if args.ell is None else args.ell,
                                    omega=50.0 if args.omega is None else args.omega)
        system = fputmod.fput_system(params)
        state0 = fputmod.paper_initial_state(params)
    else:
        d = 1 if args.dim is None else args.dim
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

def _cmd_energy(args) -> int:
    """fput energy and fput highfreq: one run and its energy history."""
    params = fputmod.FputParams(ell=args.ell, omega=args.omega)
    h = 2.0 / params.omega if args.h is None else args.h
    _step_count(args.T, h, ("--T", "--h"))
    history = fputmod.experiment_energy(_known_scheme(args.scheme), params, h, args.T,
                                        tol=_stage_tol(args))
    history.write_csv(args.out)
    detail = (f"{len(history.times) - 1} steps" if args.experiment == "energy"
              else f"h*omega/pi = {_fmt(h * params.omega / math.pi)}")
    print(f"{args.experiment}: {detail}, "
          f"max |H-H0| = {_fmt(np.max(history.energy_error))}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    params = fputmod.FputParams(ell=args.ell)
    _step_count(args.T, args.h, ("--T", "--h"))  # the grid divides by h
    ratios = np.linspace(4.5 / args.points, 4.5, args.points)
    omegas = ratios * math.pi / args.h
    result = fputmod.experiment_resonance_sweep(
        _known_scheme(args.scheme), params, args.h, args.T, omegas, tol=_stage_tol(args))
    result.write_csv(args.out)
    errors = result.max_energy_error
    peak = ("none, every point failed" if np.isnan(errors).all()
            else _fmt(result.h_omega_over_pi[int(np.nanargmax(errors))]))
    print(f"sweep: {args.points} points, largest peak at h*omega/pi = {peak}",
          file=sys.stderr)
    for idx, msg in result.failures:
        print(f"  point {idx} failed: {msg}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_reduction(args) -> int:
    names = [_known_scheme(s) for s in args.schemes.split(",")]
    params = fputmod.FputParams(ell=args.ell)
    h_grid, omega_grid = _floats(args.h_list), _floats(args.omega_list)
    fputmod._step_grid(h_grid, args.T, ("--T", "--h-list value"))
    table = fputmod.experiment_order_reduction(
        names, params, args.T, h_grid, omega_grid,
        tol=_stage_tol(args), reference_tol=args.ref_tol)
    table.write_csv(args.out)
    print(f"reduction: {len(table.rows)} rows, {len(table.failures)} failed points",
          file=sys.stderr)
    for idx, msg in table.failures:
        print(f"  row {idx} failed: {msg}", file=sys.stderr)
    return 1 if table.failures else 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _cmd_converge(args) -> int:
    names = [_known_scheme(s) for s in args.schemes.split(",")]
    params = fputmod.FputParams(ell=args.ell, omega=args.omega)
    h_list = _floats(args.h_list)
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
        prog="symparc", allow_abbrev=False,
        description="Symplectic additive Runge-Kutta methods for oscillatory systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    # no parser takes a prefix of a flag for the flag: it would rename it
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("tableau", help="print the coefficient set of one method")
    p.add_argument("--s1", type=int, required=True, help="primary stage count (>= 2)")
    p.add_argument("--variant", choices=["interpolation", "collocation"],
                   required=True)
    p.add_argument("--verify", action="store_true",
                   help="append the order-condition residual report")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_tableau)

    p = command("stability", help="stability function, intervals, resonances")
    p.add_argument("--scheme", required=True, help="lgl2|lgl4|lgl6|lglc2|lglc4|lglc6")
    p.add_argument("--mu-max", type=float, default=12.0, dest="mu_max")
    p.add_argument("--grid", type=int, default=2001, help="CSV sample count")
    p.add_argument("--out", default="stability", help="prefix for .csv/.json output")
    p.set_defaults(fn=_cmd_stability)

    p = command("integrate", help="integrate one problem, write trajectory CSV")
    p.add_argument("--scheme", required=True, help=_SCHEME_CHOICES)
    p.add_argument("--problem", choices=["fput", "free"], default="fput")
    p.add_argument("--ell", type=int, help="stiff springs of the chain (default: 3)")
    p.add_argument("--omega", type=float, help="stiff frequency of the chain (default: 50)")
    p.add_argument("--dim", type=int, help="dimension of the free problem (default: 1)")
    p.add_argument("--q0", help="comma-separated initial positions, free problem (default: 0)")
    p.add_argument("--p0", help="comma-separated initial momenta, free problem (default: 0)")
    p.add_argument("--h", type=float, default=0.04)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-12, help="stage tolerance")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="traj.csv")
    p.set_defaults(fn=_cmd_integrate)

    p = command("fput", help="oscillatory-chain experiment suite")
    experiments = p.add_subparsers(dest="experiment", required=True)

    def experiment(name, helptext, fn, T):
        """A sub-parser with the flags that every experiment reads."""
        e = experiments.add_parser(name, help=helptext, allow_abbrev=False)
        e.set_defaults(fn=fn)
        e.add_argument("--ell", type=int, default=3, help="stiff springs" + _DEFAULT)
        e.add_argument("--T", type=float, default=T, help="time horizon" + _DEFAULT)
        e.add_argument("--tol", type=float, default=1e-12, help="stage tolerance" + _DEFAULT)
        e.add_argument("--out", default=name + ".csv", help="output CSV" + _DEFAULT)
        return e

    for name, helptext, omega, h, T in (
            ("energy", "energy conservation of one run", 50.0, None, 200.0),
            ("highfreq", "one run at a large step h*omega", 1000.0, 0.1, 4000.0)):
        e = experiment(name, helptext, _cmd_energy, T)
        e.add_argument("--scheme", default="lgl4", help=_SCHEME_CHOICES + _DEFAULT)
        e.add_argument("--omega", type=float, default=omega, help="stiff frequency" + _DEFAULT)
        e.add_argument("--h", type=float, default=h, help="step size" + (
            " (default: 2/omega)" if h is None else _DEFAULT))

    e = experiment("sweep", "largest energy error over a grid of h*omega/pi",
                   _cmd_sweep, 100.0)
    e.add_argument("--scheme", default="lgl4", help=_SCHEME_CHOICES + _DEFAULT)
    e.add_argument("--h", type=float, default=0.02, help="step size" + _DEFAULT)
    e.add_argument("--points", type=int, default=450, help="h*omega/pi values to 4.5" + _DEFAULT)

    e = experiment("reduction", "global error over grids of h and omega",
                   _cmd_reduction, 3.0)
    e.add_argument("--schemes", default="lgl4,imex-yoshida4", help="scheme names" + _DEFAULT)
    e.add_argument("--h-list", default="0.2,0.1,0.05,0.025,0.0125,0.00625",
                   help="step sizes" + _DEFAULT)
    e.add_argument("--omega-list", default="10,100,1000,10000", help="frequencies" + _DEFAULT)
    e.add_argument("--ref-tol", type=float, default=1e-9, help="reference tolerance" + _DEFAULT)

    p = command("converge", help="global-error convergence study")
    p.add_argument("--schemes", default="lgl2,lgl4,lgl6")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--h-list", default="0.1,0.05,0.025,0.0125,0.00625", dest="h_list")
    p.add_argument("--tol", type=float, default=1e-12, help="stage tolerance")
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
