import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symparc
from symparc import fput, stability
from symparc.cli import main
from symparc.integrator import (
    SolverMode,
    StageSolveConfig,
    integrate,
    reference_solve,
    scheme_from_name,
)

from _helpers import cellwise_csv

R3 = math.sqrt(3.0)


def run_cli(args):
    return main(args)


def test_tableau_prints_scheme_json(capsys):
    assert run_cli(["tableau", "--s1", "3", "--variant", "interpolation"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["s1"] == 3 and data["variant"] == "interpolation"
    assert abs(data["Atilde"][0][0] - (1 / 6 - R3 / 36)) < 1e-16


def test_tableau_collocation_values(capsys):
    assert run_cli(["tableau", "--s1", "2", "--variant", "collocation"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["Atilde"] == [[0.375, 0.125]]


def test_tableau_verify_appends_report(capsys, tmp_path):
    assert run_cli(["tableau", "--s1", "5", "--variant", "interpolation",
                    "--verify"]) == 0
    out = capsys.readouterr().out
    scheme_text, report_text = out.split("\n{", 1)
    report = json.loads("{" + report_text)
    assert report["passed"] is True
    required = [c for c in report["conditions"] if c["required"]]
    assert max(c["residual"] for c in required) < 1e-11

    path = tmp_path / "scheme.json"
    assert run_cli(["tableau", "--s1", "3", "--variant", "collocation",
                    "--out", str(path)]) == 0
    assert path.read_text().startswith("{")


def test_tableau_usage_error():
    with pytest.raises(SystemExit) as info:
        run_cli(["tableau", "--s1", "3"])
    assert info.value.code == 2
    assert run_cli(["tableau", "--s1", "0", "--variant", "interpolation"]) == 2


def test_stability_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "stab")
    assert run_cli(["stability", "--scheme", "lglc4", "--mu-max", "12",
                    "--grid", "601", "--out", prefix]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "stab.json").read_text())
    assert report["p_stable"] is False
    intervals = report["intervals"]
    assert len(intervals) == 2
    assert abs(intervals[0][1] - 6 * math.sqrt(33) / 11) < 1e-8
    assert abs(intervals[1][0] - 2 * R3) < 1e-8
    assert abs(intervals[1][1] - 3 * math.sqrt(6)) < 1e-8

    lines = (tmp_path / "stab.csv").read_text().strip().split("\n")
    assert lines[0] == "mu,half_trace,det,m11,m22,modified_mu"
    assert len(lines) == 602
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_stability_p_stable_scheme(tmp_path, capsys):
    prefix = str(tmp_path / "s")
    assert run_cli(["stability", "--scheme", "lgl6", "--mu-max", "40",
                    "--grid", "101", "--out", prefix]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["p_stable"] is True
    tangents = [r for r in report["resonances"] if r["tangent"]]
    assert len(tangents) == 2


def test_stability_usage_error(tmp_path, capsys):
    assert run_cli(["stability", "--scheme", "lgl4", "--mu-max", "0",
                    "--out", "/tmp/x"]) == 2
    assert run_cli(["stability", "--scheme", "lgl4", "--mu-max", "inf",
                    "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_stability_rejects_empty_grid(tmp_path, capsys, grid):
    assert run_cli(["stability", "--scheme", "lgl4", "--grid", grid,
                    "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: --grid")
    assert list(tmp_path.iterdir()) == []


def test_stability_csv_is_cellwise(tmp_path, capsys):
    # lglc4 on [0, 12] has unstable stretches, so modified_mu holds NaNs
    assert run_cli(["stability", "--scheme", "lglc4", "--mu-max", "12",
                    "--grid", "97", "--out", str(tmp_path / "s")]) == 0
    mus = np.linspace(0.0, 12.0, 97)
    scheme = scheme_from_name("lglc4")
    M = stability.stability_matrix_samples(scheme, mus)
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    mu_t = stability.filter_functions(scheme, mus).modified_mu
    assert np.isnan(mu_t).any()
    rows = zip(mus.tolist(), stability.half_trace_samples(scheme, mus).tolist(),
               det.tolist(), M[:, 0, 0].tolist(), M[:, 1, 1].tolist(), mu_t.tolist())
    expected = cellwise_csv("mu,half_trace,det,m11,m22,modified_mu", rows)
    assert (tmp_path / "s.csv").read_bytes() == expected


def test_integrate_free_problem(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli(["integrate", "--scheme", "lgl4", "--problem", "free",
                    "--dim", "2", "--q0", "1,2", "--p0", "0.5,-1",
                    "--h", "0.25", "--T", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0
    assert abs(last[1] - 1.5) < 1e-14
    assert abs(last[2] - 1.0) < 1e-14


def test_integrate_fput_row_count(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli(["integrate", "--scheme", "lgl4", "--h", "0.04", "--T", "20",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 502  # header + T/h + 1 states
    err = capsys.readouterr().err
    assert "|H-H0|" in err


def test_integrate_fixed_point_nonconvergence(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli(["integrate", "--scheme", "lgl4", "--omega", "100",
                    "--h", "1.0", "--T", "3", "--solver", "fixed-point",
                    "--out", str(out)])
    assert code == 1
    assert "step 0" in capsys.readouterr().err


def test_integrate_rejects_unknown_scheme(tmp_path, capsys):
    assert run_cli(["integrate", "--scheme", "rk4", "--T", "1",
                    "--out", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("flags", [["--h", "0"], ["--h", "inf"], ["--T", "inf"],
                                   ["--tol", "inf"]],
                         ids=["h-zero", "h-inf", "T-inf", "tol-inf"])
def test_integrate_rejects_invalid_step(tmp_path, capsys, flags):
    out = tmp_path / "traj.csv"
    assert run_cli(["integrate", "--scheme", "lgl4", "--h", "0.1", "--T", "1",
                    "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_fput_energy_deterministic_reruns(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    args = ["fput", "energy", "--scheme", "lgl4", "--T", "2", "--out", str(out)]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first
    assert b"\r" not in first
    header = first.decode().split("\n", 1)[0]
    assert header == "t,H_err,I1,I2,I3,I_total"


def test_fput_sweep_small(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli(["fput", "sweep", "--scheme", "lgl4", "--T", "2",
                    "--points", "6", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 7


def test_fput_sweep_takes_the_solver_flags(tmp_path, capsys, monkeypatch):
    # --solver and --tol reach the sweep's stepper as they reach every other
    # experiment's; fixed-point iteration diverges at these h*omega, so every
    # point fails, and the sweep says so
    configs = []
    plain = fput.make_stepper

    def recorded(scheme, system, config=None):
        configs.append(config)
        return plain(scheme, system, config)

    monkeypatch.setattr(fput, "make_stepper", recorded)
    out = tmp_path / "sweep.csv"
    assert run_cli(["fput", "sweep", "--points", "4", "--T", "0.2", "--solver", "fixed-point",
                    "--tol", "1e-11", "--out", str(out)]) == 1
    assert configs and all(c == StageSolveConfig(tolerance=1e-11, mode=SolverMode.FIXED_POINT)
                           for c in configs)
    err = capsys.readouterr().err
    assert "every point failed" in err and err.count("NonconvergenceError") == 4


@pytest.mark.parametrize("flags", [["--points", "0"], ["--h", "-0.02"], ["--T", "-1"],
                                   ["--h", "0"]],
                         ids=["points-zero", "h-negative", "T-negative", "h-zero"])
def test_fput_sweep_rejects_invalid_input(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    assert run_cli(["fput", "sweep", "--points", "4", "--T", "1", "--out", str(out)]
                   + flags) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_fput_energy_rejects_zero_step(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert run_cli(["fput", "energy", "--h", "0", "--T", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["energy", "highfreq"])
def test_fput_energy_rejects_infinite_time(tmp_path, capsys, experiment):
    out = tmp_path / "energy.csv"
    assert run_cli(["fput", experiment, "--T", "inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: T must be nonnegative and finite")
    assert not out.exists()


def test_fput_highfreq_runs_at_given_omega(tmp_path, capsys):
    # 50 is the other experiments' default; highfreq must not replace it by 1000
    out = tmp_path / "highfreq.csv"
    assert run_cli(["fput", "highfreq", "--omega", "50", "--T", "0.4",
                    "--out", str(out)]) == 0
    ratio = float(capsys.readouterr().err.split("h*omega/pi = ")[1].split(",")[0])
    assert ratio == pytest.approx(0.1 * 50.0 / math.pi, rel=1e-15)
    assert len(out.read_text().strip().split("\n")) == 6


def test_fput_reduction_small(tmp_path, capsys):
    out = tmp_path / "reduction.csv"
    assert run_cli(["fput", "reduction", "--schemes", "lgl4",
                    "--h-list", "0.1,0.05", "--omega-list", "10",
                    "--T", "1", "--ref-tol", "1e-9", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,omega,h,err_qs,err_ps"
    assert len(lines) == 3


@pytest.mark.parametrize("command", [["fput", "reduction", "--schemes", "lgl4",
                                      "--h-list", "0.1", "--omega-list", "10", "--T", "1"],
                                     ["converge", "--schemes", "lgl2", "--T", "0.5",
                                      "--h-list", "0.05,0.025"]],
                         ids=["fput-reduction", "converge"])
def test_reference_tolerance_zero_rejected(tmp_path, capsys, monkeypatch, command):
    # a tolerance of 0 can never be certified; it must be refused before the
    # oracle runs, never by doubling the step count until it gives up
    import symparc.integrator as integrator

    def never(*args):
        raise AssertionError("the oracle ran before its tolerance was checked")

    monkeypatch.setattr(integrator, "_rk8_final_state", never)
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--ref-tol", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", [["fput", "reduction", "--schemes", "lgl4",
                                      "--h-list", "0", "--omega-list", "10", "--T", "1"],
                                     ["converge", "--schemes", "lgl2", "--T", "0.5",
                                      "--h-list", "0,0.1"]],
                         ids=["fput-reduction", "converge"])
def test_zero_step_in_h_list_rejected(tmp_path, capsys, monkeypatch, command):
    import symparc.fput as fput

    def never(*args, **kwargs):
        raise AssertionError("the oracle ran before the h grid was checked")

    monkeypatch.setattr(fput, "reference_solve", never)
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_fput_unknown_experiment():
    with pytest.raises(SystemExit) as info:
        run_cli(["fput", "spectrum"])
    assert info.value.code == 2


def test_converge_runs(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert run_cli(["converge", "--schemes", "lgl2", "--omega", "1",
                    "--T", "0.5", "--h-list", "0.05,0.025,0.0125",
                    "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "slope" in err
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,h,err"
    assert len(lines) == 4


def test_converge_csv_is_cellwise(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    h_list = [0.05, 0.025]
    assert run_cli(["converge", "--schemes", "lgl2,lgl4", "--omega", "1", "--T", "0.5",
                    "--h-list", "0.05,0.025", "--out", str(out)]) == 0
    rows = [(name, h, e) for name in ("lgl2", "lgl4")
            for h, e in zip(h_list, fput.convergence_errors(
                name, fput.FputParams(ell=3, omega=1.0), h_list, 0.5))]
    assert out.read_bytes() == cellwise_csv("scheme,h,err", rows)


def test_converge_fixed_point_matches_single_state_runs(tmp_path, capsys):
    # the h grid runs as one batch in fixed-point mode too, with no per-h loop
    out = tmp_path / "conv.csv"
    h_list = [0.05, 0.025, 0.0125]
    assert run_cli(["converge", "--schemes", "lgl2", "--omega", "1", "--T", "0.5",
                    "--h-list", "0.05,0.025,0.0125", "--solver", "fixed-point",
                    "--out", str(out)]) == 0
    params = fput.FputParams(ell=3, omega=1.0)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    ref = reference_solve(system, state0, 0.5, tol=1e-13)
    config = StageSolveConfig(mode=SolverMode.FIXED_POINT)
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == len(h_list)
    for row, h in zip(rows, h_list):
        name, h_row, err = row.split(",")
        n_steps = round(0.5 / h)
        final = integrate("lgl2", system, state0, 0.5 / n_steps, n_steps,
                          config=config).final_state()
        want = max(np.max(np.abs(final.q - ref.q)), np.max(np.abs(final.p - ref.p)))
        assert name == "lgl2" and float(h_row) == h
        assert abs(float(err) - want) <= 1e-13 * want


def test_fput_reduction_fixed_point_matches_single_state_runs(tmp_path, capsys):
    out = tmp_path / "reduction.csv"
    assert run_cli(["fput", "reduction", "--schemes", "lgl4,imex-yoshida4",
                    "--h-list", "0.1,0.05,0.03", "--omega-list", "2", "--T", "1",
                    "--ref-tol", "1e-10", "--solver", "fixed-point",
                    "--out", str(out)]) == 0
    params = fput.FputParams(ell=3, omega=2.0)
    system, state0 = fput.fput_system(params), fput.paper_initial_state(params)
    ref = reference_solve(system, state0, 1.0, tol=1e-10)
    config = StageSolveConfig(mode=SolverMode.FIXED_POINT)
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 6
    for row in rows:
        name, omega, h, err_q, err_p = row.split(",")
        n_steps = round(1.0 / float(h))
        final = integrate(name, system, state0, 1.0 / n_steps, n_steps,
                          config=config).final_state()
        for got, want in ((err_q, np.max(np.abs(final.q[:3] - ref.q[:3]))),
                          (err_p, np.max(np.abs(final.p[:3] - ref.p[:3])))):
            assert abs(float(got) - want) <= 1e-13 * want


def test_cli_imports_no_scipy():
    # the library needs NumPy only; SciPy's import would dominate every call
    src = str(Path(symparc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, symparc.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
