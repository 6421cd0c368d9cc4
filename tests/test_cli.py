import json
import math

import numpy as np
import pytest

from symparc.cli import main

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


def test_stability_usage_error(capsys):
    assert run_cli(["stability", "--scheme", "lgl4", "--mu-max", "0",
                    "--out", "/tmp/x"]) == 2


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
