import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symparc
from symparc import fput, stability
from symparc.cli import build_parser, main
from symparc.integrator import scheme_from_name

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
    # a scan too long to hold is refused by name, with no traceback
    capsys.readouterr()
    assert run_cli(["stability", "--scheme", "lgl4", "--mu-max", "1e7",
                    "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: --mu-max must be positive and at most")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["0", "-3", "10000000000000"])
def test_stability_rejects_empty_grid(tmp_path, capsys, grid):
    # a grid too large to hold is refused by the check, before any sample
    # is allocated
    assert run_cli(["stability", "--scheme", "lgl4", "--grid", grid,
                    "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: --grid must be")
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


def test_stability_csv_streams(tmp_path, capsys):
    # the CSV is written one kernel chunk of mu at a time: a 100,001-sample
    # grid holds its 0.8 MB of mu and one chunk's rows, where the whole
    # (N, 2, 2) matrix and six N-row column lists took about 27 MB
    run_cli(["stability", "--scheme", "lgl4", "--grid", "11", "--out", str(tmp_path / "w")])
    tracemalloc.start()
    try:
        assert run_cli(["stability", "--scheme", "lgl4", "--mu-max", "12",
                        "--grid", "100001", "--out", str(tmp_path / "s")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
    assert len((tmp_path / "s.csv").read_bytes().split(b"\n")) == 1 + 100001 + 1


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


@pytest.mark.parametrize("flags,named", [
    (["--problem", "free", "--dim", "1", "--q0", "1", "--p0", "0", "--omega", "1000",
      "--ell", "9"], "--ell"),
    (["--problem", "free", "--omega", "1"], "--omega"),
    (["--dim", "4", "--q0", "1,2"], "--dim"),
    (["--q0", "1"], "--q0"),
    (["--problem", "fput", "--p0", "0"], "--p0"),
], ids=["free-ell", "free-omega", "chain-dim", "chain-q0", "chain-p0"])
def test_integrate_refuses_the_other_problems_flags(tmp_path, capsys, flags, named):
    # a flag that the chosen problem never reads is refused by name, not ignored
    out = tmp_path / "traj.csv"
    assert run_cli(["integrate", "--scheme", "lgl4", "--T", "1", "--out", str(out)]
                   + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {named} does not apply to --problem ")
    assert not out.exists()


def _integrate_rows(tmp_path, fmt, stride):
    """The CSV rows, or the JSON object, of a 50-step lgl4 chain run."""
    out = tmp_path / f"traj-{stride}.{fmt}"
    assert run_cli(["integrate", "--scheme", "lgl4", "--h", "0.04", "--T", "2",
                    "--stride", str(stride), "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    return json.loads(text) if fmt == "json" else text.strip().split("\n")


def test_integrate_csv_records_the_state_at_T(tmp_path, capsys):
    # 50 steps with stride 3 record t0, steps 3, 6, ..., 48 and then step
    # 50, each row as the stride-1 run has it, its stage_iters included
    every, strided = (_integrate_rows(tmp_path, "csv", stride) for stride in (1, 3))
    steps = list(range(0, 50, 3)) + [50]
    assert strided == [every[0]] + [every[1 + k] for k in steps]
    assert float(strided[-1].split(",")[0]) == 2.0
    assert "final t=2," in capsys.readouterr().err


def test_integrate_json_records_the_state_at_T(tmp_path, capsys):
    every, strided = (_integrate_rows(tmp_path, "json", stride) for stride in (1, 3))
    assert strided["t"][-1] == every["t"][-1] == 2.0
    assert strided["q"][-1] == every["q"][-1] and strided["p"][-1] == every["p"][-1]
    assert strided["stage_iters"] == every["stage_iters"]
    assert len(strided["t"]) == len(strided["q"]) == 1 + 16 + 1


def test_integrate_fixed_point_nonconvergence(tmp_path, capsys):
    # at h = 2 the fixed-point iteration of the chain's slow force diverges
    # in the first step
    out = tmp_path / "traj.csv"
    code = run_cli(["integrate", "--scheme", "lgl4", "--omega", "1",
                    "--h", "2", "--T", "4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step 0" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fput", "energy", "--h", "1.5", "--T", "3"],
    ["converge", "--schemes", "lgl4", "--omega", "1", "--h-list", "2,1", "--T", "4"],
    ["converge", "--schemes", "lgl2", "--T", "0.5", "--h-list", "0.1,0.05",
     "--ref-tol", "1e-15"],
], ids=["energy-stage-failure", "converge-stage-failure", "converge-oracle-failure"])
def test_run_time_failures_print_error(tmp_path, capsys, args):
    # a stage solve or oracle that fails is one message and exit 1 in every
    # command, as in integrate, not a traceback
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_integrate_rejects_unknown_scheme(tmp_path, capsys):
    assert run_cli(["integrate", "--scheme", "rk4", "--T", "1",
                    "--out", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("flags", [["--h", "0"], ["--h", "inf"], ["--T", "inf"],
                                   ["--tol", "inf"], ["--T", "-1"], ["--stride", "0"],
                                   ["--h", "5e-324", "--T", "1e300"]],
                         ids=["h-zero", "h-inf", "T-inf", "tol-inf", "T-negative",
                              "stride-zero", "h-too-small"])
def test_integrate_rejects_invalid_step(tmp_path, capsys, flags):
    out = tmp_path / "traj.csv"
    assert run_cli(["integrate", "--scheme", "lgl4", "--h", "0.1", "--T", "1",
                    "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flags[0] in err
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
    # --tol reaches the sweep's stepper as it reaches every other
    # experiment's; the slow force's iteration diverges at h = 1.5, so every
    # point fails, and the sweep says so
    tols = []
    plain = fput.make_stepper

    def recorded(scheme, system, tol=1e-12):
        tols.append(tol)
        return plain(scheme, system, tol)

    monkeypatch.setattr(fput, "make_stepper", recorded)
    out = tmp_path / "sweep.csv"
    assert run_cli(["fput", "sweep", "--points", "4", "--T", "3", "--h", "1.5",
                    "--tol", "1e-11", "--out", str(out)]) == 1
    assert tols and all(tol == 1e-11 for tol in tols)
    err = capsys.readouterr().err
    assert "every point failed" in err and err.count("NonconvergenceError") == 4
    # each names the step it failed in, as the reduction study's failures do
    assert len(re.findall(r"NonconvergenceError: step \d+ \(t=[^)]+\): ", err)) == 4


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


@pytest.mark.parametrize("args", [["fput", "energy", "--h", "1e-320", "--T", "1e10"],
                                  ["fput", "highfreq", "--h", "1e-320"],
                                  ["fput", "sweep", "--h", "1e-320", "--T", "1"]],
                         ids=["energy", "highfreq", "sweep"])
def test_fput_rejects_step_counts_beyond_int64(tmp_path, capsys, args):
    # T / h of 2^63 steps or more (here inf) fits no int64 step count: it is
    # refused by name, not left to overflow or to wrap around
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --h ")
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["energy", "highfreq"])
def test_fput_energy_rejects_infinite_time(tmp_path, capsys, experiment):
    out = tmp_path / "energy.csv"
    assert run_cli(["fput", experiment, "--T", "inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --T must be nonnegative and finite")
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
                                      "--h-list", "0,0.1"],
                                     ["fput", "reduction", "--schemes", "lgl2",
                                      "--h-list", "1e-320", "--omega-list", "1", "--T", "0.5"],
                                     ["converge", "--schemes", "lgl2", "--T", "0.5",
                                      "--h-list", "1e-320,0.1"]],
                         ids=["fput-reduction", "converge", "fput-reduction-overflow",
                              "converge-overflow"])
def test_zero_step_in_h_list_rejected(tmp_path, capsys, monkeypatch, command):
    # as is an h whose step count T / h (inf here) fits no int64
    import symparc.fput as fput

    def never(*args, **kwargs):
        raise AssertionError("the oracle ran before the h grid was checked")

    monkeypatch.setattr(fput, "reference_solve", never)
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--h-list" in err
    assert not out.exists()


@pytest.mark.parametrize("T", ["-1", "0"])
@pytest.mark.parametrize("command", [["fput", "reduction", "--schemes", "lgl4",
                                      "--h-list", "0.05", "--omega-list", "10"],
                                     ["converge", "--schemes", "lgl2",
                                      "--h-list", "0.05,0.025"]],
                         ids=["fput-reduction", "converge"])
def test_nonpositive_horizon_rejected(tmp_path, capsys, monkeypatch, command, T):
    # the runs step by T / n, so T = 0 would step by h = 0 and T = -1 backwards
    import symparc.fput as fput

    def never(*args, **kwargs):
        raise AssertionError("the oracle ran before T was checked")

    monkeypatch.setattr(fput, "reference_solve", never)
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--T", T, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --T must be positive and finite")
    assert not out.exists()


def test_fput_unknown_experiment():
    with pytest.raises(SystemExit) as info:
        run_cli(["fput", "spectrum"])
    assert info.value.code == 2


# the flags each experiment reads, each at its default
_FPUT_DEFAULTS = {
    "energy": {"--scheme": "lgl4", "--ell": "3", "--omega": "50.0", "--h": "2/omega",
               "--T": "200.0", "--tol": "1e-12", "--out": "energy.csv"},
    "highfreq": {"--scheme": "lgl4", "--ell": "3", "--omega": "1000.0", "--h": "0.1",
                 "--T": "4000.0", "--tol": "1e-12", "--out": "highfreq.csv"},
    "sweep": {"--scheme": "lgl4", "--ell": "3", "--points": "450", "--h": "0.02",
              "--T": "100.0", "--tol": "1e-12", "--out": "sweep.csv"},
    "reduction": {"--schemes": "lgl4,imex-yoshida4", "--ell": "3",
                  "--h-list": "0.2,0.1,0.05,0.025,0.0125,0.00625",
                  "--omega-list": "10,100,1000,10000", "--T": "3.0", "--tol": "1e-12",
                  "--ref-tol": "1e-09", "--out": "reduction.csv"},
}
_FPUT_FLAGS = sorted(set().union(*_FPUT_DEFAULTS.values()))
_VALUES = {"--scheme": "lgl4", "--schemes": "lgl4", "--ell": "3", "--omega": "50",
           "--h": "0.1", "--T": "0.2", "--points": "4", "--h-list": "0.1",
           "--omega-list": "10", "--tol": "1e-12", "--ref-tol": "1e-9", "--out": "x.csv"}


@pytest.mark.parametrize("experiment,flag", [
    (experiment, flag) for experiment, flags in _FPUT_DEFAULTS.items()
    for flag in _FPUT_FLAGS if flag not in flags])
def test_fput_refuses_flags_the_experiment_never_reads(tmp_path, capsys, monkeypatch,
                                                      experiment, flag):
    # 19 pairs; a prefix of a flag that the experiment reads (reduction's
    # --h of --h-list, --scheme of --schemes) is no abbreviation of it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        run_cli(["fput", experiment, "--T", "0.2", flag, _VALUES[flag]])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,flag", [
    (["converge", "--scheme", "lgl2", "--T", "0.2", "--h-list", "0.05,0.025"], "--scheme"),
    (["stability", "--scheme", "lgl2", "--mu", "3"], "--mu"),
    (["integrate", "--scheme", "lgl4", "--h", "0.04", "--T", "0.1", "--st", "1"], "--st"),
    (["tableau", "--s1", "3", "--var", "interpolation"], "--variant")])
def test_cli_refuses_abbreviated_flags(tmp_path, capsys, monkeypatch, args, flag):
    # each abbreviates one flag (--schemes, --mu-max, --stride, --variant)
    # and used to run as it; the tableau's names the flag as missing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        run_cli(args)
    assert info.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fput_refuses_flags_before_the_experiment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        run_cli(["fput", "--T", "2", "energy"])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment", list(_FPUT_DEFAULTS))
def test_fput_help_names_the_defaults(capsys, monkeypatch, experiment):
    monkeypatch.setenv("COLUMNS", "200")  # no help text is wrapped
    with pytest.raises(SystemExit) as info:
        run_cli(["fput", experiment, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for flag, default in _FPUT_DEFAULTS[experiment].items():
        entry = rf"^  {flag} [A-Z_]+\s+[^\n]*\(default: {re.escape(default)}\)$"
        assert re.search(entry, out, re.MULTILINE), (flag, out)


@pytest.mark.parametrize("experiment", list(_FPUT_DEFAULTS))
def test_fput_defaults_given_change_nothing(tmp_path, capsys, monkeypatch, experiment):
    # every flag given at its default parses as no flag given (energy's --h
    # has no value to give: it is worked out from --omega), and a short run
    # writes the same bytes either way
    def flat(flags):
        return [x for item in flags.items() for x in item]

    given = dict(_FPUT_DEFAULTS[experiment])
    if experiment == "energy":
        del given["--h"]
    parser = build_parser()
    assert (parser.parse_args(["fput", experiment, *flat(given)])
            == parser.parse_args(["fput", experiment]))

    monkeypatch.chdir(tmp_path)
    given["--T"] = "0.1" if experiment == "sweep" else "0.4"
    if experiment == "energy":
        given["--h"] = "0.04"  # 2 / omega
    runs = []
    for flags in (["--T", given["--T"]], flat(given)):
        assert run_cli(["fput", experiment, *flags]) == 0
        runs.append(((tmp_path / f"{experiment}.csv").read_bytes(), capsys.readouterr().err))
    assert runs[0] == runs[1]


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


def test_converge_certifies_one_reference(tmp_path, capsys, monkeypatch):
    # every scheme is measured against the same reference, solved once
    calls = []
    plain = fput.reference_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(fput, "reference_solve", counted)
    assert run_cli(["converge", "--schemes", "lgl2,lgl4,lgl6", "--T", "0.5",
                    "--h-list", "0.05,0.025", "--out", str(tmp_path / "conv.csv")]) == 0
    assert len(calls) == 1


def test_converge_csv_is_cellwise(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    h_list = [0.05, 0.025]
    assert run_cli(["converge", "--schemes", "lgl2,lgl4", "--omega", "1", "--T", "0.5",
                    "--h-list", "0.05,0.025", "--out", str(out)]) == 0
    errors = fput.convergence_errors(["lgl2", "lgl4"], fput.FputParams(ell=3, omega=1.0),
                                     h_list, 0.5)
    rows = [(name, h, e) for name, errs in zip(("lgl2", "lgl4"), errors)
            for h, e in zip(h_list, errs)]
    assert out.read_bytes() == cellwise_csv("scheme,h,err", rows)


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
