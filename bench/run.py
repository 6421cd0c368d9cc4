#!/usr/bin/env python3
"""Benchmark of symparc: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload stiff_oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; symparc is imported from ``src/``.
One caller repeats the workload body in a closed loop (each repetition
starts when the previous one returns) for ``--seconds``, and at least
``MIN_REPS`` times.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates plain and traced repetitions
and reports the per-layer metrics.  The last line of standard output is one
JSON object; the full record, and the spans of a traced run, go to
``bench/out/``.  ``--workload all`` runs each workload in turn, each in its
own process so that peak memory stays per workload.
"""

import os

# one BLAS thread, pinned before numpy loads (here and in every child)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
# The shared host runs this code up to twice as slowly for seconds to minutes
# at a time.  A fixed calibration kernel runs between the timed parts of a
# repetition; each part's time is rescaled by CAL_REF_S over the mean
# kernel time measured just before and just after it.
CAL_LOOPS = 1_500
CAL_REF_S = 0.004    # kernel time on a 2.1 GHz Xeon core while the host is quiet
CAL_SHARE = 0.25     # calibration seconds per timed second
CAL_MIN_S = 0.02


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_workloads():
    """Import symparc from this checkout; the import is part of set-up."""
    sys.path.insert(0, str(SRC))
    import workloads
    import symparc
    if Path(symparc.__file__).resolve().parent != SRC / "symparc":
        raise ImportError(f"symparc was imported from {symparc.__file__}, not {SRC}")
    return workloads


def _setup_probe(workload, seed):
    """One cold set-up, timed inside a fresh interpreter."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[workload].setup(seed, OUT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _calibration_s(seconds):
    """Mean time of one chunk of a fixed kernel, repeated for about ``seconds``.

    The kernel is d = 6 NumPy calls and interpreter work, the mix the
    workloads spend their time in."""
    import numpy as np
    m = np.eye(6) + np.full((6, 6), 0.01)
    chunks = []
    end = time.perf_counter() + seconds
    while not chunks or time.perf_counter() < end:
        x = np.linspace(0.1, 0.6, 6)
        t0 = time.perf_counter()
        for _ in range(CAL_LOOPS):
            y = m @ x
            y *= y
            x = 0.5 * (x + np.tanh(y))
            float(x[0]) + float(x[-1])
        chunks.append(time.perf_counter() - t0)
    return statistics.fmean(chunks)


class Clock:
    """Times of repeated calls, as measured and at the reference speed."""

    def __init__(self):
        self.calibrations = [_calibration_s(CAL_MIN_S)]
        self.raw = []
        self.scaled = []

    def _rescaled(self, seconds):
        """Calibrate after a timed part; its time at the reference speed."""
        self.calibrations.append(_calibration_s(max(CAL_MIN_S, CAL_SHARE * seconds)))
        return seconds * CAL_REF_S / (0.5 * (self.calibrations[-2] + self.calibrations[-1]))

    def record(self, seconds):
        self.raw.append(seconds)
        self.scaled.append(self._rescaled(seconds))

    def time_parts(self, parts):
        """Time a repetition part by part, calibrating in between; return
        the outcomes of all parts."""
        outcomes, raw, scaled = [], 0.0, 0.0
        while True:
            start = time.perf_counter()
            try:
                outcomes += next(parts)
            except StopIteration:
                tail = time.perf_counter() - start
                raw += tail
                scaled += tail * CAL_REF_S / self.calibrations[-1]
                break
            seconds = time.perf_counter() - start
            raw += seconds
            scaled += self._rescaled(seconds)
        self.raw.append(raw)
        self.scaled.append(scaled)
        return outcomes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _environment():
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def _traced_body(wl, inputs, tracer):
    """One traced repetition of the workload body: (outcomes, wall seconds)."""
    with tracer.active():
        start = time.perf_counter()
        outcomes = [o for part in wl.run(inputs) for o in part]
        wall = time.perf_counter() - start
    return outcomes, wall


class Tally:
    """Attempted and failed operations over all repetitions."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.failures = {}

    def add(self, outcomes):
        self.attempted += len(outcomes)
        for o in outcomes:
            if not o.ok:
                self.failed += 1
                self.correct = self.correct and not o.check
                self.failures.setdefault(o.name, o.detail)


def _median_metrics(per_rep):
    """Median over repetitions of each metric; absent (None) if absent in any."""
    return {key: (None if any(m[key] is None for m in per_rep)
                  else statistics.median(m[key] for m in per_rep))
            for key in per_rep[0]}


def measure(name, seed, seconds, trace):
    """Closed loop: one caller repeats the body until ``seconds`` have passed
    and MIN_REPS are done.  Returns the result object."""
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed, OUT)
    setup_in_process = time.perf_counter() - t0
    spec = _spec()
    tally = Tally()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": _environment(), "inputs": inputs["summary"],
              "setup_in_process_s": setup_in_process}
    deadline = time.perf_counter() + seconds

    if trace:
        import tracing
        plain, traced, tracers = [], [], []
        while len(traced) < MIN_REPS or time.perf_counter() < deadline:
            start = time.perf_counter()
            tally.add([o for part in wl.run(inputs) for o in part])
            plain.append(time.perf_counter() - start)
            tracer = tracing.Tracer()
            outcomes, wall = _traced_body(wl, inputs, tracer)
            tally.add(outcomes)
            traced.append(wall)
            tracers.append((tracer, tracer.metrics(wall)))
        values = _median_metrics([m for _, m in tracers])
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        spans = OUT / f"spans-{name}-seed{seed}.csv.gz"
        tracing.write_spans([t for t, _ in tracers], spans)
        record.update(reps_s=plain, traced_reps_s=traced, spans=str(spans.relative_to(ROOT)))
        listed, reps = spec["per_layer"], len(traced)
    else:
        clock = Clock()
        while len(clock.raw) < MIN_REPS or time.perf_counter() < deadline:
            tally.add(clock.time_parts(wl.run(inputs)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = Clock()
        for _ in range(SETUP_PROBES):
            setup.record(_setup_in_child(name, seed))
        values = {
            "wall_s": statistics.median(clock.scaled),
            "setup_s": statistics.median(setup.scaled),
            "peak_rss_mb": peak_rss_mb,
            "passed_frac": 1.0 - tally.failed / tally.attempted,
        }
        record.update(reps_s=clock.raw, reps_scaled_s=clock.scaled,
                      calibrations_s=clock.calibrations, raw_wall_s=statistics.median(clock.raw),
                      setup_probes_s=setup.raw, setup_probes_scaled_s=setup.scaled,
                      raw_setup_s=statistics.median(setup.raw))
        listed, reps = spec["end_to_end"], len(clock.raw)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result, failures=tally.failures)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{name}: seed {seed}, {reps} {'traced ' if trace else ''}repetitions, "
          f"{tally.attempted} operations attempted, {tally.failed} failed, "
          f"correct={tally.correct}")
    print(f"  failed_frac = {tally.failed / tally.attempted:.6g} (failed / attempted operations)")
    if not trace:
        print(f"  as measured: wall {record['raw_wall_s']:.6g} s, set-up "
              f"{record['raw_setup_s']:.6g} s (wall_s and setup_s are at reference speed)")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']} {m['unit']}")
    for op, detail in tally.failures.items():
        print(f"  failed: {op} {detail}")
    return result


def run_all(names, seed, seconds, trace):
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "symparc" / "__init__.py").is_file():
        print(f"error: no symparc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        result = run_all(names, args.seed, seconds, args.trace)
    else:
        result = measure(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
