"""Spans and counts for the traced benchmark run.

While ``Tracer.active()`` is entered, the entry points of symparc's layers
are replaced by wrappers that record one span per call (name, start, end,
parent) in memory and take counts at the same boundary.  Nothing under
``src/`` is edited: the wrappers go onto module and class attributes and are
removed when the block ends.  Private names are wrapped only where they are
the only route into a layer, and only if they exist.  A metric whose private
route is missing and whose span saw no call is reported as absent (None).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gzip
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import symparc
from symparc import cli, fput, integrator, stability, tableaux

# a module-level function is replaced wherever one of these modules binds it
_MODULES = (symparc, tableaux, integrator, stability, fput, cli)
LAYERS = ("fput", "integrator", "stability", "tableaux", "cli")

# metric -> span whose private route it needs
_PRIVATE_ROUTE = {
    "fput.slow_force.calls": "fput.slow_force",
    "fput.slow_force.rows": "fput.slow_force",
    "fput.slow_force.us_per_call": "fput.slow_force",
    "fput.slow_force.busy_s": "fput.slow_force",
    "integrator.block.factorizations": "integrator.factorization",
    "integrator.block.cache_hit_ratio": "integrator.block",
    "integrator.oracle.levels": "integrator.oracle.level",
    "integrator.oracle.steps": "integrator.oracle.level",
    "integrator.oracle.us_per_step": "integrator.oracle.level",
    "integrator.oracle.useful_ratio": "integrator.oracle.level",
    "integrator.oracle.agreement": "integrator.oracle.level",
}


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    """Spans of one traced repetition, kept in memory until written out."""

    def __init__(self):
        self.origin = perf_counter()
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()
        self.levels = []        # (n_steps, final state) per oracle level
        self.agreements = []    # oracle agreement reached / reference_tol
        self.missing = set()    # spans whose private route does not exist

    def wrap(self, name, fn, note=None):
        """``fn`` recording one span per call; ``note(result, args, kwargs)``
        takes counts.  A call nested in a span of the same name (a public
        route reaching a private one) is not recorded twice."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and self.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if note is not None:
                note(result, args, kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        undo = []
        try:
            self._install(undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, undo):
        counts = self.counts

        def hook(owner, attr, name, note=None, build=None, everywhere=True):
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None:
                self.missing.add(name)
                return
            wrapper = self.wrap(name, build(original) if build else original, note)
            targets = ([owner] if isinstance(owner, type) or not everywhere else
                       [m for m in _MODULES if vars(m).get(attr) is original])
            for target in targets:
                undo.append((target, attr, original))
                setattr(target, attr, wrapper)

        def rows(result, args, kwargs):
            counts["fput.slow_force.rows"] += result.size // result.shape[-1]

        def sweep(result, args, kwargs):
            a = _bind(sweep_fn, args, kwargs)
            counts["fput.sweep.state_steps"] += len(a["omega_grid"]) * int(round(a["T"] / a["h"]))
            counts["fput.sweep.points_failed"] += len(result.failures)

        def step(result, args, kwargs):
            counts["integrator.stage_iters"] += result[1]

        def block_lookup(original):
            def _block_inverses(stepper, h, *args, **kwargs):
                cache = getattr(stepper, "_block_cache", None)
                if isinstance(cache, dict):
                    counts["integrator.block.lookups"] += 1
                    counts["integrator.block.hits"] += h in cache
                return original(stepper, h, *args, **kwargs)
            return _block_inverses

        def oracle_system(original):
            # the oracle calls system.f1 directly, not system.slow_force
            def reference_solve(system, *args, **kwargs):
                if system.f1 is not None:
                    f1 = self.wrap("fput.slow_force", system.f1, rows)
                    system = dataclasses.replace(system, f1=f1)
                return original(system, *args, **kwargs)
            return reference_solve

        def level(result, args, kwargs):
            n_steps = _bind(level_fn, args, kwargs).get("n_steps", 0)
            counts["integrator.oracle.steps"] += n_steps
            self.levels.append((n_steps, result))

        def oracle(result, args, kwargs):
            levels, self.levels = self.levels, []
            tol = _bind(oracle_fn, args, kwargs).get("tol")
            if len(levels) >= 2 and tol:
                (_, y_prev), (n_last, y) = levels[-2], levels[-1]
                scale = max(1.0, float(np.max(np.abs(y))))
                self.agreements.append(float(np.max(np.abs(y - y_prev))) / scale / tol)
                counts["integrator.oracle.useful_steps"] += n_last

        def mus(result, args, kwargs):
            counts["stability.mus"] += len(result)

        def verify(result, args, kwargs):
            counts["tableaux.verify.failed"] += not result.passed

        def written(result, args, kwargs):
            path = kwargs["path"] if "path" in kwargs else args[1]
            counts["cli.write_csv.bytes"] += os.path.getsize(path)

        sweep_fn = fput.experiment_resonance_sweep
        oracle_fn = integrator.reference_solve
        level_fn = getattr(integrator, "_rk8_final_state", None)

        # the batched sweep reaches the chain force only through _slow_force
        hook(fput, "_slow_force", "fput.slow_force", rows)
        hook(integrator.SplitForceSystem, "slow_force", "fput.slow_force", rows)
        hook(fput, "energy_breakdown", "fput.observer")
        hook(fput, "experiment_resonance_sweep", "fput.sweep", sweep)
        hook(fput, "experiment_order_reduction", "fput.order_reduction")
        hook(integrator, "integrate", "integrator.integrate")
        hook(integrator.ArkStepper, "step_with_iterations", "integrator.step", step)
        hook(integrator.ArkStepper, "_block_inverses", "integrator.block", build=block_lookup)
        hook(integrator, "lu_factor", "integrator.factorization", everywhere=False)
        hook(integrator, "reference_solve", "integrator.oracle", oracle, build=oracle_system)
        hook(integrator, "_rk8_final_state", "integrator.oracle.level", level)
        hook(stability, "half_trace_samples", "stability.half_trace_samples", mus)
        hook(stability, "half_trace", "stability.half_trace")
        hook(stability, "stability_intervals", "stability.intervals")
        hook(tableaux, "build_scheme", "tableaux.build_scheme")
        hook(tableaux, "verify_order_conditions", "tableaux.verify", verify)
        # the CSV writers behind the CLI's output files
        for cls in (integrator.Trajectory, fput.EnergyHistory, fput.SweepResult,
                    fput.ReductionTable):
            hook(cls, "write_csv", "cli.write_csv", written)

    # -- results -----------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics of this repetition; ``wall`` is its traced wall time."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        n = len(self.names)
        calls_by = np.bincount(ids, minlength=n)
        busy_by = np.bincount(ids, weights=dur, minlength=n)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

        def calls(name):
            return int(calls_by[self._ids[name]]) if name in self._ids else 0

        def busy(name):
            return float(busy_by[self._ids[name]]) if name in self._ids else 0.0

        c = self.counts
        step_us = 1e6 * dur[ids == self._ids.get("integrator.step", -1)]
        oracle_steps = c["integrator.oracle.steps"]
        m = {
            "fput.slow_force.calls": calls("fput.slow_force"),
            "fput.slow_force.rows": c["fput.slow_force.rows"],
            "fput.slow_force.us_per_call": 1e6 * _ratio(busy("fput.slow_force"),
                                                        calls("fput.slow_force")),
            "fput.slow_force.busy_s": busy("fput.slow_force"),
            "fput.observer.busy_s": busy("fput.observer"),
            "fput.sweep.us_per_state_step": 1e6 * _ratio(busy("fput.sweep"),
                                                         c["fput.sweep.state_steps"]),
            "fput.sweep.points_failed": c["fput.sweep.points_failed"],
            "integrator.step.calls": calls("integrator.step"),
            "integrator.step.us_median": float(np.median(step_us)) if step_us.size else 0.0,
            "integrator.step.us_p99": float(np.percentile(step_us, 99)) if step_us.size else 0.0,
            "integrator.stage_iters_per_step": _ratio(c["integrator.stage_iters"],
                                                      calls("integrator.step")),
            "integrator.block.factorizations": calls("integrator.factorization"),
            "integrator.block.cache_hit_ratio": _ratio(c["integrator.block.hits"],
                                                       c["integrator.block.lookups"]),
            "integrator.nonconvergence.count": c["integrator.step.raised.NonconvergenceError"],
            "integrator.oracle.levels": calls("integrator.oracle.level"),
            "integrator.oracle.steps": oracle_steps,
            "integrator.oracle.us_per_step": 1e6 * _ratio(busy("integrator.oracle.level"),
                                                          oracle_steps),
            "integrator.oracle.busy_s": busy("integrator.oracle"),
            "integrator.oracle.useful_ratio": _ratio(c["integrator.oracle.useful_steps"],
                                                     oracle_steps),
            "integrator.oracle.agreement": max(self.agreements, default=0.0),
            "integrator.integrate.calls": calls("integrator.integrate"),
            "integrator.integrate.busy_s": busy("integrator.integrate"),
            "stability.half_trace_samples.mus_per_s": _ratio(
                c["stability.mus"], busy("stability.half_trace_samples")),
            "stability.half_trace.scalar_calls": calls("stability.half_trace"),
            "stability.intervals.busy_s": busy("stability.intervals"),
            "tableaux.build_scheme.busy_s": busy("tableaux.build_scheme"),
            "tableaux.verify.busy_s": busy("tableaux.verify"),
            "tableaux.verify.failed": c["tableaux.verify.failed"],
            "cli.write_csv.busy_s": busy("cli.write_csv"),
            "cli.write_csv.bytes": c["cli.write_csv.bytes"],
        }
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names] or [0])
        for k, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = float(np.sum(self_time[layer_of[ids] == k]))
        m["bench.self_s"] = wall - float(np.sum(dur[~nested]))
        for metric, span in _PRIVATE_ROUTE.items():
            if span in self.missing and calls(span) == 0:
                m[metric] = None
        return m

    def write(self, writer, rep):
        for i in range(len(self.name_id)):
            writer.writerow((rep, i, self.parent[i], self.names[self.name_id[i]],
                             f"{self.start[i] - self.origin:.9f}",
                             f"{self.end[i] - self.origin:.9f}"))


def write_spans(tracers, path):
    """All spans, one row each; times are seconds from the start of their repetition."""
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("rep", "id", "parent", "name", "start_s", "end_s"))
        for rep, tracer in enumerate(tracers):
            tracer.write(writer, rep)
