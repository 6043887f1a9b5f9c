"""In-memory spans around the calls into each vtsi layer, and the per-layer
numbers derived from them.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span, or -1. Spans nest because one thread makes every call, so a
span's self time is its duration minus the part of it that its direct
children cover.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Records spans and plain call counts; nothing is written until
    :meth:`write`."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return traced

    def counted(self, name: str, fn):
        """``fn`` with a call counter and no span, for calls too frequent
        to time one by one."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["name", "start", "end", "parent"])
            out.writerows(self.spans)


def self_times(spans) -> list:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def coeff_hit_ratio(calls) -> float:
    """Share of coefficient lookups served without recomputing: one minus
    (coupling-row and frame evaluations) per (reduced_at + vehicle_at)
    lookup."""
    lookups = calls["integrators.reduced_at"] + calls["integrators.vehicle_at"]
    misses = calls["coupling.constraint_rates"] + calls["pathgeom.frame_kinematics"]
    return 1.0 - misses / lookups


def install(tracer: Tracer) -> None:
    """Replace each traced vtsi function where its caller looks it up.

    Call before the model is built: ``coupled_model`` binds
    ``frame_kinematics`` when it runs.
    """
    import vtsi.beams
    import vtsi.integrators as integ
    import vtsi.pathgeom as pg
    import vtsi.simulate as sim

    wrap = tracer.wrap
    fit = wrap("pathgeom.build_plan_path", pg.build_plan_path)
    sim.build_plan_path = fit
    vtsi.beams.build_plan_path = fit
    sim.assemble_bridge = wrap("beams.assemble_bridge", sim.assemble_bridge)
    sim.run_model = wrap("integrators.run_model", sim.run_model)

    factor = wrap("integrators.factor", integ.Stepper)

    def stepper(*args, **kwargs):
        st = factor(*args, **kwargs)
        st.step = wrap("integrators.step", st.step)
        return st

    integ.Stepper = stepper
    integ.initial_state = wrap("integrators.static_init", integ.initial_state)
    integ.project_constraints = wrap("integrators.project",
                                     integ.project_constraints)
    integ.constraint_residuals = wrap("integrators.constraint_residuals",
                                      integ.constraint_residuals)
    integ.constraint_rates = wrap("coupling.constraint_rates",
                                  integ.constraint_rates)
    integ.vehicle_matrices = wrap("vehicle.vehicle_matrices",
                                  integ.vehicle_matrices)
    pg.frame_kinematics = wrap("pathgeom.frame_kinematics", pg.frame_kinematics)
    pg.ArclengthMap.xi_of_s = wrap("pathgeom.xi_of_s", pg.ArclengthMap.xi_of_s)
    pg.ArclengthMap.s_of_xi = tracer.counted("pathgeom.s_of_xi",
                                             pg.ArclengthMap.s_of_xi)
    pg.eval_nurbs = tracer.counted("splines.eval_nurbs", pg.eval_nurbs)


def wrap_model(tracer: Tracer, model) -> None:
    """Trace the model's per-time coefficient callables."""
    model.vehicle_at = tracer.wrap("integrators.vehicle_at", model.vehicle_at)
    model.reduced_at = tracer.wrap("integrators.reduced_at", model.reduced_at)


def bandwidth(matrix: np.ndarray) -> int:
    """Largest |i - j| over entries above 1e-12 of the largest magnitude."""
    mag = np.abs(matrix)
    i, j = np.nonzero(mag > 1e-12 * mag.max())
    return int(np.max(np.abs(i - j)))


def array_bytes(obj) -> int:
    """Computed nbytes of the numpy arrays held in a dataclass's fields."""
    return sum(getattr(obj, f.name).nbytes for f in dataclasses.fields(obj)
               if isinstance(getattr(obj, f.name), np.ndarray))


# name -> unit of every per-layer metric; BENCHMARK.json lists the same.
LAYER_UNITS = {
    "pathgeom.build_plan_path.self_s": "s",
    "pathgeom.build_plan_path.calls": "count",
    "pathgeom.xi_of_s.self_s": "s",
    "pathgeom.xi_of_s.calls": "count",
    "pathgeom.s_of_xi.calls": "count",
    "pathgeom.frame_kinematics.self_s": "s",
    "pathgeom.frame_kinematics.calls": "count",
    "splines.eval_nurbs.calls": "count",
    "coupling.constraint_rates.self_s": "s",
    "coupling.constraint_rates.calls": "count",
    "vehicle.vehicle_matrices.self_s": "s",
    "vehicle.vehicle_matrices.calls": "count",
    "beams.assemble_bridge.self_s": "s",
    "beams.n_red": "count",
    "beams.k_red_bandwidth": "count",
    "beams.bridge_bytes": "B",
    "integrators.factor.self_s": "s",
    "integrators.static_init.self_s": "s",
    "integrators.step.self_s": "s",
    "integrators.step.median_ms": "ms",
    "integrators.step.p99_ms": "ms",
    "integrators.vehicle_at.self_s": "s",
    "integrators.vehicle_at.calls": "count",
    "integrators.reduced_at.self_s": "s",
    "integrators.reduced_at.calls": "count",
    "integrators.coeff_hit_ratio": "ratio",
    "integrators.project.self_s": "s",
    "integrators.project.calls": "count",
    "integrators.record_s": "s",
    "output.write_timehistory.self_s": "s",
    "output.csv_bytes": "B",
    "metrics.build_report.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly across repetitions of the same code.
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items()
                      if unit in ("count", "B"))


def layer_metrics(tracer: Tracer, bridge, csv_bytes: int) -> dict:
    """Per-layer numbers of one traced repetition, by metric name.

    ``trace.overhead_s`` needs an untraced repetition and is left to the
    caller.
    """
    own = self_times(tracer.spans)
    self_s, calls = Counter(), Counter(tracer.counts)
    step_ms = []
    for (name, _, _, _), t in zip(tracer.spans, own):
        self_s[name] += t
        calls[name] += 1
        if name == "integrators.step":
            step_ms.append(1e3 * t)
    out = {}
    for metric in LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[layer]
        elif kind == "calls":
            out[metric] = calls[layer]
    out["integrators.step.median_ms"] = float(np.median(step_ms))
    out["integrators.step.p99_ms"] = float(np.percentile(step_ms, 99))
    out["integrators.coeff_hit_ratio"] = coeff_hit_ratio(calls)
    out["integrators.record_s"] = (self_s["integrators.run_model"]
                                   + self_s["integrators.constraint_residuals"])
    out["beams.n_red"] = int(bridge.n_red)
    out["beams.k_red_bandwidth"] = bandwidth(bridge.K)
    out["beams.bridge_bytes"] = array_bytes(bridge)
    out["output.csv_bytes"] = int(csv_bytes)
    return out
