"""Outside-in layer tracing of one twoscale run.

Tracer.install() replaces, in the importing modules' namespaces, the
public functions that twoscale.harness, twoscale.solver,
twoscale.averaging and twoscale.frozen call across module boundaries
with wrappers that record one span per call: (name, parent span, start,
end).  It also counts coefficient-map evaluations, noise draws,
path-steps and drift calls.  Spans stay in memory and are written out
once, after the run; summarize() turns them into per-layer metrics.

Nothing under src/ is edited: the wrappers live here and are installed
only in the traced benchmark process.  A layer's self time is its spans'
durations minus the parts covered by their child spans, so the self
times of all layers add up to the root span, the call into cli.main.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter

# span name -> layer whose self time it counts towards
LAYER_OF = {
    "cli.main": "cli",
    "harness.run": "harness",
    "harness.parse": "harness",
    "harness.write": "harness",
    "solver.coupled": "solver.coupled",
    "solver.sdde": "solver.sdde",
    "noise.normals": "noise",
    "frozen.estimate": "frozen.estimate",
    "averaging.auxiliary": "averaging.auxiliary",
    "averaging.averaged": "averaging.averaged",
    "averaging.estimator": "averaging.estimator",
    "metrics": "metrics",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.estimators: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, grid_arg: int | None = None):
        """fn wrapped to record a span; grid_arg adds that argument's grid.steps."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        steps_key = name + ".path_steps"

        def traced(*args, **kwargs):
            if grid_arg is not None:
                grid = args[grid_arg] if len(args) > grid_arg else kwargs["grid"]
                counts[steps_key] += grid.steps
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def install(self):
        from twoscale import averaging, cli, frozen, harness, noise

        wrap = self.wrap
        cli.run_scenario = wrap("harness.run", cli.run_scenario)
        harness.simulate_coupled = wrap("solver.coupled", harness.simulate_coupled, grid_arg=4)
        averaging.simulate_sdde = wrap("solver.sdde", averaging.simulate_sdde, grid_arg=5)
        frozen.simulate_sdde = wrap("solver.sdde", frozen.simulate_sdde, grid_arg=5)
        harness.simulate_auxiliary = wrap("averaging.auxiliary", harness.simulate_auxiliary,
                                          grid_arg=5)
        harness.simulate_averaged = wrap("averaging.averaged", harness.simulate_averaged)
        harness.estimate_averaged_drift = wrap("frozen.estimate", harness.estimate_averaged_drift)
        averaging.estimate_averaged_drift = wrap("frozen.estimate",
                                                 averaging.estimate_averaged_drift)
        for fname in ("sup_distance", "p_moment", "slope_fit", "segment_displacement_moment"):
            setattr(harness, fname, wrap("metrics", getattr(harness, fname)))

        noise.NoiseStream.normals = self._normals(noise.NoiseStream.normals)
        scenario = harness.Scenario
        scenario.from_config = staticmethod(wrap("harness.parse", scenario.from_config))
        harness.ExperimentReport.write = wrap("harness.write", harness.ExperimentReport.write)
        scenario.build_spec = self._counting_spec(scenario.build_spec)
        scenario.drift_callable = self._traced_drift(scenario.drift_callable,
                                                     averaging.EstimatedDriftSource)

    def _normals(self, fn):
        traced = self.wrap("noise.normals", fn)
        counts = self.counts

        def normals(stream, count):
            counts["noise.normals"] += count
            return traced(stream, count)

        return normals

    def _counting_spec(self, build_spec):
        def counting_build_spec(scenario):
            spec = build_spec(scenario)
            return dataclasses.replace(
                spec, **{k: self._counted(f"systems.{k}_calls", getattr(spec, k))
                         for k in ("b1", "sigma1", "b2", "sigma2")})

        return counting_build_spec

    def _traced_drift(self, drift_callable, estimator_type):
        def traced_drift_callable(scenario, spec):
            source = drift_callable(scenario, spec)
            if isinstance(source, estimator_type):
                self.estimators.append(source)
                source = self.wrap("averaging.estimator", source)
            return self._counted("averaging.drift_calls", source)

        return traced_drift_callable

    def dump(self, path):
        """Write spans, counts and estimator counters as one JSON document."""
        counts = dict(self.counts)
        counts["averaging.estimator.calls"] = sum(e.calls for e in self.estimators)
        counts["averaging.estimator.misses"] = sum(e.cache_misses for e in self.estimators)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced run, by the names in BENCHMARK.json.

    All but trace.untraced_run_s and trace.overhead_s, which need the
    untraced operations.
    """
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    for (name, parent, start, end), covered in zip(spans, child_time):
        self_s[LAYER_OF[name]] += (end - start) - covered
        inclusive[name] += end - start
        calls[name] += 1

    def ratio(num, den):
        return num / den if den > 0.0 else 0.0

    out = {}
    for kernel in ("solver.coupled", "solver.sdde"):
        steps = counts[kernel + ".path_steps"]
        out[kernel + ".calls"] = calls[kernel]
        out[kernel + ".path_steps"] = steps
        out[kernel + ".self_s"] = self_s[kernel]
        out[kernel + ".path_steps_per_s"] = ratio(steps, self_s[kernel])
    for fn in ("b1", "sigma1", "b2", "sigma2"):
        out[f"systems.{fn}_calls"] = counts[f"systems.{fn}_calls"]
    out["noise.normals"] = counts["noise.normals"]
    out["noise.self_s"] = self_s["noise"]
    out["noise.normals_per_s"] = ratio(counts["noise.normals"], self_s["noise"])
    for part in ("frozen.estimate", "averaging.auxiliary", "averaging.averaged"):
        out[part + ".calls"] = calls[part]
        out[part + ".self_s"] = self_s[part]
    out["averaging.auxiliary.path_steps"] = counts["averaging.auxiliary.path_steps"]
    out["averaging.drift_calls"] = counts["averaging.drift_calls"]
    est_calls = counts["averaging.estimator.calls"]
    out["averaging.estimator.calls"] = est_calls
    out["averaging.estimator.misses"] = counts["averaging.estimator.misses"]
    out["averaging.estimator.hit_ratio"] = ratio(
        est_calls - counts["averaging.estimator.misses"], est_calls)
    out["averaging.estimator.self_s"] = self_s["averaging.estimator"]
    out["metrics.calls"] = calls["metrics"]
    out["metrics.self_s"] = self_s["metrics"]
    out["harness.scenario_parses"] = calls["harness.parse"]
    out["harness.parse_s"] = inclusive["harness.parse"]
    out["harness.self_s"] = self_s["harness"]
    out["harness.report_write_s"] = inclusive["harness.write"]
    out["cli.self_s"] = self_s["cli"]
    out["trace.run_s"] = inclusive["cli.main"]
    out["trace.layer_self_sum_s"] = sum(self_s.values())
    return out
