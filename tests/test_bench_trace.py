"""The traced benchmark operation still finds the layers it patches.

bench/tracer.py wraps package functions by name (harness.simulate_coupled,
averaging.simulate_sdde, Scenario.drift_callable, ...).  A rename under
src/ would leave those layers unmeasured without failing anything else,
so this runs bench/op.py traced on two small scenarios and checks that
the solver, estimator, frozen and auxiliary layers each recorded calls,
and that the frozen sub-simulations reached the solver layer.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

PARAMS = {"a11": -1.0, "a12": 1.0, "s1": 0.3, "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3}
_BASE = {"system": {"kind": "linear_benchmark", "params": PARAMS},
         "tau": 1.0, "p": 2.0, "seed": 5}

RUNS = [
    # eps a decade apart: at 2 paths, eps = 0.2 and 0.1 fail the final_reduction
    # gate on most seeds, which would fail this run for a reason unrelated to tracing.
    ("converge", dict(_BASE, experiment="converge", T=0.1, h_factor=0.1,
                      epsilons=[0.2, 0.02], paths=2, drift_source="estimator",
                      estimator={"burn_in": 5.0, "horizon": 1.0, "replicas": 2, "h": 0.1}),
     ("solver.sdde.calls", "averaging.estimator.calls", "frozen.estimate.calls")),
    ("aux-gap", dict(_BASE, experiment="auxiliary_gap", T=0.25,
                     epsilons=[0.05, 0.02, 0.01], paths=4),
     ("averaging.auxiliary.calls",)),
]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_operation_records_every_layer(tmp_path):
    summarize = _tracer().summarize
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for i, (command, cfg, layers) in enumerate(RUNS):
        out = tmp_path / f"op{i}"
        out.mkdir()
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        spans = out / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), command, str(config), str(out), str(spans)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads((out / "op.json").read_text())["exit_code"] == 0
        summary = summarize(json.loads(spans.read_text()))
        for layer in layers:
            assert summary[layer] > 0, (command, layer, summary)
        if command == "converge":
            # The frozen pass is traced through frozen.simulate_sdde: a route around
            # it would leave solver.sdde with only the averaged equation's calls.
            assert summary["solver.sdde.calls"] > summary["averaging.averaged.calls"], summary
