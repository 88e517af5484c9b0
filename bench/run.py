"""twoscale benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ (nothing is installed).  One operation is one scenario run through
twoscale.cli.main in a fresh interpreter (op.py).  The benchmark repeats
operations of the chosen workload until S seconds have passed, checks
every report (workloads.py), and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over the operations):
  run_s        wall time of cli.main
  setup_s      process start until twoscale is imported and the scenario
               is parsed with its SystemSpec built
  cpu_s        user+sys CPU of the process and its pool workers
  peak_rss_mb  peak resident set of the process or its largest worker
--trace 1 alternates an untraced and a traced operation, both serial,
and reports the per-layer metrics of tracer.py (medians over the traced
operations) plus the tracing overhead.

An operation fails on a nonzero exit code or a failed check.  Outside
the timed region the benchmark also requires every operation to give
the same report.csv hash and, for the pool workload, a reduced-path copy
to hash the same with one and with two workers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
from workloads import WORKLOADS, Report  # noqa: E402

OP_TIMEOUT_S = 150


class Runner:
    """Starts operations in child interpreters under one scratch directory."""

    def __init__(self, work: Path, workload):
        self.work = work
        self.workload = workload
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), str(BENCH_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def op(self, cfg: dict, traced: bool = False) -> dict:
        """Run one operation; returns op.json plus setup_s, report and problems."""
        self.count += 1
        out = self.work / f"op-{self.count}"
        out.mkdir()
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        cmd = [sys.executable, str(BENCH_DIR / "op.py"), self.workload.command,
               str(config), str(out)]
        if traced:
            cmd.append(str(out / "spans.json"))
        with open(out / "stdout.txt", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=self.work)
            try:
                proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result = {"problems": [], "report": None}
        if proc.returncode != 0 or not (out / "op.json").is_file():
            result["problems"].append(f"op.py exited {proc.returncode}")
        else:
            result.update(json.loads((out / "op.json").read_text()))
            result["setup_s"] = result["setup_done"] - start
            if result["exit_code"] != 0:
                result["problems"].append(f"twoscale exited {result['exit_code']}")
            if (out / "report.csv").is_file():  # written on exit codes 0, 2 and 3
                result["report"] = Report.load(out)
            if traced and not result["problems"]:
                result["layers"] = tracer.summarize(json.loads((out / "spans.json").read_text()))
        result["log_tail"] = (out / "stdout.txt").read_text().splitlines()[-5:]
        shutil.rmtree(out)
        return result


def check_ops(ops: list, workload, cfg: dict) -> tuple[int, list]:
    """Check the report of every operation that exited 0.

    Returns the number of failed operations and the run-level problems:
    failed checks, and reports that differ between operations.
    """
    verdicts: dict[str, list] = {}
    problems = []
    for op in ops:
        report = op["report"]
        if op["problems"] or report is None:
            continue
        if report.csv_hash not in verdicts:
            verdicts[report.csv_hash] = workload.check(report, cfg)
        op["problems"] += verdicts[report.csv_hash]
        problems += verdicts[report.csv_hash]
    hashes = {op["report"].csv_hash for op in ops if op["report"] is not None}
    if len(hashes) > 1:
        problems.append(f"operations gave {len(hashes)} different report hashes")
    return sum(bool(op["problems"]) for op in ops), problems


def determinism_problems(runner: Runner, workload, seed: int) -> list:
    """Reduced-path copy must hash the same with threads=1 and threads=2.

    Its gates may fail with so few paths (exit code 2); only the hash counts.
    """
    hashes = []
    for threads in (1, 2):
        cfg = workload.scenario(seed, paths=workload.determinism_paths, threads=threads)
        op = runner.op(cfg)
        if op["report"] is None:
            return [f"reduced copy with threads={threads}: {op['problems']}"]
        hashes.append(op["report"].csv_hash)
    if hashes[0] != hashes[1]:
        return [f"threads=1 hash {hashes[0]} != threads=2 hash {hashes[1]}"]
    return []


def median(ops: list, key: str) -> float:
    return statistics.median(op[key] for op in ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twoscale" / "cli.py").is_file():
        print(f"error: no twoscale sources under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    overrides = {"threads": 1} if args.trace else {}
    cfg = workload.scenario(args.seed, **overrides)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    runner = Runner(work, workload)
    try:
        # Compile and cache the package once, as an installed copy would be.
        warm = subprocess.run(
            [sys.executable, "-c", "import twoscale.cli, twoscale; print(twoscale.__file__)"],
            env=runner.env, cwd=work, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if warm.returncode != 0 or not warm.stdout.strip().startswith(str(SRC)):
            print(f"error: cannot import twoscale from {SRC}: {warm.stderr.strip()}",
                  file=sys.stderr)
            return 2

        ops, traced_ops = [], []
        start = time.monotonic()
        while not ops or time.monotonic() - start < args.seconds:
            ops.append(runner.op(cfg))
            if args.trace:
                traced_ops.append(runner.op(cfg, traced=True))
        failed, problems = check_ops(ops + traced_ops, workload, cfg)
        if workload.determinism_paths:
            problems += determinism_problems(runner, workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no other run is using it

    for i, op in enumerate(ops + traced_ops):
        if op["problems"]:
            print(f"operation {i + 1} failed: {op['problems']}", *op["log_tail"],
                  sep="\n  ", file=sys.stderr)
    good = [op for op in ops if not op["problems"]]
    good_traced = [op for op in traced_ops if not op["problems"]]
    metrics = {}
    if args.trace:
        for op in good_traced:
            layers = op["layers"]
            if abs(layers["trace.layer_self_sum_s"] - layers["trace.run_s"]) > (
                    0.02 * layers["trace.run_s"]):
                problems.append("layer self times do not add up to the traced run_s")
        if good and good_traced:
            values = {k: statistics.median(op["layers"][k] for op in good_traced)
                      for k in good_traced[0]["layers"]}
            values["trace.untraced_run_s"] = median(good, "run_s")
            values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    elif good:
        metrics = {k: {"value": median(good, k), "unit": unit} for k, unit in units.items()}

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}")
    print(f"workload {args.workload}: --seed {args.seed} -> scenario seed {cfg['seed']}, "
          f"{len(ops) + len(traced_ops)} operations ({len(traced_ops)} traced), "
          f"{failed} failed")
    hashes = {op["report"].csv_hash for op in ops + traced_ops if op["report"] is not None}
    print(f"report.csv sha256: {', '.join(sorted(hashes)) or 'none'}")
    for p in problems:
        print(f"problem: {p}")
    for key in ("run_s", "setup_s"):
        print(f"{key} per operation: " + " ".join(f"{op[key]:.4f}" for op in good))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": len(ops) + len(traced_ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
