"""Accuracy of the estimator drift route over many benchmark seeds.

    python tests/estimator_accuracy.py [--seeds N] [--first S]

Runs the converge-estimator scenario of bench/workloads.py at benchmark
seeds S, ..., S + N - 1 (default 0 to 39), in process and serially.  For
each sup_gap_moment row it prints the reported moment, the moment of
bench/reference.py with the exact averaged drift kappa * x on the same
noise, and their relative error; then the largest relative error, the
mean over rows, the mean over reports of each report's largest (the
error workloads.check_estimator bounds), and every report that fails
that check.  It is not a test (pytest does not collect it): it puts the
estimator's error next to a fixed reference, so that two versions of
the estimator can be compared with one command.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (imports its sibling reference.py)
from twoscale.harness import Scenario, run_scenario  # noqa: E402


def relative_errors(seed: int, out: Path) -> tuple[list, list]:
    """(epsilon, moment, exact-drift moment, relative error) per row, and check problems."""
    workload = workloads.WORKLOADS["converge-estimator"]
    cfg = workload.scenario(seed)
    run_scenario(Scenario.from_config(cfg)).write(out)
    report = workloads.Report.load(out)
    rows = []
    for row in report.kind("sup_gap_moment"):
        gaps = workloads.reference.sup_gaps(workloads.PAIR, cfg["seed"], cfg["paths"],
                                            float(row["epsilon"]), row["extra"]["h"], cfg["T"],
                                            cfg["tau"])
        exact = workloads.reference.moment(gaps, cfg["p"])
        value = float(row["value"])
        rows.append((float(row["epsilon"]), value, exact, abs(value - exact) / exact))
    return rows, workload.check(report, cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="number of benchmark seeds")
    parser.add_argument("--first", type=int, default=0, help="first benchmark seed")
    args = parser.parse_args(argv)
    errors, worst, failing = [], [], []
    print(f"{'seed':>4} {'epsilon':>8} {'moment':>12} {'exact drift':>12} {'rel error':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(args.first, args.first + args.seeds):
            rows, problems = relative_errors(seed, Path(tmp) / str(seed))
            for eps, value, exact, err in rows:
                print(f"{seed:>4} {eps:>8g} {value:>12.6g} {exact:>12.6g} {err:>9.4f}")
                errors.append(err)
            worst.append(max(r[3] for r in rows))
            if problems:
                failing.append((seed, problems))
    print(f"rows: {len(errors)}  largest: {max(errors):.4f}  mean: {sum(errors) / len(errors):.4f}"
          f"  mean of report largest: {sum(worst) / len(worst):.4f}")
    print(f"reports failing check_estimator: {len(failing)} of {args.seeds}")
    for seed, problems in failing:
        print(f"  seed {seed}: {'; '.join(problems)}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
