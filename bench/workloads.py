"""The benchmark workloads: scenario configs and their correctness checks.

Every workload runs the linear benchmark system of tests/test_acceptance.py
(tau = 1).  A workload's scenario seed is its base seed plus the
benchmark's --seed, so the same --seed always gives the same scenario.

Each check reads one finished report and returns a list of problems
(empty when the report is right).  Checks compare against the
independent reference in reference.py or against properties the
method must have; none compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

PARAMS = {"a11": -1.0, "a12": 1.0, "s1": 0.3, "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3}
PAIR = reference.LinearPair(**PARAMS)
SYSTEM = {"kind": "linear_benchmark", "params": PARAMS}

# Reference and package run the same float operations in the same order;
# this only absorbs a reordered reduction.
REFERENCE_RTOL = 1e-9
# |m_est - m_exact| <= ESTIMATOR_RTOL * m_exact per eps row, where m_exact
# is the reference moment with the exact drift kappa*x on the same noise.
# Over 16 seeds the estimator's own error (2 replicas, horizon 5) put the
# moments 5% RMS and at most 13% off m_exact.
ESTIMATOR_RTOL = 0.4


@dataclass(frozen=True)
class Report:
    rows: list
    gates: list
    csv_hash: str

    @classmethod
    def load(cls, out_dir: Path) -> "Report":
        text = (out_dir / "report.csv").read_text()
        rows = []
        for row in csv.DictReader(text.splitlines()):
            row["extra"] = json.loads(row.pop("extra_json"))
            rows.append(row)
        gates = json.loads((out_dir / "report.json").read_text())["gates"]
        return cls(rows, gates, hashlib.sha256(text.encode()).hexdigest())

    def kind(self, kind: str) -> list:
        return [r for r in self.rows if r["extra"]["kind"] == kind]

    def failed_gates(self) -> list:
        return [f"gate {g['name']} failed: {g['detail']}" for g in self.gates if not g["passed"]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_seed: int
    config: dict
    check: Callable[[Report, dict], list]
    # paths of the reduced copy whose threads=1 and threads=2 hashes must agree
    determinism_paths: int | None = None

    def scenario(self, seed: int, **overrides) -> dict:
        return dict(self.config, seed=(self.base_seed + seed) % 2 ** 63, **overrides)


def _moment_problems(report: Report, cfg: dict, kind: str, reference_gaps,
                     rtol: float, what: str) -> list:
    """Rows of one kind whose moment is off the reference by more than rtol.

    reference_gaps(row) gives the reference's per-path gaps for that row.
    """
    rows = report.kind(kind)
    problems = []
    if len(rows) != len(cfg["epsilons"]):
        problems.append(f"{len(rows)} {kind} rows for {len(cfg['epsilons'])} epsilons")
    for row in rows:
        ref = reference.moment(reference_gaps(row), cfg["p"])
        value = float(row["value"])
        if abs(value - ref) > rtol * ref:
            problems.append(f"eps={row['epsilon']}: {kind} {value!r} vs {what} {ref!r}")
    return problems


def check_aux_gap(report: Report, cfg: dict) -> list:
    def gaps(row):
        return reference.aux_sup_gaps(PAIR, cfg["seed"], cfg["paths"], float(row["epsilon"]),
                                      row["extra"]["h"], cfg["T"], float(row["delta"]),
                                      cfg["tau"])

    problems = report.failed_gates() + _moment_problems(
        report, cfg, "aux_slow_gap_moment", gaps, REFERENCE_RTOL, "reference")
    audits = report.kind("reset_audit")
    if len(audits) != len(cfg["epsilons"]):
        problems.append(f"{len(audits)} reset_audit rows for {len(cfg['epsilons'])} epsilons")
    problems += [f"eps={r['epsilon']}: reset audit {r['value']}" for r in audits
                 if float(r["value"]) != 0.0]
    return problems


def check_estimator(report: Report, cfg: dict) -> list:
    def gaps(row):
        return reference.sup_gaps(PAIR, cfg["seed"], cfg["paths"], float(row["epsilon"]),
                                  row["extra"]["h"], cfg["T"], cfg["tau"])

    return report.failed_gates() + _moment_problems(
        report, cfg, "sup_gap_moment", gaps, ESTIMATOR_RTOL, "exact-drift reference")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="aux-gap-threads2", command="aux-gap", base_seed=7,
        config={"experiment": "auxiliary_gap", "system": SYSTEM, "tau": 1.0, "T": 0.5,
                "epsilons": [0.05, 0.02, 0.01, 0.005], "p": 2.0, "paths": 24,
                "threads": 2},
        check=check_aux_gap, determinism_paths=4,
    ),
    Workload(
        name="converge-estimator", command="converge", base_seed=11,
        config={"experiment": "converge", "system": SYSTEM, "tau": 1.0, "T": 0.1,
                "h_factor": 0.1, "epsilons": [0.1, 0.01], "p": 2.0, "paths": 4,
                "threads": 1, "drift_source": "estimator",
                "estimator": {"burn_in": 5.0, "horizon": 5.0, "replicas": 2, "h": 0.05}},
        check=check_estimator,
    ),
)}
