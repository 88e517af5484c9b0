"""Command line entry point.

Each subcommand loads a scenario JSON, runs one experiment, writes
report.csv / report.json into the output directory, and prints a gate
summary.  Exit codes: 0 all gates passed, 2 a gate failed, 3 a
trajectory diverged, 4 any other library error (the config or
invocation was invalid, say), the output could not be written, a pool
worker died or memory ran out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, DivergenceError, TwoscaleError, UsageError
from .harness import Scenario, run_scenario

# subcommand -> experiments it accepts; the first is the default when the
# config omits the experiment key.
_SUBCOMMANDS = {
    "check": ("check",),
    "simulate": ("simulate",),
    "frozen": ("frozen", "mixing"),
    "converge": ("converge",),
    "aux-gap": ("auxiliary_gap",),
    "seg-cont": ("segment_continuity",),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which would collide with
    # the gate-failure code; route through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="twoscale",
                     description="two-time-scale delay SDE experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="scenario JSON file")
        p.add_argument("--out", default="twoscale_out",
                       help="output directory (default: twoscale_out)")
        p.add_argument("--paths", type=int, default=None,
                       help="override the Monte Carlo path count")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override the worker count: whole rows, longest grid first, go "
                            "to at most one worker per CPU, cut by paths only when rows < "
                            "workers; frozen, mixing and check run in one process")
        if name == "simulate":
            p.add_argument("--dump-paths", action="store_true",
                           help="write per-path trajectory CSVs beside the report")
    return parser


def _load_config(path_str: str, command: str, args) -> dict:
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")

    allowed = _SUBCOMMANDS[command]
    experiment = cfg.get("experiment")
    if experiment is None:
        cfg["experiment"] = allowed[0]
    elif experiment not in allowed:
        raise ConfigError(
            f"subcommand {command!r} runs {allowed}, config says {experiment!r}"
        )
    for key in ("paths", "seed", "threads"):
        override = getattr(args, key)
        if override is not None:
            cfg[key] = override
    return cfg


def _check_out_dir(out: Path) -> None:
    """Fail before any path is simulated if out cannot become a writable directory."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"cannot create output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise UsageError(f"cannot create output directory {out}: {existing} is not writable")


def _fail(label: str, exc: BaseException, code: int) -> int:
    """Print the warnings the run raised before exc ended it, then exc; return code."""
    for message in dict.fromkeys(getattr(exc, "warnings", ())):  # see harness._caught
        print(f"warning: {message}", file=sys.stderr)
    print(f"{label}: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config, args.command, args)
        scenario = Scenario.from_config(cfg)
        out_dir = Path(args.out)
        _check_out_dir(out_dir)
        # Only simulate has --dump-paths; its trajectory CSVs go beside the report.
        dump = args.command == "simulate" and args.dump_paths
        options = {"dump_dir": out_dir, "stem": Path(args.config).stem} if dump else {}
        report = run_scenario(scenario, **options)
        csv_path, json_path = report.write(out_dir)
    except DivergenceError as exc:
        return _fail("divergence", exc, 3)
    except (TwoscaleError, OSError) as exc:
        return _fail("error", exc, 4)
    except MemoryError as exc:
        return _fail("error: out of memory", exc, 4)

    print(f"experiment: {report.experiment}  digest: {report.scenario_digest}")
    print(f"rows: {len(report.rows)}  runtime: {report.runtime_seconds:.2f}s")
    for gate in report.gates:
        status = "pass" if gate["passed"] else "FAIL"
        print(f"gate {gate['name']}: {status} ({gate['detail']})")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"report: {csv_path}")
    print(f"hash: {report.reproducibility_hash}")

    if report.had_divergence:
        return 3
    if not report.passed:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
