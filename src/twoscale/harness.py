"""Scenario configuration, experiment orchestration, and reporting.

A scenario JSON names a system, a grid, an experiment, and Monte Carlo
sizes; the run_* functions turn it into an ExperimentReport with one row
per reported statistic and a list of named pass/fail gates.  Reports
serialize to report.csv (fixed column schema, append-only versioned) and
report.json.

Determinism contract: a scenario's CSV body is a pure function of its
config.  Paths draw from streams addressed by (seed, path, tag), each
row's paths run in contiguous chunks, each chunk integrated as one batch
whose per-path results come back in path order (a chunk with a failed
path is rerun path by path), and reductions run in fixed path order, so
serial and parallel execution produce byte-identical reports whatever
the chunk cut; the sha256 of the CSV text is included as the
reproducibility hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import signal
import time
import warnings as _warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .averaging import (
    _INV_E,
    DeltaSchedule,
    EstimatedDriftSource,
    closed_form_drift,
    khasminskii_delta,
    simulate_auxiliary,
    simulate_averaged,
)
from .errors import ConfigError, DegenerateFitError, TwoscaleError, UsageError
from .frozen import estimate_averaged_drift, mixing_decay
from .metrics import p_moment, segment_displacement_moment, slope_fit, sup_distance
from .noise import W1, W2, StreamFactory
from .segment import (Segment, _node_norms, _row_dots, constant_segment, exact_steps,
                      lipschitz_modulus)
from .solver import fast_lag_steps, make_grid, simulate_coupled
from .systems import (
    _number,
    build_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    check_initial_segment,
    random_point_sampler,
    random_segment_pair_sampler,
    spot_check_purity,
    system_kind,
)

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "schema_version", "experiment", "epsilon", "delta", "p",
    "paths", "value", "std_error", "extra_json",
)

# Experiments that reduce their paths to moments with standard errors.
_MOMENT_EXPERIMENTS = ("converge", "auxiliary_gap", "segment_continuity")
_FROZEN_EXPERIMENTS = ("frozen", "mixing")
EXPERIMENTS = _MOMENT_EXPERIMENTS + _FROZEN_EXPERIMENTS + ("check", "simulate")
_ENSEMBLE_EXPERIMENTS = _MOMENT_EXPERIMENTS + ("simulate",)


# ------------------------------------------------------- config keys
# Each Scenario field is one config key, declared once by the _Key in its
# metadata.  A parser returns the key's value or a ConfigError naming it.

def _real(*, nonneg=False, most=math.inf):
    """A finite number > 0 (>= 0 with nonneg) and <= most."""
    def parse(raw, name):
        val = _number(raw, name)
        if not (0.0 < val <= most or nonneg and val == 0.0):
            bound = (">= 0" if nonneg else "> 0") + (f" and <= {most}" if most < math.inf else "")
            raise ConfigError(f"{name} must be {bound}, got {val}")
        return val
    return parse


def _integer(minimum):
    """An integer >= minimum; a float with an integral value counts."""
    def parse(raw, name):
        val = raw if type(raw) is int else _number(raw, name)
        if val != int(val) or val < minimum:
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {raw!r}")
        return int(val)
    return parse


def _one_of(choices):
    def parse(raw, name):
        if raw not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {raw!r}")
        return raw
    return parse


def _or(literal, parse):
    """parse, except that literal ("auto" or null) stands for itself."""
    return lambda raw, name: raw if raw == literal else parse(raw, name)


def _object(raw, name):
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object, got {raw!r}")
    return raw


def _system(raw, name):
    system_kind(_object(raw, name))
    return raw


def _numbers(entry, *, empty=False, descending=False):
    """A tuple of numbers read by entry, largest first with descending.

    With empty, [] is allowed and null reads as (); else null is None.
    """
    def parse(raw, name):
        if raw is None:
            return () if empty else None
        if not isinstance(raw, (list, tuple)) or not (raw or empty):
            raise ConfigError(f"{name} must be a {'' if empty else 'non-empty '}list, "
                              f"got {raw!r}")
        vals = tuple(entry(v, f"{name} entries") for v in raw)
        return tuple(sorted(vals, reverse=True)) if descending else vals
    return parse


def _segment(raw, name):
    """A start window: {"constant": v} or {"values": rows}, every entry a number."""
    if not isinstance(raw, dict) or set(raw) not in ({"constant"}, {"values"}):
        raise ConfigError(f"{name} must be an object with exactly one key, 'constant' or "
                          f"'values', got {raw!r}")
    [(form, value)] = raw.items()
    if form == "values" and not isinstance(value, list):
        raise ConfigError(f"{name} values must be a list, got {value!r}")
    rows = value if form == "values" else [value]
    for row in rows:
        for c in row if isinstance(row, list) else [row]:
            _number(c, f"{name} entries")
    if len({len(row) if isinstance(row, list) else None for row in rows}) > 1:
        raise ConfigError(f"{name} values must be rows of equal length")
    return dict(raw)


@dataclass(frozen=True)
class _Key:
    """How one config key is read.

    parse(value, name) normalizes a value, or is a nested table {key: _Key}
    for an object of keys.  default, a value or a function of tau, is parsed
    like a given one.  reads names the experiments that read the key.  A
    single value under alias stands for this list key when it is not given.
    """

    parse: object
    default: object = None
    reads: tuple = EXPERIMENTS
    alias: str | None = None

    def read(self, cfg: dict, name: str, tau: float | None, label: str | None = None):
        label = label or name
        if cfg.get(name) is None and self.alias in cfg:
            return self.parse([cfg[self.alias]], self.alias)
        value = cfg.get(name, self.default(tau) if callable(self.default) else self.default)
        if not isinstance(self.parse, dict):
            return self.parse(value, label)
        unknown = set(_object(value, label)) - set(self.parse)
        if unknown:
            raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
        return {k: key.read(value, k, tau, f"{label} {k}") for k, key in self.parse.items()}


# The most h may move the fast delay eps * tau by snapping it to whole
# steps.  A delay of 10 steps or more always passes (half a step in ten);
# auto h takes about tau / h_factor, 20 at tau = 1 by default.
_FAST_DELAY_SNAP = 0.05


def _snapped_fast_delay(epsilon: float, tau: float, h: float):
    """(eps * tau, lag * h) if h, which divides tau, snaps the fast delay too far; else None."""
    wanted, realized = epsilon * tau, fast_lag_steps(epsilon, make_grid(tau, h, tau)) * h
    return (wanted, realized) if abs(realized - wanted) > _FAST_DELAY_SNAP * wanted else None


def _check_fast_delay(epsilon: float, tau: float, h: float) -> None:
    """ConfigError when the fixed h snaps the fast delay by more than _FAST_DELAY_SNAP."""
    try:
        snapped = _snapped_fast_delay(epsilon, tau, h)
    except TwoscaleError:
        return  # resolve_h refuses a misaligned h before any path runs
    if snapped:
        raise ConfigError(f"fixed h={h} snaps the fast delay of epsilon={epsilon}, "
                          f"eps*tau={snapped[0]:.6g}, to lag*h={snapped[1]:.6g}, more than "
                          f"{_FAST_DELAY_SNAP:.0%} off; choose an h that divides eps*tau")


def _key(parse, default=None, reads=EXPERIMENTS, alias=None):
    return field(metadata={"key": _Key(parse, default, reads, alias)})


# The budget of the estimator drift source's frozen sub-simulations.
_ESTIMATOR_KEYS = {
    "burn_in": _Key(_real(nonneg=True), lambda tau: 5.0 * tau),
    "horizon": _Key(_real(), lambda tau: 20.0 * tau),
    "replicas": _Key(_integer(1), 4),
    "h": _Key(_real(), lambda tau: tau / 100.0),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated, normalized experiment configuration: one field per config key."""

    experiment: str = _key(_one_of(EXPERIMENTS))
    system: dict = _key(_system)
    tau: float = _key(_real(), 1.0)
    T: float = _key(_real(), 1.0)
    h: object = _key(_or("auto", _real()), "auto")  # "auto" or float
    h_factor: float = _key(_real(), 0.05, _ENSEMBLE_EXPERIMENTS)
    kappa_stab: float = _key(_real(), 0.1, _ENSEMBLE_EXPERIMENTS)
    epsilons: tuple = _key(_numbers(_real(most=1.0), empty=True, descending=True), None,
                           _ENSEMBLE_EXPERIMENTS, alias="epsilon")
    p: float = _key(_real(), 2.0, _MOMENT_EXPERIMENTS)
    paths: int = _key(_integer(1), 64, _ENSEMBLE_EXPERIMENTS)
    seed: int = _key(_integer(0), 12345)
    threads: int = _key(_integer(1), 1)
    xi: dict = _key(_segment, {"constant": 1.0})
    eta: dict = _key(_segment, {"constant": 0.0}, _ENSEMBLE_EXPERIMENTS + _FROZEN_EXPERIMENTS)
    eta_prime: dict | None = _key(_or(None, _segment), None, _FROZEN_EXPERIMENTS)
    burn_in: float = _key(_real(nonneg=True), lambda tau: 10.0 * tau, ("frozen",))
    horizon: float = _key(_real(), lambda tau: 50.0 * tau, ("frozen",))
    replicas: int = _key(_integer(1), 16, ("frozen",))
    mixing_replicas: int = _key(_integer(8), 8, _FROZEN_EXPERIMENTS)
    checkpoints: int = _key(_integer(3), 8, _FROZEN_EXPERIMENTS)
    drift_source: str = _key(_one_of(("closed_form", "estimator")), "closed_form",
                             ("converge",))
    estimator: dict = _key(_ESTIMATOR_KEYS, {}, ("converge",))
    deltas: tuple | None = _key(_numbers(_real(), descending=True), None,
                                ("segment_continuity",))
    sample_times: tuple | None = _key(_numbers(_number), None, ("segment_continuity",))
    lambda3_cap: float = _key(_real(nonneg=True), 10.0, ("check",))
    trials: int = _key(_integer(1), 2000, ("check",))
    delta: object = _key(_or("auto", _real()), "auto", ("auxiliary_gap",))  # "auto" or float

    @classmethod
    def from_config(cls, raw: dict) -> "Scenario":
        unknown = set(_object(raw, "scenario config")) - _ALLOWED_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        v = {}
        for f in fields(cls):
            v[f.name] = f.metadata["key"].read(raw, f.name, v.get("tau"))

        # The rules that tie keys together.  A key that the run does not
        # read would move the digest without moving a result.
        experiment = v["experiment"]
        unread_beside = {"epsilon": raw.get("epsilons") is not None, "h_factor": v["h"] != "auto",
                         "estimator": v["drift_source"] != "estimator"}
        ignored = set(raw) - _EXPERIMENT_KEYS[experiment]
        ignored |= {k for k, unread in unread_beside.items() if unread and k in raw}
        if ignored:
            raise ConfigError(f"experiment {experiment!r} does not read config keys "
                              f"{sorted(ignored)}")
        if v["h_factor"] > v["kappa_stab"]:
            raise ConfigError(f"h_factor={v['h_factor']} exceeds kappa_stab={v['kappa_stab']}; "
                              "auto-resolved steps would violate the stability cap")
        epsilons = v["epsilons"]
        if len(set(epsilons)) != len(epsilons):
            raise ConfigError(f"duplicate epsilon values: {list(epsilons)}")
        if experiment in ("converge", "auxiliary_gap") and not epsilons:
            raise ConfigError(f"{experiment} needs a non-empty epsilons list")
        if experiment in ("simulate", "segment_continuity") and len(epsilons) > 1:
            raise ConfigError(f"{experiment} runs one epsilon, got {list(epsilons)}")
        if experiment == "auxiliary_gap" and v["delta"] == "auto":
            bad = [e for e in epsilons if e >= _INV_E]
            if bad:
                raise ConfigError(
                    f"epsilons {bad} are >= 1/e; the block schedule needs eps < 1/e")
        if experiment in _MOMENT_EXPERIMENTS and v["paths"] < 2:
            raise ConfigError(
                f"{experiment} needs paths >= 2 for a moment's standard error, got {v['paths']}")
        if v["sample_times"] is not None and any(not (0.0 < t <= v["T"])
                                                 for t in v["sample_times"]):
            raise ConfigError(f"sample_times must lie in (0, T], got {v['sample_times']}")
        for eps in epsilons if v["h"] != "auto" else ():
            _check_fast_delay(eps, v["tau"], v["h"])
        if v["drift_source"] == "estimator":
            est = v["estimator"]
            # The spans the estimator's sub-simulation grid has to tile.
            spans = {"tau": v["tau"], "burn_in + horizon": est["burn_in"] + est["horizon"],
                     "horizon": est["horizon"], "burn_in": est["burn_in"]}
            try:
                for what, span in spans.items():
                    if span > 0.0:
                        exact_steps(span, est["h"], what)
            except TwoscaleError as exc:
                raise ConfigError(f"estimator h={est['h']} misaligned: {exc}") from exc
        return cls(**v)

    def digest(self) -> str:
        # The worker count changes execution, not results.
        core = asdict(self)
        del core["threads"]
        canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def build_spec(self):
        sys_cfg = dict(self.system)
        declared = sys_cfg.get("tau")
        if declared is not None:
            declared = _number(declared, "system tau")
        if declared is not None and abs(declared - self.tau) > 1e-12 * self.tau:
            raise ConfigError(
                f"system tau={declared} conflicts with scenario tau={self.tau}"
            )
        sys_cfg["tau"] = self.tau
        return build_system(sys_cfg)

    def materialize_segment(self, role: str, h: float, n: int) -> Segment | None:
        cfg = getattr(self, role)
        if cfg is None:
            return None
        if "constant" in cfg:
            value = cfg["constant"]
            if isinstance(value, (int, float)):
                value = np.full(n, float(value))
            return constant_segment(self.tau, h, value, n=n)
        seg = Segment(self.tau, h, cfg["values"])
        if seg.values.shape[1] != n:
            raise ConfigError(f"{role} has dimension {seg.values.shape[1]}, system needs {n}")
        return seg

    def resolve_h(self, epsilon: float | None = None, anchor: float | None = None,
                  default_target: float | None = None) -> float:
        """Pick the grid step for one run.

        Fixed h is validated (divides tau and the block anchor, honors the
        stability cap, moves the fast delay by at most _FAST_DELAY_SNAP).
        Auto h targets h_factor * epsilon (or the given default) and is
        snapped DOWN to divide the anchor (the block length when there is
        one, else tau), skipping any step that moves the fast delay by
        more than _FAST_DELAY_SNAP.
        """
        if self.h != "auto":
            h = float(self.h)
            try:
                exact_steps(self.tau, h, "tau")
                exact_steps(self.T, h, "T")
                if anchor is not None:
                    exact_steps(anchor, h, "delta")
            except TwoscaleError as exc:
                raise ConfigError(f"fixed h={h} misaligned: {exc}") from exc
            if epsilon is not None and h > self.kappa_stab * epsilon * (1.0 + 1e-12):
                raise ConfigError(f"fixed h={h} violates the stability cap for epsilon={epsilon}")
            if epsilon is not None:
                _check_fast_delay(epsilon, self.tau, h)
            return h
        if epsilon is not None:
            target = self.h_factor * epsilon
            if default_target is not None:
                target = min(target, default_target)
        elif default_target is not None:
            target = default_target
        else:
            raise ConfigError("auto h needs an epsilon or a default target")
        base = anchor if anchor is not None else self.tau
        k0 = max(1, math.ceil(base / target - 1e-12))
        # The step must tile the anchor, the delay, and the horizon, and
        # keep the fast delay; walk the divisor up until all of them hold.
        for k in range(k0, k0 + 4096):
            h = base / k
            try:
                exact_steps(self.tau, h, "tau")
                exact_steps(self.T, h, "T")
            except TwoscaleError:
                continue
            if epsilon is None or not _snapped_fast_delay(epsilon, self.tau, h):
                return h
        raise ConfigError(
            f"no step near {target} divides tau={self.tau}, T={self.T}, "
            f"and block {base} and keeps the fast delay within {_FAST_DELAY_SNAP:.0%}; "
            "choose commensurate durations"
        )

    def drift_callable(self, spec):
        if self.drift_source == "closed_form":
            return closed_form_drift(spec)
        return EstimatedDriftSource(spec, self.seed, **self.estimator)


# experiment -> the config keys it reads; any other key is refused.
_EXPERIMENT_KEYS = {
    e: {name for f in fields(Scenario) for name in (f.name, f.metadata["key"].alias)
        if name is not None and e in f.metadata["key"].reads}
    for e in EXPERIMENTS
}

_ALLOWED_KEYS = set().union(*_EXPERIMENT_KEYS.values())


@dataclass(eq=False)
class ExperimentReport:
    experiment: str
    scenario_digest: str
    rows: list
    gates: list
    warnings: list
    runtime_seconds: float
    reproducibility_hash: str

    @property
    def passed(self) -> bool:
        return all(g["passed"] for g in self.gates)

    @property
    def had_divergence(self) -> bool:
        return any(r.get("extra", {}).get("error_type") == "DivergenceError"
                   for r in self.rows)

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            extra = json.dumps(row.get("extra", {}), sort_keys=True,
                               separators=(",", ":"))
            cells = [
                str(SCHEMA_VERSION),
                self.experiment,
                _fmt(row.get("epsilon")),
                _fmt(row.get("delta")),
                _fmt(row.get("p")),
                _fmt(row.get("paths")),
                _fmt(row.get("value")),
                _fmt(row.get("std_error")),
                '"' + extra.replace('"', '""') + '"',
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "scenario_digest": self.scenario_digest,
            "rows": self.rows,
            "gates": self.gates,
            "warnings": self.warnings,
            "runtime_seconds": self.runtime_seconds,
            "reproducibility_hash": self.reproducibility_hash,
            "passed": self.passed,
        }

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "report.csv"
        json_path = out / "report.json"
        csv_path.write_text(self.csv_text())
        json_path.write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
        return csv_path, json_path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reported(body):
    """The runner that reports body(scenario, **options) -> (rows, gates), timed and hashed.

    The report lists the message of every warning the run raised, here or
    in a chunk, once each, in the order first raised; none reaches stderr.
    A TwoscaleError that ends the run carries them instead (see _caught).
    """
    @functools.wraps(body)
    def run(scenario: Scenario, **options) -> ExperimentReport:
        t0 = time.perf_counter()
        (rows, gates), messages = _caught(body, scenario, **options)
        report = ExperimentReport(
            experiment=scenario.experiment,
            scenario_digest=scenario.digest(),
            rows=rows,
            gates=gates,
            warnings=messages,
            runtime_seconds=time.perf_counter() - t0,
            reproducibility_hash="",
        )
        report.reproducibility_hash = hashlib.sha256(report.csv_text().encode()).hexdigest()
        return report
    return run


# ------------------------------------------------------- path ensembles

@dataclass(frozen=True, eq=False)
class _Chunk:
    """What a chunk body sees: one parsed scenario on one row's grid."""

    scenario: Scenario
    spec: object
    epsilon: float
    grid: object
    xi: np.ndarray
    eta: np.ndarray
    streams: StreamFactory
    extra: dict

    def noise(self, paths, tag: str) -> list:
        return [self.streams.stream(path, tag) for path in paths]

    def coupled(self, paths):
        return simulate_coupled(
            self.spec, self.xi, self.eta, self.epsilon, self.grid,
            self.noise(paths, W1), self.noise(paths, W2),
            kappa_stab=self.scenario.kappa_stab,
        )


def _attempt(body, chunk: _Chunk, paths) -> list:
    """body(chunk, paths) as ("ok", value) per path, or its error for every path."""
    try:
        return [("ok", v) for v in body(chunk, paths)]
    except TwoscaleError as exc:
        return [("err", type(exc).__name__, str(exc))] * len(paths)


def _caught(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the messages of the warnings it raised, each once, in order.

    A TwoscaleError it raises carries them, ahead of those of any inner
    call, as its `warnings` list.
    """
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        try:
            value = fn(*args, **kwargs)
        except TwoscaleError as exc:
            exc.warnings = [str(w.message) for w in caught] + getattr(exc, "warnings", [])
            raise
    return value, list(dict.fromkeys(str(w.message) for w in caught))


def _run_chunk(job):
    """Run paths [start, stop) of one row through body as one batch.

    The system, grid, start windows and stream factory are built once
    per chunk, so set-up errors propagate.  body(chunk, paths) returns
    one value per path in path order, each reported as ("ok", value).
    This is the one place that isolates a failed path: if body raises a
    TwoscaleError, every path of the chunk is rerun alone on the same
    chunk and gets its own value or ("err", type, message) from its
    one-path run.  Each path keeps its own streams and every kernel
    operation is elementwise over paths, so the results do not depend on
    the chunk cut.  Returns the results and the messages of the warnings
    the chunk raised, each once.
    """
    return _caught(_chunk_results, *job)


def _chunk_results(body, scen, epsilon, h, extra, start, stop) -> list:
    spec = scen.build_spec()
    chunk = _Chunk(
        scenario=scen, spec=spec, epsilon=epsilon,
        grid=make_grid(scen.T, h, scen.tau),
        xi=scen.materialize_segment("xi", h, spec.n).values,
        eta=scen.materialize_segment("eta", h, spec.n).values,
        streams=StreamFactory(scen.seed, spec.m), extra=extra,
    )
    paths = range(start, stop)
    results = _attempt(body, chunk, paths)
    if len(paths) > 1 and results[0][0] == "err":
        results = [r for p in paths for r in _attempt(body, chunk, range(p, p + 1))]
    return results


def _run_ensemble(scenario: Scenario, body, rows) -> list:
    """Per-path results of every (epsilon, h, extra) row, in path order.

    There are min(threads, CPUs) workers.  Each job is one whole row as
    a single batch, unless there are fewer rows than workers: then each
    row is cut into ceil(workers / rows) contiguous path chunks.  One
    worker runs the jobs serially in-process; more go to _forked,
    longest grid first (round(T / h) steps).  Paths draw from streams
    addressed by their own index, so the results depend on neither the
    cut nor the order.  The chunks' warning messages are raised again
    here, in row and path order.
    """
    paths = scenario.paths
    workers = min(scenario.threads, os.cpu_count() or 1)
    per_row = min(-(-workers // len(rows)), paths)
    bounds = [paths * j // per_row for j in range(per_row + 1)]
    jobs = [(body, scenario, epsilon, h, extra, bounds[j], bounds[j + 1])
            for epsilon, h, extra in rows for j in range(per_row)]
    if workers <= 1 or len(jobs) <= 1:
        done = [_run_chunk(job) for job in jobs]
    else:
        order = sorted(range(len(jobs)), key=lambda i: -round(scenario.T / jobs[i][3]))
        done = dict(zip(order, _forked([jobs[i] for i in order], min(workers, len(jobs)))))
    for message in (w for j in range(len(jobs)) for w in done[j][1]):
        _warnings.warn(message)
    return [[r for j in range(i, i + per_row) for r in done[j][0]]
            for i in range(0, len(jobs), per_row)]


def _plan(jobs, workers: int) -> list:
    """Job indices per worker: each job in turn to the least-loaded one, costing steps * paths."""
    plan, load = [[] for _ in range(workers)], [0] * workers
    for i, (_, scen, _, h, _, start, stop) in enumerate(jobs):
        w = load.index(min(load))  # the lowest index on ties
        plan[w].append(i)
        load[w] += round(scen.T / h) * (stop - start)
    return plan


def _forked(jobs, workers: int) -> list:
    """_run_chunk of every job, in job order, run by forked children as _plan deals them.

    A child inherits its jobs and pipes back one pickle of its results or
    its exception, which is raised again here (as a RuntimeError if it
    does not survive pickling); a child that exits without either raises
    OSError.  Every child is reaped before this returns.
    """
    children, done = [], {}  # (pid, read end) of each child not yet reaped
    try:
        for mine in _plan(jobs, workers):
            rfd, wfd = os.pipe()
            if (pid := os.fork()) == 0:
                _child(wfd, [(i, jobs[i]) for i in mine])
            os.close(wfd)
            children.append((pid, open(rfd, "rb")))
        for worker in range(workers):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status != 0:
                raise OSError(f"worker {worker} exited without a result (wait status "
                              f"{status}, exit code {os.waitstatus_to_exitcode(status)})")
            value = pickle.loads(data)
            if isinstance(value, BaseException):
                raise value
            done.update(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] for i in range(len(jobs))]


def _child(fd: int, jobs) -> None:
    """Pipe the results of (index, job) pairs, or the exception, to fd and exit; never returns.

    os._exit leaves the caller's stack and flushes none of the parent's stdio buffers.
    """
    try:
        try:
            outcome = [(i, _run_chunk(job)) for i, job in jobs]
        except BaseException as exc:  # raised again in the parent
            outcome = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                outcome = RuntimeError(f"{type(exc).__name__}: {exc}")
        with open(fd, "wb") as pipe:
            pickle.dump(outcome, pipe)
        os._exit(0)
    finally:
        os._exit(1)  # the outcome was not written


def _row_values(results, row):
    """Per-path values of a row, or (None, error row) if any path failed.

    The error row keeps row's coordinates and reports the first failing
    path's error type and message with the number of failed paths.
    """
    errors = [r for r in results if r[0] == "err"]
    if not errors:
        return [r[1] for r in results], None
    _, kind, msg = errors[0]
    extra = dict(row["extra"], error_type=kind, error=msg, failed_paths=len(errors))
    return None, dict(row, value=None, std_error=None, extra=extra)


def _row(epsilon, delta, p, paths, kind, h) -> dict:
    return {"epsilon": epsilon, "delta": delta, "p": p, "paths": paths,
            "value": None, "std_error": None, "extra": {"kind": kind, "h": h}}


def _with_moment(row: dict, moment, **extra) -> dict:
    return dict(row, paths=moment.paths, value=moment.value,
                std_error=moment.std_error, extra=dict(row["extra"], **extra))


def _failed_paths_gate(error_row: dict) -> dict:
    return {"name": "rows_complete", "passed": False,
            "detail": f"{error_row['extra']['failed_paths']} failed path(s)"}


def _monotone_gate(moments, std_errors):
    """Nonincreasing check allowing one inversion inside overlapping 2-sigma bars."""
    soft = 0
    hard = 0
    for i in range(len(moments) - 1):
        if moments[i + 1] > moments[i]:
            lo_next = moments[i + 1] - 2.0 * std_errors[i + 1]
            hi_here = moments[i] + 2.0 * std_errors[i]
            if lo_next <= hi_here:
                soft += 1
            else:
                hard += 1
    passed = hard == 0 and soft <= 1
    return {
        "name": "monotone_trend",
        "passed": passed,
        "detail": f"{soft} soft inversion(s), {hard} hard inversion(s) over {len(moments)} rows",
    }


# ---------------------------------------------------------------- converge

def _converge_chunk(c: _Chunk, paths) -> list:
    x, _ = c.coupled(paths)
    # Fresh streams with the same addresses: the averaged equation
    # replays the identical W1 increments (pathwise coupling).
    xbar = simulate_averaged(c.spec, c.xi, c.scenario.drift_callable(c.spec), c.grid,
                             c.noise(paths, W1))
    return sup_distance(x, xbar, c.grid).tolist()


@_reported
def run_converge(scenario: Scenario):
    """Strong-limit experiment: E sup |X^eps - Xbar|^p per epsilon.

    Per path, the coupled pair and the averaged equation run under one
    W1 stream; the sup gap over [0, T] feeds a p-th moment per epsilon.
    Gates: the moment sequence must trend down as epsilon does (one soft
    inversion allowed), the last moment must be below a third of the
    first, and every row must complete.
    """
    if scenario.drift_source == "closed_form":
        # A system without one fails here, before any path is simulated.
        closed_form_drift(scenario.build_spec())
    sweep = [(eps, scenario.resolve_h(epsilon=eps), {}) for eps in scenario.epsilons]
    results = _run_ensemble(scenario, _converge_chunk, sweep)

    rows = []
    ok_rows = []
    for (eps, h, _), res in zip(sweep, results):
        row = _row(eps, None, scenario.p, scenario.paths, "sup_gap_moment", h)
        gaps, error_row = _row_values(res, row)
        if error_row is not None:
            rows.append(error_row)
            continue
        row = _with_moment(row, p_moment(gaps, scenario.p))
        rows.append(row)
        ok_rows.append(row)

    fit_rows = [r for r in reversed(ok_rows) if r["value"] > 0.0]
    if len(fit_rows) >= 3:
        try:
            fit = slope_fit([r["epsilon"] for r in fit_rows], [r["value"] for r in fit_rows])
            rows.append(_slope_row(None, scenario, fit))
        except UsageError:
            pass  # a degenerate sweep reports no slope row

    return rows, _trend_gates(ok_rows, complete=len(ok_rows) == len(sweep))


def _slope_row(epsilon, scenario: Scenario, fit) -> dict:
    return {"epsilon": epsilon, "delta": None, "p": scenario.p,
            "paths": scenario.paths, "value": fit.slope, "std_error": None,
            "extra": {"kind": "slope_fit", "intercept": fit.intercept,
                      "r_squared": fit.r_squared, "points": len(fit.xs)}}


def _trend_gates(ok_rows, complete: bool):
    moments = [r["value"] for r in ok_rows]
    ses = [r["std_error"] for r in ok_rows]
    gates = []
    if len(moments) >= 2:
        gates.append(_monotone_gate(moments, ses))
        first, last = moments[0], moments[-1]
        degenerate = first <= 1e-10
        reduced = degenerate or last <= first / 3.0
        gates.append({
            "name": "final_reduction",
            "passed": bool(reduced),
            "detail": ("all moments at roundoff level" if degenerate
                       else f"first={first:.6g}, last={last:.6g}"),
        })
    else:
        gates.append({"name": "monotone_trend", "passed": True,
                      "detail": "fewer than 2 rows; trivially satisfied"})
    gates.append({"name": "rows_complete", "passed": complete,
                  "detail": f"{len(ok_rows)} successful row(s)"})
    return gates


# ---------------------------------------------------------- auxiliary gap

def _snap_to_tau(tau: float, delta: float) -> tuple[float, int]:
    """Snap delta to tau / N so blocks tile the delay; a moved delta is warned."""
    n = max(1, round(tau / delta))
    snapped = tau / n
    if abs(snapped - delta) > 1e-9 * delta:
        _warnings.warn(f"delta={delta} snapped to tau/{n}={snapped}")
    return snapped, n


def _aux_chunk(c: _Chunk, paths) -> list:
    pair = simulate_auxiliary(
        c.spec, c.xi, c.eta, c.epsilon, c.extra["schedule"], c.grid,
        c.noise(paths, W1), c.noise(paths, W2), kappa_stab=c.scenario.kappa_stab,
    )
    ts, y, yt, resets = c.grid.tau_steps, pair.y, pair.y_aux, pair.reset_indices
    # The reset windows [i - ts, i] start delta = tau / N <= tau apart, so
    # together they cover rows resets[0] - ts to resets[-1] without a gap:
    # one max over that run is the max over the windows, exact in every bit.
    union = slice(resets[0] - ts, resets[-1] + 1)
    y_gap = _node_norms(yt[union] - y[union]).max(axis=0)
    jumps = (yt[resets] - y[resets]).reshape(-1, y.shape[-1])
    audit = np.sqrt(_row_dots(jumps, jumps)).reshape(len(resets), -1).max(axis=0)
    audit = np.maximum(np.zeros(len(paths)), audit)
    x_gap = sup_distance(pair.x, pair.x_aux, c.grid)
    return list(zip(x_gap.tolist(), y_gap.tolist(), audit.tolist()))


@_reported
def run_auxiliary_gap(scenario: Scenario):
    """Block-frozen construction error: E sup |X - Xtilde|^p per epsilon.

    Alongside the slow gap moment, each epsilon row reports the moment of
    the worst fast window gap over block boundaries and the reset audit
    (max pointwise |Ytilde - Y| at boundaries, exactly 0 by construction).
    """
    # A fixed delta is snapped, and warned of, once for the whole sweep.
    fixed = None if scenario.delta == "auto" else DeltaSchedule(
        scenario.delta, *_snap_to_tau(scenario.tau, scenario.delta))
    schedules = [fixed or khasminskii_delta(eps, scenario.tau) for eps in scenario.epsilons]
    sweep = [(eps, scenario.resolve_h(epsilon=eps, anchor=s.delta), {"schedule": s})
             for eps, s in zip(scenario.epsilons, schedules)]
    results = _run_ensemble(scenario, _aux_chunk, sweep)

    rows = []
    ok_rows = []
    for (eps, h, _), schedule, res in zip(sweep, schedules, results):
        row = _row(eps, schedule.delta, scenario.p, scenario.paths, "aux_slow_gap_moment", h)
        gaps, error_row = _row_values(res, row)
        if error_row is not None:
            rows.append(error_row)
            continue
        x_gaps, y_gaps, audits = zip(*gaps)
        audit_max = max(audits)
        row = _with_moment(row, p_moment(x_gaps, scenario.p),
                           N_delta=schedule.N_delta, reset_audit_max=audit_max)
        fast = _row(eps, schedule.delta, scenario.p, scenario.paths,
                    "aux_fast_checkpoint_gap_moment", h)
        audit = _row(eps, schedule.delta, None, scenario.paths, "reset_audit", h)
        rows += [row, _with_moment(fast, p_moment(y_gaps, scenario.p)),
                 dict(audit, value=audit_max)]
        ok_rows.append(row)

    gates = _trend_gates(ok_rows, complete=len(ok_rows) == len(sweep))
    if len(ok_rows) >= 2:
        big, small = ok_rows[0], ok_rows[-1]
        sigma = math.sqrt(big["std_error"] ** 2 + small["std_error"] ** 2)
        separated = big["value"] - small["value"] > 2.0 * sigma
        gates.append({
            "name": "extremes_separated_2sigma",
            "passed": bool(separated),
            "detail": (f"moment({big['epsilon']})={big['value']:.6g} vs "
                       f"moment({small['epsilon']})={small['value']:.6g}, "
                       f"2*sigma={2 * sigma:.3g}"),
        })
    audits = [r["extra"]["reset_audit_max"] for r in ok_rows]
    gates.append({
        "name": "reset_audit_zero",
        "passed": bool(ok_rows) and all(a == 0.0 for a in audits),
        "detail": f"max over rows: {max(audits) if audits else 'n/a'}",
    })
    return rows, gates


# ----------------------------------------------------- segment continuity

def _segcont_chunk(c: _Chunk, paths) -> list:
    x, _ = c.coupled(paths)
    moments = [segment_displacement_moment(x, c.grid, d, c.scenario.p, c.extra["times"])
               for d in c.extra["deltas"]]
    return np.stack(moments, axis=1).tolist()


@_reported
def run_segment_continuity(scenario: Scenario):
    """Window displacement scaling: E ||X_t - X_{t_delta}||^p vs delta.

    One ensemble of coupled paths is reused across the delta sweep; the
    fitted log-log slope must clear 0.9 * (p - 2) / 2 (one-sided, since
    the per-block bound has a steeper exponent than the global one).
    """
    epsilon = scenario.epsilons[0] if scenario.epsilons else 0.05
    deltas = list(scenario.deltas) if scenario.deltas is not None else [
        scenario.tau / 16.0, scenario.tau / 32.0,
        scenario.tau / 64.0, scenario.tau / 128.0,
    ]
    normed = [_snap_to_tau(scenario.tau, d)[0] for d in deltas]
    deltas = sorted(set(normed), reverse=True)
    if len(deltas) < len(normed):
        _warnings.warn("duplicate deltas merged after snapping")
    d_min = deltas[-1]
    # At least 4 nodes per smallest block so mid-block samples exist.
    h = scenario.resolve_h(epsilon=epsilon, anchor=d_min,
                           default_target=d_min / 4.0)
    for i, d in enumerate(deltas):
        k = max(1, round(d / h))
        if abs(k * h - d) > 1e-9 * d:
            _warnings.warn(f"delta={d} snapped to {k}*h={k * h}")
            deltas[i] = k * h

    grid = make_grid(scenario.T, h, scenario.tau)
    if scenario.sample_times is not None:
        times = list(scenario.sample_times)
        for t in times:
            try:
                grid.index_of(t)
            except TwoscaleError as exc:
                raise ConfigError(f"sample time {t} is off the run's grid: {exc}") from exc
    else:
        # Block-boundary samples would make every displacement zero, and
        # a shared offset would make them delta-independent.  Odd
        # multiples of d_max/16 reduce to offsets proportional to each
        # block size across a dyadic sweep.
        d_max_steps = exact_steps(deltas[0], h, "delta")
        idxs = set()
        for j in range(8):
            r = max(1, ((2 * j + 1) * d_max_steps) // 16)
            idxs.add(min(grid.steps, j * grid.steps // 8 + r))
        times = [k * h for k in sorted(idxs) if k > 0]
    extra = {"deltas": deltas, "times": times}
    [results] = _run_ensemble(scenario, _segcont_chunk, [(epsilon, h, extra)])
    row = _row(epsilon, None, scenario.p, scenario.paths, "segment_displacement_moment", h)
    values, error_row = _row_values(results, row)
    if error_row is not None:
        return [error_row], [_failed_paths_gate(error_row)]

    per_path = np.array(values)  # (paths, n_deltas)
    moments = per_path.mean(axis=0)
    ses = per_path.std(axis=0, ddof=1) / math.sqrt(len(values))
    rows = [dict(row, delta=d, value=float(moments[j]), std_error=float(ses[j]),
                 extra=dict(row["extra"], sample_times=len(times)))
            for j, d in enumerate(deltas)]
    gates = []

    floor = 0.9 * (scenario.p - 2.0) / 2.0
    if len(deltas) >= 3 and (moments > 0.0).all():
        fit = slope_fit(list(reversed(deltas)), list(reversed(moments.tolist())))
        rows.append(_slope_row(epsilon, scenario, fit))
        gates.append({
            "name": "slope_floor",
            "passed": bool(fit.slope >= floor),
            "detail": f"slope={fit.slope:.4f}, floor={floor:.4f}",
        })
    else:
        gates.append({
            "name": "slope_floor",
            "passed": False,
            "detail": "need >= 3 positive moments to fit a slope",
        })
    gates.append({"name": "rows_complete", "passed": True,
                  "detail": f"{len(results)} path(s)"})
    return rows, gates


# ------------------------------------------------------- frozen / mixing

def _zeta_digest(seg: Segment) -> str:
    payload = seg.values.tobytes() + repr((seg.tau, seg.h)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@_reported
def run_frozen(scenario: Scenario):
    """Frozen fast equation at the window xi: bbar estimate and mixing fit.

    experiment "frozen" reports the stationary averaged-drift estimate
    and the contraction-rate fit; "mixing" reports the fit only.
    """
    spec = scenario.build_spec()
    h = scenario.resolve_h(default_target=scenario.tau / 1000.0)
    zeta = scenario.materialize_segment("xi", h, spec.n)
    eta = scenario.materialize_segment("eta", h, spec.n)
    fac = StreamFactory(scenario.seed, spec.m)
    rows = []

    if scenario.experiment == "frozen":
        grid_est = make_grid(scenario.burn_in + scenario.horizon, h, scenario.tau)
        est = estimate_averaged_drift(spec, zeta.values[:, None], scenario.burn_in,
                                      scenario.horizon, scenario.replicas, grid_est, [fac],
                                      eta=eta.values)
        row = _row(None, None, None, scenario.replicas, "bbar_estimate", h)
        rows.append(dict(
            row,
            value=float(est.value[0, 0]) if spec.n == 1 else float(np.linalg.norm(est.value)),
            std_error=float(np.linalg.norm(est.std_error)),
            extra=dict(row["extra"], bbar=est.value[0].tolist(),
                       std_error=est.std_error[0].tolist(), burn_in=scenario.burn_in,
                       horizon=scenario.horizon, zeta_digest=_zeta_digest(zeta)),
        ))

    grid = make_grid(scenario.checkpoints * scenario.tau, h, scenario.tau)
    eta_prime = scenario.materialize_segment("eta_prime", h, spec.n)
    eta_prime = eta.values + 1.0 if eta_prime is None else eta_prime.values
    row = _row(None, None, None, scenario.mixing_replicas, "mixing_fit", h)
    try:
        fit = mixing_decay(spec, zeta.values, eta.values, eta_prime, grid,
                           scenario.mixing_replicas, fac)
    except DegenerateFitError as exc:
        rows.append(dict(row, extra=dict(row["extra"], degenerate=True, detail=str(exc))))
        gate = {"name": "mixing_rate_positive", "passed": True,
                "detail": "gap contracted below the fit floor (strong mixing)"}
    else:
        rows.append(dict(row, value=fit.fitted_rate,
                         extra=dict(row["extra"], r_squared=fit.r_squared,
                                    times=fit.times, log_gaps=fit.log_gaps)))
        gate = {"name": "mixing_rate_positive", "passed": bool(fit.fitted_rate > 0.0),
                "detail": f"fitted_rate={fit.fitted_rate:.4f}, r2={fit.r_squared:.4f}"}
    return rows, [gate]


# ----------------------------------------------------------------- check

@_reported
def run_check(scenario: Scenario):
    """Sampled structure checks: contraction, growth, start window, purity."""
    spec = scenario.build_spec()
    h = scenario.resolve_h(default_target=scenario.tau / 64.0)
    xi = scenario.materialize_segment("xi", h, spec.n)

    rows, gates = [], []

    def check(kind, paths, value, passed, detail, **extra):
        row = _row(None, None, None, paths, kind, h)
        extra = dict(row["extra"], verdict="pass" if passed else "fail", **extra)
        rows.append(dict(row, value=value, extra=extra))
        gates.append({"name": kind, "passed": bool(passed), "detail": detail})

    points = random_point_sampler(scenario.tau, h, spec.n)
    diss = check_dissipativity(spec, *points(np.random.default_rng(scenario.seed), scenario.trials))
    check("dissipativity", diss.sample_count, diss.worst_violation, diss.passed,
          f"worst_violation={diss.worst_violation:.3g} at "
          f"(l1={diss.lambda1:.4g}, l2={diss.lambda2:.4g})",
          lambda1=diss.lambda1, lambda2=diss.lambda2)
    pairs = random_segment_pair_sampler(scenario.tau, h, spec.n)
    growth = check_growth_and_lipschitz(
        spec, *pairs(np.random.default_rng(scenario.seed + 1), scenario.trials))
    check("growth_lipschitz", scenario.trials, growth.L_estimate, growth.passed,
          f"L_estimate={growth.L_estimate:.4g}", witnesses=growth.max_ratio_points)
    modulus = lipschitz_modulus(xi)
    check("initial_segment", 1, modulus, check_initial_segment(xi, scenario.lambda3_cap),
          f"modulus={modulus:.4g}, cap={scenario.lambda3_cap:.4g}", cap=scenario.lambda3_cap)
    pure = spot_check_purity(spec, h, scenario.seed + 2)
    check("coefficient_purity", 1, 1.0 if pure else 0.0, pure,
          "maps returned identical values on repeated calls"
          if pure else "a coefficient map is stateful")
    return rows, gates


# -------------------------------------------------------------- simulate

def _simulate_chunk(c: _Chunk, paths) -> list:
    x, y = c.coupled(paths)
    if c.extra["dump_dir"]:
        for j, path in enumerate(paths):
            _dump_paths(c.grid.times(), x[:, j], y[:, j], Path(c.extra["dump_dir"]),
                        f"{c.extra['stem']}_{path}.csv")
    return np.sqrt(_row_dots(x[-1], x[-1])).tolist()


def _dump_paths(times, x, y, out_dir: Path, name: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    n = x.shape[1]
    header = ",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)])
    lines = [header]
    for t, xr, yr in zip(times, x, y):
        lines.append(",".join(repr(float(v)) for v in (t, *xr, *yr)))
    (out_dir / name).write_text("\n".join(lines) + "\n")


@_reported
def run_simulate(scenario: Scenario, *, dump_dir=None, stem: str = "scenario"):
    """Plain coupled ensemble; optionally dumps per-path trajectory CSVs."""
    epsilon = scenario.epsilons[0] if scenario.epsilons else 0.05
    h = scenario.resolve_h(epsilon=epsilon)
    extra = {"dump_dir": str(dump_dir) if dump_dir is not None else None, "stem": stem}
    [results] = _run_ensemble(scenario, _simulate_chunk, [(epsilon, h, extra)])
    row = _row(epsilon, None, 1.0, scenario.paths, "endpoint_slow_norm", h)
    endpoints, error_row = _row_values(results, row)
    if error_row is not None:
        return [error_row], [_failed_paths_gate(error_row)]
    if len(endpoints) >= 2:
        moment = p_moment(endpoints, 1.0)
        value, se, paths = moment.value, moment.std_error, moment.paths
    else:
        value, se, paths = float(endpoints[0]), 0.0, 1
    row = dict(row, paths=paths, value=value, std_error=se,
               extra=dict(row["extra"], dumped=dump_dir is not None))
    gates = [{"name": "rows_complete", "passed": True,
              "detail": f"{len(endpoints)} path(s)"}]
    return [row], gates


_RUNNERS = {
    "converge": run_converge,
    "auxiliary_gap": run_auxiliary_gap,
    "segment_continuity": run_segment_continuity,
    "frozen": run_frozen,
    "mixing": run_frozen,
    "check": run_check,
    "simulate": run_simulate,
}


def run_scenario(scenario: Scenario, **options) -> ExperimentReport:
    """The report of the scenario's experiment; options go to its runner (dump_dir, stem)."""
    return _RUNNERS[scenario.experiment](scenario, **options)
