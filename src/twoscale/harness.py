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
    EstimatedDriftSource,
    closed_form_drift,
    khasminskii_delta,
    simulate_auxiliary,
    simulate_averaged,
)
from .errors import ConfigError, DegenerateFitError, TwoscaleError
from .frozen import GAP_FLOOR, estimate_averaged_drift, mixing_decay
from .metrics import p_moment, segment_displacement_moment, slope_fit, sup_distance
from .noise import W1, W2, increments
from .segment import (_node_norms, _row_dots, constant_segment, exact_steps,
                      lipschitz_modulus, window)
from .solver import fast_lag_steps, make_grid, simulate_coupled
from .systems import (
    _number,
    build_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    check_initial_segment,
    random_points,
    random_segment_pairs,
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

# The epsilon of simulate and segment_continuity when epsilons is empty.
_SINGLE_EPSILON = 0.05


def _misalignment(h: float, spans: dict) -> str | None:
    """The fault "misaligned: ..." of the first nonzero {what: span} h does not tile, or None."""
    try:
        for what, span in spans.items():
            if span:
                exact_steps(span, h, what)
    except TwoscaleError as exc:
        return f"misaligned: {exc}"
    return None


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
    T: float = _key(_real(), 1.0, _ENSEMBLE_EXPERIMENTS)
    h: object = _key(_or("auto", _real()), "auto")  # "auto" or float
    h_factor: float = _key(_real(), 0.05, _ENSEMBLE_EXPERIMENTS)
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
        unread_beside = {"epsilon": raw.get("epsilons") is not None,
                         "estimator": v["drift_source"] != "estimator"}
        ignored = set(raw) - _EXPERIMENT_KEYS[experiment]
        ignored |= {k for k, unread in unread_beside.items() if unread and k in raw}
        if ignored:
            raise ConfigError(f"experiment {experiment!r} does not read config keys "
                              f"{sorted(ignored)}")
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
        if v["drift_source"] == "estimator":
            est = v["estimator"]
            # The spans the estimator's sub-simulation grid has to tile.
            fault = _misalignment(est["h"], {
                "tau": v["tau"], "burn_in + horizon": est["burn_in"] + est["horizon"],
                "horizon": est["horizon"], "burn_in": est["burn_in"]})
            if fault:
                raise ConfigError(f"estimator h={est['h']} {fault}")
        scenario = cls(**v)
        # A fixed h meets every step rule at every epsilon the run uses;
        # only the block length, which the runner resolves, is left.
        if scenario.h != "auto":
            single = _SINGLE_EPSILON if experiment in ("simulate", "segment_continuity") else None
            for eps in epsilons or (single,):
                scenario.resolve_h(epsilon=eps)
        return scenario

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

    def materialize_segment(self, role: str, h: float, n: int) -> np.ndarray | None:
        cfg = getattr(self, role)
        if cfg is None:
            return None
        if "constant" in cfg:
            value = cfg["constant"]
            if isinstance(value, (int, float)):
                value = np.full(n, float(value))
            return constant_segment(self.tau, h, value, n=n)
        values = window(self.tau, h, cfg["values"])
        if values.shape[1] != n:
            raise ConfigError(f"{role} has dimension {values.shape[1]}, system needs {n}")
        return values

    def resolve_h(self, epsilon: float | None = None, anchor: float | None = None,
                  default_target: float | None = None) -> float:
        """Pick the grid step for one run: one that passes _step_fault.

        A fixed h either passes or is refused.  Auto h targets the smaller
        of the cap h_factor * epsilon and the given default, and is snapped DOWN
        to the first base / k that passes, base being the anchor (the
        block length when there is one) else tau.
        """
        if self.h != "auto":
            h = float(self.h)
            fault = self._step_fault(h, epsilon, anchor)
            if fault:
                raise ConfigError(f"fixed h={h} {fault}")
            return h
        target = min(t for t in (epsilon and self.h_factor * epsilon, default_target)
                     if t is not None)
        base = anchor if anchor is not None else self.tau
        k0 = max(1, math.ceil(base / target - 1e-12))
        for k in range(k0, k0 + 4096):
            if not self._step_fault(base / k, epsilon, anchor):
                return base / k
        spans = ", ".join(f"{what}={span:.6g}" for what, span in self._spans(anchor).items())
        delay = f" and keeps the fast delay within {_FAST_DELAY_SNAP:.0%}" if epsilon else ""
        raise ConfigError(f"no step near {target:.6g} divides {spans}{delay}; "
                          "choose commensurate durations")

    def _spans(self, anchor: float | None) -> dict:
        """{what: span} of every span the run's step must tile: those it reads, and the anchor."""
        reads = _EXPERIMENT_KEYS[self.experiment] | {"delta"}
        spans = {"tau": self.tau, "T": self.T, "delta": anchor, "burn_in": self.burn_in,
                 "horizon": self.horizon}
        return {what: span for what, span in spans.items() if span and what in reads}

    def _step_fault(self, h: float, epsilon: float | None, anchor: float | None) -> str | None:
        """The first step rule h breaks, as the tail of a message, or None.

        h must tile the run's _spans; with an epsilon it must also stay at or below
        h_factor * epsilon, which bounds the fast chain's step h / eps, and realize
        the fast delay eps * tau on the run's grid to within _FAST_DELAY_SNAP.
        """
        fault = _misalignment(h, self._spans(anchor))
        if fault or epsilon is None:
            return fault
        if h > self.h_factor * epsilon * (1.0 + 1e-12):
            return (f"exceeds h_factor*epsilon={self.h_factor * epsilon:.6g} at "
                    f"epsilon={epsilon}; refine h or raise h_factor")
        wanted = epsilon * self.tau
        realized = fast_lag_steps(epsilon, make_grid(self.T, h, self.tau)) * h
        if abs(realized - wanted) > _FAST_DELAY_SNAP * wanted:
            return (f"snaps the fast delay of epsilon={epsilon}, eps*tau={wanted:.6g}, to "
                    f"lag*h={realized:.6g}, more than {_FAST_DELAY_SNAP:.0%} off; "
                    "choose an h that divides eps*tau")
        return None

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
    reproducibility_hash: str = field(init=False)

    def __post_init__(self):
        self.reproducibility_hash = hashlib.sha256(self.csv_text().encode()).hexdigest()

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
            extra = json.dumps(row.get("extra", {}), sort_keys=True, separators=(",", ":"))
            cells = [str(SCHEMA_VERSION), self.experiment,
                     *(_fmt(row.get(c)) for c in CSV_COLUMNS[2:-1]),
                     '"' + extra.replace('"', '""') + '"']
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)}, "passed": self.passed}

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
        return ExperimentReport(experiment=scenario.experiment,
                                scenario_digest=scenario.digest(), rows=rows, gates=gates,
                                warnings=messages, runtime_seconds=time.perf_counter() - t0)
    return run


# ------------------------------------------------------- path ensembles

@dataclass(frozen=True, eq=False)
class _Chunk:
    """What a chunk body sees: one row's system, grid and start windows, built once per run."""

    scenario: Scenario
    spec: object
    epsilon: float
    grid: object
    xi: np.ndarray
    eta: np.ndarray
    extra: dict

    def noise(self, paths, tag: str) -> np.ndarray:
        return increments(self.scenario.seed, paths, tag, self.spec.m,
                          self.grid.steps, self.grid.h)

    def coupled(self, paths, dw1: np.ndarray):
        return simulate_coupled(self.spec, self.xi, self.eta, self.epsilon, self.grid,
                                dw1, self.noise(paths, W2))


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
    """Run paths [start, stop) of a (body, chunk, start, stop) job as one batch.

    The chunk is the row _run_ensemble built, shared by all of the row's
    jobs.  body(chunk, paths) returns one value per path in path order,
    each reported as ("ok", value).
    This is the one place that isolates a failed path: if body raises a
    TwoscaleError, every path of the chunk is rerun alone on the same
    chunk and gets its own value or ("err", type, message) from its
    one-path run.  Each path keeps its own streams and every kernel
    operation is elementwise over paths, so the results do not depend on
    the chunk cut.  Returns the results and the messages of the warnings
    the chunk raised, each once.
    """
    return _caught(_chunk_results, *job)


def _chunk_results(body, chunk: _Chunk, start, stop) -> list:
    paths = range(start, stop)
    results = _attempt(body, chunk, paths)
    if len(paths) > 1 and results[0][0] == "err":
        results = [r for p in paths for r in _attempt(body, chunk, range(p, p + 1))]
    return results


def _run_ensemble(scenario: Scenario, spec, body, rows) -> list:
    """A (record, values) pair per (record, extra) row of the system spec, in row order.

    record is the row's report record; its epsilon and extra["h"] fix the
    chunk's epsilon and grid.  values lists the per-path values in path
    order, or is None if any path failed: record then comes back as the
    error record, with the first failing path's error_type and error, the
    number of failed_paths, and no value or std_error.
    Each row is built here, before any worker forks: workers only integrate.
    There are min(threads, len(_cpus())) workers, or one where os has no fork.
    Each job is one whole row as a single batch, unless there are fewer
    rows than workers: then each row is cut into ceil(workers / rows)
    contiguous path chunks.  One worker runs the jobs serially
    in-process; more go to _forked, which deals them as _plan does.
    Paths draw from streams addressed by their own index, so the results
    depend on neither the cut nor the order.  The chunks' warning
    messages are raised again here, in row and path order.
    """
    chunks = [_Chunk(scenario, spec, record["epsilon"], make_grid(scenario.T, h, scenario.tau),
                     scenario.materialize_segment("xi", h, spec.n),
                     scenario.materialize_segment("eta", h, spec.n), extra)
              for record, extra in rows for h in [record["extra"]["h"]]]
    paths = scenario.paths
    workers = min(scenario.threads, len(_cpus())) if hasattr(os, "fork") else 1
    per_row = min(-(-workers // len(rows)), paths)
    bounds = [paths * j // per_row for j in range(per_row + 1)]
    jobs = [(body, chunk, bounds[j], bounds[j + 1]) for chunk in chunks for j in range(per_row)]
    if workers <= 1 or len(jobs) <= 1:
        done = [_run_chunk(job) for job in jobs]
    else:
        done = _forked(jobs, min(workers, len(jobs)))
    for message in (w for j in range(len(jobs)) for w in done[j][1]):
        _warnings.warn(message)
    pairs = []
    for i, (record, _) in enumerate(rows):
        results = [r for j in range(i * per_row, (i + 1) * per_row) for r in done[j][0]]
        errors = [r for r in results if r[0] == "err"]
        if errors:
            _, kind, msg = errors[0]
            record = dict(record, value=None, std_error=None, extra=dict(
                record["extra"], error_type=kind, error=msg, failed_paths=len(errors)))
        pairs.append((record, None if errors else [r[1] for r in results]))
    return pairs


def _cpus() -> list:
    """The CPUs this process may run on, sorted; range(cpu_count) where os cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _plan(jobs, workers: int) -> list:
    """Job indices per worker: each job to the least-loaded one, costing steps * paths.

    Jobs are dealt longest grid (its chunk's grid.steps) first, ties in job order.
    """
    plan, load = [[] for _ in range(workers)], [0] * workers
    cost = [(chunk.grid.steps, stop - start) for _, chunk, start, stop in jobs]
    for i in sorted(range(len(jobs)), key=lambda i: -cost[i][0]):
        w = load.index(min(load))  # the lowest index on ties
        plan[w].append(i)
        load[w] += cost[i][0] * cost[i][1]
    return plan


def _forked(jobs, workers: int) -> list:
    """_run_chunk of every job, in job order, run by forked children as _plan deals them.

    Worker w is placed alone on CPU cpus[w % len(cpus)], cpus = _cpus().
    A child inherits its jobs and pipes back one pickle of its results or
    its exception, which is raised again here; an exception that does not
    survive pickling comes back as an OSError naming its type and message,
    and a child that exits without either raises OSError.  Every child is
    reaped before this returns.
    """
    children, done = [], {}  # (pid, read end) of each child not yet reaped
    try:
        cpus = _cpus()
        for w, mine in enumerate(_plan(jobs, workers)):
            rfd, wfd = os.pipe()
            if (pid := os.fork()) == 0:
                _child(wfd, [(i, jobs[i]) for i in mine], cpus[w % len(cpus)])
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


def _child(fd: int, jobs, cpu: int) -> None:
    """Pipe the results of (index, job) pairs, or the exception, to fd and exit; never returns.

    os._exit leaves the caller's stack and flushes none of the parent's stdio buffers.
    """
    try:
        try:  # run on cpu alone where os can; placement is only a hint, so OSError is ignored
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
        try:
            outcome = [(i, _run_chunk(job)) for i, job in jobs]
        except BaseException as exc:  # raised again in the parent
            outcome = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                outcome = OSError(f"{type(exc).__name__}: {exc}")
        with open(fd, "wb") as pipe:
            pickle.dump(outcome, pipe)
        os._exit(0)
    finally:
        os._exit(1)  # the outcome was not written


def _row(epsilon, delta, p, paths, kind, h) -> dict:
    return {"epsilon": epsilon, "delta": delta, "p": p, "paths": paths,
            "value": None, "std_error": None, "extra": {"kind": kind, "h": h}}


def _with_moment(row: dict, moment, **extra) -> dict:
    return dict(row, paths=moment.paths, value=moment.value,
                std_error=moment.std_error, extra=dict(row["extra"], **extra))


def _gate(name: str, passed, detail: str) -> dict:
    """A gate record; passed becomes a plain bool, as a numpy bool does not serialize to JSON."""
    return {"name": name, "passed": bool(passed), "detail": detail}


def _failed_paths_gate(error_row: dict) -> dict:
    return _gate("rows_complete", False, f"{error_row['extra']['failed_paths']} failed path(s)")


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
    return _gate("monotone_trend", hard == 0 and soft <= 1,
                 f"{soft} soft inversion(s), {hard} hard inversion(s) over {len(moments)} rows")


# ---------------------------------------------------------------- converge

def _converge_chunk(c: _Chunk, paths) -> list:
    dw1 = c.noise(paths, W1)
    x = c.coupled(paths, dw1)[0]  # y is freed before the averaged pass
    xbar = simulate_averaged(c.spec, c.xi, c.extra["drift"], c.grid, dw1, c.extra["row"], paths)
    return sup_distance(x, xbar, c.grid).tolist()


@_reported
def run_converge(scenario: Scenario):
    """Strong-limit experiment: E sup |X^eps - Xbar|^p per epsilon.

    Per path, the coupled pair and the averaged equation run on the same
    W1 increments; the sup gap over [0, T] feeds a p-th moment per epsilon.
    Gates: the moment sequence must trend down as epsilon does (one soft
    inversion allowed), the last moment must be below a third of the
    first, and every row must complete.
    """
    spec = scenario.build_spec()
    # A system without a closed form fails here, before any path is simulated.
    drift = scenario.drift_callable(spec)
    sweep = [(_row(eps, None, scenario.p, scenario.paths, "sup_gap_moment",
                   scenario.resolve_h(epsilon=eps)), {"drift": drift, "row": i})
             for i, eps in enumerate(scenario.epsilons)]
    rows, ok_rows = [], []
    for row, gaps in _run_ensemble(scenario, spec, _converge_chunk, sweep):
        if gaps is not None:
            row = _with_moment(row, p_moment(gaps, scenario.p))
            ok_rows.append(row)
        rows.append(row)

    fit_rows = [r for r in reversed(ok_rows) if r["value"] > 0.0]
    if len(fit_rows) >= 3:
        fit = slope_fit([r["epsilon"] for r in fit_rows], [r["value"] for r in fit_rows])
        rows.append(_slope_row(None, scenario, fit))

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
        gates.append(_gate("final_reduction", degenerate or last <= first / 3.0,
                           "all moments at roundoff level" if degenerate
                           else f"first={first:.6g}, last={last:.6g}"))
    else:
        gates.append(_gate("monotone_trend", True, "fewer than 2 rows; trivially satisfied"))
    gates.append(_gate("rows_complete", complete, f"{len(ok_rows)} successful row(s)"))
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
    pair = simulate_auxiliary(c.spec, c.xi, c.eta, c.epsilon, c.extra["delta"], c.grid,
                              c.noise(paths, W1), c.noise(paths, W2))
    ts, y, yt, resets = c.grid.tau_steps, pair.y, pair.y_aux, pair.reset_indices
    # The reset windows [i - ts, i] start delta = tau / N <= tau apart, so
    # together they cover rows resets[0] - ts to resets[-1] without a gap:
    # one max over that run is the max over the windows, exact in every bit.
    union = slice(resets[0] - ts, resets[-1] + 1)
    y_gap = _node_norms(yt[union] - y[union]).max(axis=0)
    jumps = (yt[resets] - y[resets]).reshape(-1, y.shape[-1])
    audit = np.sqrt(_row_dots(jumps, jumps)).reshape(len(resets), -1).max(axis=0)
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
    fixed = None if scenario.delta == "auto" else _snap_to_tau(scenario.tau, scenario.delta)[1]
    blocks = {eps: fixed or khasminskii_delta(eps, scenario.tau) for eps in scenario.epsilons}
    sweep = [(_row(eps, d, scenario.p, scenario.paths, "aux_slow_gap_moment",
                   scenario.resolve_h(epsilon=eps, anchor=d)), {"delta": d})
             for eps, n in blocks.items() for d in [scenario.tau / n]]
    rows, ok_rows = [], []
    for row, gaps in _run_ensemble(scenario, scenario.build_spec(), _aux_chunk, sweep):
        if gaps is None:
            rows.append(row)
            continue
        x_gaps, y_gaps, audits = zip(*gaps)
        audit_max = max(audits)
        slow = _with_moment(row, p_moment(x_gaps, scenario.p),
                            N_delta=blocks[row["epsilon"]], reset_audit_max=audit_max)
        fast = dict(row, extra=dict(row["extra"], kind="aux_fast_checkpoint_gap_moment"))
        audit = dict(row, p=None, value=audit_max,
                     extra=dict(row["extra"], kind="reset_audit"))
        rows += [slow, _with_moment(fast, p_moment(y_gaps, scenario.p)), audit]
        ok_rows.append(slow)

    gates = _trend_gates(ok_rows, complete=len(ok_rows) == len(sweep))
    if len(ok_rows) >= 2:
        big, small = ok_rows[0], ok_rows[-1]
        sigma = math.sqrt(big["std_error"] ** 2 + small["std_error"] ** 2)
        gates.append(_gate("extremes_separated_2sigma",
                           big["value"] - small["value"] > 2.0 * sigma,
                           f"moment({big['epsilon']})={big['value']:.6g} vs "
                           f"moment({small['epsilon']})={small['value']:.6g}, "
                           f"2*sigma={2 * sigma:.3g}"))
    audits = [r["extra"]["reset_audit_max"] for r in ok_rows]
    gates.append(_gate("reset_audit_zero", ok_rows and all(a == 0.0 for a in audits),
                       f"max over rows: {max(audits) if audits else 'n/a'}"))
    return rows, gates


# ----------------------------------------------------- segment continuity

def _segcont_chunk(c: _Chunk, paths) -> list:
    x, _ = c.coupled(paths, c.noise(paths, W1))
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
    epsilon = scenario.epsilons[0] if scenario.epsilons else _SINGLE_EPSILON
    deltas = list(scenario.deltas) if scenario.deltas is not None else [
        scenario.tau / 16.0, scenario.tau / 32.0,
        scenario.tau / 64.0, scenario.tau / 128.0,
    ]
    normed = [_snap_to_tau(scenario.tau, d)[0] for d in deltas]
    d_min = min(normed)
    # At least 4 nodes per smallest block so mid-block samples exist.
    h = scenario.resolve_h(epsilon=epsilon, anchor=d_min,
                           default_target=d_min / 4.0)
    snapped = set()
    for d in sorted(set(normed), reverse=True):
        k = max(1, round(d / h))
        if abs(k * h - d) > 1e-9 * d:
            _warnings.warn(f"delta={d} snapped to {k}*h={k * h}")
            d = k * h
        snapped.add(d)
    deltas = sorted(snapped, reverse=True)
    if len(deltas) < len(normed):
        _warnings.warn("duplicate deltas merged after snapping")

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
    row = _row(epsilon, None, scenario.p, scenario.paths, "segment_displacement_moment", h)
    [(row, values)] = _run_ensemble(scenario, scenario.build_spec(), _segcont_chunk,
                                    [(row, {"deltas": deltas, "times": times})])
    if values is None:
        return [row], [_failed_paths_gate(row)]

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
        gates.append(_gate("slope_floor", fit.slope >= floor,
                           f"slope={fit.slope:.4f}, floor={floor:.4f}"))
    else:
        gates.append(_gate("slope_floor", False, "need >= 3 positive moments to fit a slope"))
    gates.append(_gate("rows_complete", True, f"{len(values)} path(s)"))
    return rows, gates


# ------------------------------------------------------- frozen / mixing

def _zeta_digest(zeta: np.ndarray, tau: float, h: float) -> str:
    payload = zeta.tobytes() + repr((tau, h)).encode()
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
    rows = []

    if scenario.experiment == "frozen":
        est = estimate_averaged_drift(spec, zeta[:, None], scenario.burn_in,
                                      scenario.horizon, scenario.replicas, h,
                                      [scenario.seed], eta=eta)
        row = _row(None, None, None, scenario.replicas, "bbar_estimate", h)
        rows.append(dict(
            row,
            value=float(est.value[0, 0]) if spec.n == 1 else float(np.linalg.norm(est.value)),
            std_error=float(np.linalg.norm(est.std_error)),
            extra=dict(row["extra"], bbar=est.value[0].tolist(),
                       std_error=est.std_error[0].tolist(), burn_in=scenario.burn_in,
                       horizon=scenario.horizon, zeta_digest=_zeta_digest(zeta, scenario.tau, h)),
        ))

    eta_prime = scenario.materialize_segment("eta_prime", h, spec.n)
    eta_prime = eta + 1.0 if eta_prime is None else eta_prime
    row = _row(None, None, None, scenario.mixing_replicas, "mixing_fit", h)
    try:
        fit = mixing_decay(spec, zeta, eta, eta_prime, h, scenario.checkpoints,
                           scenario.mixing_replicas, scenario.seed)
    except DegenerateFitError as exc:
        rows.append(dict(row, extra=dict(row["extra"], degenerate=True, detail=str(exc))))
        # A gap below the fit floor is evidence of mixing only if the starts were apart.
        start_gap = _node_norms(eta - eta_prime).max() ** 2
        gate = _gate("mixing_rate_positive", start_gap > GAP_FLOOR,
                     "gap contracted below the fit floor (strong mixing)"
                     if start_gap > GAP_FLOOR else
                     f"start windows eta and eta_prime coincide (squared sup gap "
                     f"{start_gap:.3g} <= {GAP_FLOOR:g}): nothing contracted")
    else:
        rows.append(dict(row, value=fit.fitted_rate,
                         extra=dict(row["extra"], r_squared=fit.r_squared,
                                    times=fit.times, log_gaps=fit.log_gaps)))
        gate = _gate("mixing_rate_positive", fit.fitted_rate > 0.0,
                     f"fitted_rate={fit.fitted_rate:.4f}, r2={fit.r_squared:.4f}")
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
        gates.append(_gate(kind, passed, detail))

    points = random_points(np.random.default_rng(scenario.seed), scenario.trials,
                           scenario.tau, h, spec.n)
    diss = check_dissipativity(spec, *points)
    check("dissipativity", diss.sample_count, diss.worst_violation, diss.passed,
          f"worst_violation={diss.worst_violation:.3g} at "
          f"(l1={diss.lambda1:.4g}, l2={diss.lambda2:.4g})",
          lambda1=diss.lambda1, lambda2=diss.lambda2)
    pairs = random_segment_pairs(np.random.default_rng(scenario.seed + 1), scenario.trials,
                                 scenario.tau, h, spec.n)
    growth = check_growth_and_lipschitz(spec, *pairs)
    check("growth_lipschitz", scenario.trials, growth.L_estimate, growth.passed,
          f"L_estimate={growth.L_estimate:.4g}", witnesses=growth.max_ratio_points)
    modulus = lipschitz_modulus(xi, h)
    check("initial_segment", 1, modulus, check_initial_segment(xi, h, scenario.lambda3_cap),
          f"modulus={modulus:.4g}, cap={scenario.lambda3_cap:.4g}", cap=scenario.lambda3_cap)
    pure = spot_check_purity(spec, h, scenario.seed + 2)
    check("coefficient_purity", 1, 1.0 if pure else 0.0, pure,
          "maps returned identical values on repeated calls"
          if pure else "a coefficient map is stateful")
    return rows, gates


# -------------------------------------------------------------- simulate

def _simulate_chunk(c: _Chunk, paths) -> list:
    x, y = c.coupled(paths, c.noise(paths, W1))
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
    epsilon = scenario.epsilons[0] if scenario.epsilons else _SINGLE_EPSILON
    h = scenario.resolve_h(epsilon=epsilon)
    row = _row(epsilon, None, 1.0, scenario.paths, "endpoint_slow_norm", h)
    extra = {"dump_dir": str(dump_dir) if dump_dir is not None else None, "stem": stem}
    [(row, endpoints)] = _run_ensemble(scenario, scenario.build_spec(), _simulate_chunk,
                                       [(row, extra)])
    if endpoints is None:
        return [row], [_failed_paths_gate(row)]
    if len(endpoints) >= 2:
        moment = p_moment(endpoints, 1.0)
        value, se, paths = moment.value, moment.std_error, moment.paths
    else:
        value, se, paths = float(endpoints[0]), 0.0, 1
    row = dict(row, paths=paths, value=value, std_error=se,
               extra=dict(row["extra"], dumped=dump_dir is not None))
    return [row], [_gate("rows_complete", True, f"{len(endpoints)} path(s)")]


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
