import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoscale
from twoscale import harness
from twoscale.averaging import DeltaSchedule, khasminskii_delta
from twoscale.cli import _SUBCOMMANDS
from twoscale.cli import main as cli_main
from twoscale.errors import ConfigError, DataError, UsageError
from twoscale.harness import (
    _ALLOWED_KEYS,
    _ESTIMATOR_KEYS,
    _EXPERIMENT_KEYS,
    _aux_chunk,
    _converge_chunk,
    _run_chunk,
    _segcont_chunk,
    CSV_COLUMNS,
    EXPERIMENTS,
    SCHEMA_VERSION,
    Scenario,
    run_scenario,
    run_simulate,
)
from twoscale.metrics import sup_distance
from twoscale.segment import _node_norms, _row_dots
from twoscale.solver import fast_lag_steps, make_grid
from twoscale.systems import LinearBenchmarkParams, SystemSpec, register_system
from test_frozen import switch_spec
from test_golden import CASES as GOLDEN_CASES
from test_golden import _blowup_factory as _golden_blowup

BENCH_SYS = {
    "kind": "linear_benchmark",
    "params": {"a11": -1.0, "a12": 1.0, "s1": 0.3,
               "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3},
}


def _cfg(**over):
    """A converge config with over applied, less the base keys the experiment does not read."""
    base = {
        "experiment": "converge",
        "system": BENCH_SYS,
        "tau": 1.0,
        "T": 0.5,
        "epsilons": [0.25, 0.125, 0.0625],
        "p": 2.0,
        "paths": 6,
        "seed": 777,
    }
    if over.get("experiment") in ("simulate", "segment_continuity"):
        base["epsilons"] = [0.25]  # the one epsilon they run
    reads = _EXPERIMENT_KEYS.get(over.get("experiment", "converge"), _ALLOWED_KEYS)
    base = {k: v for k, v in base.items() if k in reads}
    base.update(over)
    return base


# Each of these fails Scenario.from_config with a ConfigError.
def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


_BAD_PARSE_CONFIGS = [
    _cfg(experiment="segment_continuity", deltas=[0.25, "abc"]),
    _cfg(experiment="segment_continuity", deltas=[float("inf")]),
    _cfg(experiment="segment_continuity", sample_times=[0.25, "abc"]),
    _cfg(paths=True),
    _cfg(seed=1.7),
    _cfg(seed=-1),
    _cfg(xi={"constant": "abc"}),
    _cfg(paths=1),
    _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.01], paths=1),
    _cfg(experiment="segment_continuity", epsilons=[0.05], paths=1),
    _cfg(dump_paths=True),  # trajectory dumps are the --dump-paths flag only
    _cfg(xi={"values": [True] * 5}),
    _cfg(xi={"values": ["1", "2", "3", "4", "5"]}),
    _cfg(drift_source="estimator", estimator={"quant": 1e-4}),  # no estimator memo
    # A segment object takes exactly one of constant/values and no other key.
    _cfg(xi={"values": [1.0] * 5, "h": 0.5}),
    _cfg(xi={"values": [1.0] * 5, "n": "abc"}),
    _cfg(eta={"constant": 0.0, "values": [0.0] * 5}),
    _cfg(xi={"values": "nope"}),
    _cfg(xi={"values": [[1.0, 2.0], [3.0]]}),  # ragged rows
    # The estimator's step must tile tau, burn_in and horizon.
    _cfg(drift_source="estimator", estimator={"h": 0.03}),
    # Only eta_prime may be null.
    _cfg(xi=None),
    _cfg(eta=None),
    # A system object takes only the keys its kind reads: kind, tau, and
    # params or name.  A note would move the digest, or crash it nested deep.
    _cfg(system=dict(BENCH_SYS, note=1)),
    _cfg(system=dict(BENCH_SYS, note=_nested(900))),
    _cfg(system={"kind": "registered", "name": "golden_plane", "params": {}}),
    # A fixed h of 0.01 snaps the fast delays 0.015, 0.025 and 0.035 to
    # 2, 2 and 4 steps.
    _cfg(h=0.01, kappa_stab=1.0, epsilons=[0.015, 0.025, 0.035]),
    # These run one epsilon; another would move the digest and no result.
    _cfg(experiment="simulate", epsilons=[0.05, 0.1]),
    _cfg(experiment="segment_continuity", epsilons=[0.05, 0.1]),
]


def test_from_config_validation_errors():
    with pytest.raises(ConfigError):
        Scenario.from_config("not a dict")
    with pytest.raises(ConfigError, match="unknown config keys"):
        Scenario.from_config(_cfg(surprise=1))
    with pytest.raises(ConfigError, match="experiment"):
        Scenario.from_config(_cfg(experiment="wander"))
    with pytest.raises(ConfigError, match="system"):
        Scenario.from_config(_cfg(system=None))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(tau=-1.0))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(epsilons=[0.5, 1.5]))
    with pytest.raises(ConfigError, match="duplicate"):
        Scenario.from_config(_cfg(epsilons=[0.5, 0.5]))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(epsilons="0.5"))
    with pytest.raises(ConfigError, match="h_factor"):
        Scenario.from_config(_cfg(h_factor=0.2, kappa_stab=0.1))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(paths=0))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(drift_source="oracle"))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(drift_source="estimator", estimator={"mystery": 1}))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(xi={"wrong": 1}))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(experiment="segment_continuity", sample_times=[2.0]))  # past T
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(experiment="segment_continuity", deltas=[]))
    for bad in _BAD_PARSE_CONFIGS:
        with pytest.raises(ConfigError):
            Scenario.from_config(bad)
    for bad_value in ("abc", True):
        bad_params = dict(BENCH_SYS["params"], c1=bad_value)
        with pytest.raises(ConfigError, match="linear_benchmark params"):
            Scenario.from_config(_cfg(system=dict(BENCH_SYS, params=bad_params))).build_spec()
    # A single path is still a valid plain simulation.
    assert Scenario.from_config(_cfg(experiment="simulate", paths=1)).paths == 1



_json_leaf = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=4)
              | st.sampled_from(["abc", "1.5", "Infinity", "auto", "estimator"]))
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
_numberish = st.integers(-2, 100) | st.floats(-1.0, 3.0) | _json
_field = (_numberish | st.lists(_numberish, max_size=4)
          | st.fixed_dictionaries({}, optional={"constant": _numberish, "values": _json}))
_system = _json | st.fixed_dictionaries(
    {"kind": st.sampled_from(["linear_benchmark", "registered"]) | _json},
    optional={"params": _json, "name": _json, "tau": _numberish},
)


@st.composite
def _configs(draw, pinned=None):
    """A valid config of a random experiment with a few of its fields replaced.

    pinned maps keys to the value they take where the experiment reads
    them (None: left out); a pinned key is never replaced.
    """
    pinned = pinned or {}
    experiment = draw(st.sampled_from(EXPERIMENTS))
    cfg = _cfg(experiment=experiment)
    reads = sorted(_EXPERIMENT_KEYS[experiment])
    if "epsilons" in reads:
        cfg["epsilons"] = [0.05, 0.02]
    cfg.update({k: v for k, v in pinned.items() if k in reads and v is not None})
    free = [k for k in reads if k not in pinned]
    for key in draw(st.lists(st.sampled_from(free), max_size=3, unique=True)):
        cfg[key] = draw(_system if key == "system" else _field)
    if draw(st.booleans()):
        params = dict(BENCH_SYS["params"])
        params[draw(st.sampled_from(sorted(params)))] = draw(_numberish)
        cfg["system"] = dict(BENCH_SYS, params=params)
    return cfg


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_any_json_config_parses_or_raises_config_error(cfg):
    """Parsing and building the system never fail with anything but ConfigError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            Scenario.from_config(cfg).build_spec()
        except ConfigError:
            pass


# The keys that set a run's grid step, horizon and amount of work, pinned
# so that every drawn config runs in a fraction of a second on one worker.
_SMALL_RUN = {"tau": 1.0, "T": 0.05, "h": "auto", "h_factor": 0.05, "epsilons": [0.05, 0.02],
              "epsilon": None, "delta": None, "deltas": None, "paths": 2, "threads": 1,
              "trials": 50, "burn_in": 0.5, "horizon": 0.5, "replicas": 2,
              "mixing_replicas": 8, "checkpoints": 3, "drift_source": "closed_form",
              "estimator": None}

# subcommand that runs each experiment
_COMMAND_OF = {e: c for c, experiments in _SUBCOMMANDS.items() for e in experiments}


@settings(max_examples=60, deadline=None)
@given(_configs(_SMALL_RUN), st.sampled_from(sorted(_SUBCOMMANDS)))
def test_any_config_file_exits_with_a_documented_code(cfg, fallback):
    """cli.main on any config gives exit 0, 2, 3 or 4 and never raises.

    The config runs under its experiment's subcommand; a replaced
    experiment key runs under the drawn fallback.
    """
    experiment = cfg["experiment"]
    command = _COMMAND_OF.get(experiment, fallback) if isinstance(experiment, str) else fallback
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = _write_cfg(Path(tmp), "cfg.json", cfg)
        code = cli_main([command, "--config", path, "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4)


def test_scalar_epsilon_key_accepted():
    scen = Scenario.from_config(_cfg(epsilons=None, epsilon=0.5))
    assert scen.epsilons == (0.5,)


def test_block_schedule_epsilons_checked_at_config_time():
    # auto delta in the block experiment needs eps < 1/e up front.
    with pytest.raises(ConfigError, match="1/e"):
        Scenario.from_config(_cfg(experiment="auxiliary_gap", epsilons=[0.5]))
    # A fixed delta lifts the restriction.
    scen = Scenario.from_config(_cfg(experiment="auxiliary_gap",
                                     epsilons=[0.5], delta=0.25))
    assert scen.delta == 0.25


def test_digest_ignores_execution_knobs():
    a = Scenario.from_config(_cfg())
    b = Scenario.from_config(_cfg(threads=4))
    d = Scenario.from_config(_cfg(seed=778))
    assert a.digest() == b.digest()
    # The runs sweep epsilon largest first, whatever order the config lists.
    shuffled = Scenario.from_config(_cfg(epsilons=[0.125, 0.0625, 0.25]))
    assert shuffled.digest() == a.digest()
    assert a.digest() != d.digest()
    assert len(a.digest()) == 16


# A valid value for every config key, so a rejection below can only come
# from the experiment not reading the key.
_VALID_VALUES = {
    "epsilon": 0.1, "epsilons": [0.1], "h_factor": 0.05, "kappa_stab": 0.1, "paths": 4,
    "xi": {"constant": 1.0}, "eta": {"constant": 0.0}, "eta_prime": {"constant": 1.0},
    "p": 2.0, "drift_source": "closed_form", "estimator": {}, "delta": 0.25,
    "deltas": [0.25, 0.125], "sample_times": [0.25], "burn_in": 5.0, "horizon": 5.0,
    "replicas": 2, "mixing_replicas": 8, "checkpoints": 3, "trials": 3, "lambda3_cap": 10.0,
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_keys_the_experiment_does_not_read_exit_four(experiment, tmp_path, capsys):
    """A key the experiment ignores would move the digest and nothing else: exit 4."""
    cfg = _cfg(experiment=experiment)
    Scenario.from_config(cfg)  # valid without the extra key
    ignored = sorted(_ALLOWED_KEYS - _EXPERIMENT_KEYS[experiment])
    assert ignored
    for key in ignored:
        with pytest.raises(ConfigError, match=rf"does not read config keys \['{key}'\]"):
            Scenario.from_config(dict(cfg, **{key: _VALID_VALUES[key]}))
    command = next(c for c, exps in _SUBCOMMANDS.items() if experiment in exps)
    extra = {ignored[0]: _VALID_VALUES[ignored[0]]}
    path = _write_cfg(tmp_path, "ignored.json", dict(cfg, **extra))
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "out")]) == 4
    assert "does not read" in capsys.readouterr().err


def test_keys_read_only_beside_another_key_are_rejected():
    # epsilon is read only without epsilons, h_factor only under auto h,
    # estimator only with the estimator source.
    with pytest.raises(ConfigError, match=r"\['epsilon'\]"):
        Scenario.from_config(_cfg(epsilon=0.5))
    with pytest.raises(ConfigError, match=r"\['h_factor'\]"):
        Scenario.from_config(_cfg(h=0.0125, h_factor=0.07))
    with pytest.raises(ConfigError, match=r"\['estimator'\]"):
        Scenario.from_config(_cfg(estimator={"replicas": 2}))
    assert Scenario.from_config(_cfg(drift_source="estimator",
                                     estimator={"replicas": 2})).estimator["replicas"] == 2


@pytest.mark.parametrize("bad", ["abc", -1])
def test_every_parse_error_names_its_key(bad):
    """A string or a negative number on any key fails at parse, naming the key."""
    for key in sorted(_ALLOWED_KEYS):
        experiment = next(e for e in EXPERIMENTS if key in _EXPERIMENT_KEYS[e])
        cfg = dict(_cfg(experiment=experiment), **{key: bad})
        if key == "epsilon":
            del cfg["epsilons"]
        if key == "estimator":
            cfg["drift_source"] = "estimator"
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            Scenario.from_config(cfg)
    for key in _ESTIMATOR_KEYS:
        with pytest.raises(ConfigError, match=rf"^estimator {key}\b"):
            Scenario.from_config(_cfg(drift_source="estimator", estimator={key: bad}))


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [k for k in sorted(_ALLOWED_KEYS | set(_ESTIMATOR_KEYS)) if f"`{k}`" not in readme]
    assert not missing


def test_resolve_h_auto_commensurate():
    scen = Scenario.from_config(_cfg())
    h = scen.resolve_h(epsilon=0.0625)
    assert h <= scen.h_factor * 0.0625 * (1.0 + 1e-12)
    assert (scen.tau / h) == pytest.approx(round(scen.tau / h), abs=1e-9)
    assert (scen.T / h) == pytest.approx(round(scen.T / h), abs=1e-9)
    # Awkward anchor: tau/47 blocks with T = 0.5 still resolve.
    anchor = 1.0 / 47.0
    h2 = scen.resolve_h(epsilon=0.01, anchor=anchor)
    for span in (anchor, scen.tau, scen.T):
        assert (span / h2) == pytest.approx(round(span / h2), abs=1e-6)
    assert h2 <= scen.h_factor * 0.01 * (1.0 + 1e-12)


def test_resolve_h_fixed_validation():
    scen = Scenario.from_config(_cfg(h=0.01))
    assert scen.resolve_h(epsilon=0.25) == 0.01
    with pytest.raises(ConfigError, match="stability"):
        scen.resolve_h(epsilon=0.05)
    misaligned = Scenario.from_config(_cfg(h=0.003))
    with pytest.raises(ConfigError, match="misaligned"):
        misaligned.resolve_h(epsilon=0.25)
    offgrid_anchor = Scenario.from_config(_cfg(h=0.01))
    with pytest.raises(ConfigError, match="misaligned"):
        offgrid_anchor.resolve_h(epsilon=0.25, anchor=1.0 / 47.0)


def test_fixed_h_refuses_a_snapped_fast_delay():
    with pytest.raises(ConfigError, match=r"epsilon=0\.015, eps\*tau=0\.015, to lag\*h=0\.02"):
        Scenario.from_config(_cfg(h=0.01, kappa_stab=1.0, epsilons=[0.25, 0.015]))
    # 0.125 / 0.01 = 12.5 steps snaps to 12, 4% off: within the bound.
    scen = Scenario.from_config(_cfg(h=0.01, kappa_stab=1.0, epsilons=[0.25, 0.125]))
    assert scen.resolve_h(epsilon=0.125) == 0.01
    with pytest.raises(ConfigError, match=r"eps\*tau=0\.035, to lag\*h=0\.04"):
        scen.resolve_h(epsilon=0.035)
    # simulate without epsilons runs at epsilon 0.05: 2.5 steps of 0.02 snap to 2.
    simulate = Scenario.from_config(_cfg(experiment="simulate", h=0.02, kappa_stab=1.0,
                                         epsilons=[]))
    with pytest.raises(ConfigError, match=r"epsilon=0\.05, eps\*tau=0\.05, to lag\*h=0\.04"):
        run_scenario(simulate)


def test_auto_h_skips_steps_that_snap_the_fast_delay():
    """Auto h holds the fast delay to the bound a fixed h is held to.

    At tau = T = 0.25 and eps = 0.55 the first divisor, h = 0.025, puts
    the delay 0.1375 at 6 steps, 9.1% off; the next, h = 0.25 / 11, at
    6 steps 0.8% off.
    """
    scen = Scenario.from_config(_cfg(experiment="simulate", tau=0.25, T=0.25, epsilons=[0.55]))
    h = scen.resolve_h(epsilon=0.55)
    assert h == 0.25 / 11
    lag = fast_lag_steps(0.55, make_grid(0.25, h, 0.25))
    assert abs(lag * h - 0.1375) <= 0.05 * 0.1375
    [row] = run_scenario(scen).rows
    assert row["extra"]["h"] == h


def test_materialize_segment_forms():
    scen = Scenario.from_config(_cfg(xi={"constant": 2.0},
                                     eta={"values": [[0.0], [0.5], [1.0], [1.5]]}))
    xi = scen.materialize_segment("xi", 0.25, 1)
    assert np.all(xi.values == 2.0)
    with pytest.raises(Exception):
        scen.materialize_segment("eta", 0.25, 1)  # 4 rows cannot span tau=1
    eta = scen.materialize_segment("eta", 1.0 / 3.0, 1)
    assert eta.values[-1, 0] == 1.5
    mismatch = Scenario.from_config(_cfg(xi={"constant": [1.0, 2.0]}))
    with pytest.raises(Exception):
        mismatch.materialize_segment("xi", 0.25, 1)


def test_build_spec_tau_conflict():
    bad_sys = dict(BENCH_SYS, tau=2.0)
    scen = Scenario.from_config(_cfg(system=bad_sys, tau=1.0))
    with pytest.raises(ConfigError, match="tau"):
        scen.build_spec()
    good = Scenario.from_config(_cfg())
    spec = good.build_spec()
    assert spec.tau == 1.0


def test_converge_decoupled_slow_is_degenerate_zero():
    """a12 = 0 makes coupled and averaged identical; moments sit at roundoff."""
    sys_cfg = {
        "kind": "linear_benchmark",
        "params": {"a11": -1.0, "a12": 0.0, "s1": 0.3,
                   "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3},
    }
    scen = Scenario.from_config(_cfg(system=sys_cfg, paths=4,
                                     epsilons=[0.25, 0.125]))
    report = run_scenario(scen)
    values = [r["value"] for r in report.rows
              if r["extra"]["kind"] == "sup_gap_moment"]
    assert all(v < 1e-10 for v in values)
    gate = {g["name"]: g for g in report.gates}["final_reduction"]
    assert gate["passed"]
    assert "roundoff" in gate["detail"]


def test_converge_report_structure():
    scen = Scenario.from_config(_cfg())
    report = run_scenario(scen)
    kinds = [r["extra"]["kind"] for r in report.rows]
    assert kinds.count("sup_gap_moment") == 3
    eps_col = [r["epsilon"] for r in report.rows
               if r["extra"]["kind"] == "sup_gap_moment"]
    assert eps_col == sorted(eps_col, reverse=True)
    assert kinds[-1] == "slope_fit"
    gate_names = [g["name"] for g in report.gates]
    assert gate_names == ["monotone_trend", "final_reduction", "rows_complete"]
    assert len(report.reproducibility_hash) == 64
    assert report.runtime_seconds > 0.0
    assert report.scenario_digest == scen.digest()


def test_rerun_and_parallel_runs_hash_identically():
    """Same config must give byte-identical CSV serial, parallel, and rerun."""
    serial_1 = run_scenario(Scenario.from_config(_cfg(paths=4, epsilons=[0.25, 0.125])))
    serial_2 = run_scenario(Scenario.from_config(_cfg(paths=4, epsilons=[0.25, 0.125])))
    parallel = run_scenario(Scenario.from_config(_cfg(paths=4, epsilons=[0.25, 0.125],
                                                      threads=3)))
    assert serial_1.csv_text() == serial_2.csv_text() == parallel.csv_text()
    assert serial_1.reproducibility_hash == parallel.reproducibility_hash
    assert serial_1.scenario_digest == parallel.scenario_digest


def test_csv_schema_and_quoting():
    report = run_scenario(Scenario.from_config(_cfg(paths=4, epsilons=[0.25, 0.125])))
    text = report.csv_text()
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    for cells in parsed[1:]:
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == str(SCHEMA_VERSION)
        assert cells[1] == "converge"
        extra = json.loads(cells[-1])  # embedded JSON survives quoting
        assert "kind" in extra
    # Raw text keeps the doubled-quote escape convention.
    assert '"{""' in text


def test_report_write_files(tmp_path):
    report = run_scenario(Scenario.from_config(_cfg(paths=4, epsilons=[0.25])))
    csv_path, json_path = report.write(tmp_path / "out")
    assert csv_path.read_text() == report.csv_text()
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["experiment"] == "converge"
    assert payload["reproducibility_hash"] == report.reproducibility_hash
    assert isinstance(payload["passed"], bool)


def test_empty_epsilons_rejected_at_parse():
    for experiment in ("converge", "auxiliary_gap"):
        with pytest.raises(ConfigError, match="non-empty epsilons"):
            Scenario.from_config(_cfg(experiment=experiment, epsilons=[]))
        with pytest.raises(ConfigError, match="non-empty epsilons"):
            Scenario.from_config(_cfg(experiment=experiment, epsilons=None))
    # The single-epsilon experiments fall back to their default.
    for experiment in ("segment_continuity", "simulate"):
        assert Scenario.from_config(_cfg(experiment=experiment, epsilons=[])).epsilons == ()


def test_runner_table_covers_experiments():
    from twoscale.harness import _RUNNERS

    assert set(_RUNNERS) == set(EXPERIMENTS)


def test_aux_gap_rows_and_audit():
    cfg = _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.01], paths=6)
    report = run_scenario(Scenario.from_config(cfg))
    by_kind = {}
    for r in report.rows:
        by_kind.setdefault(r["extra"]["kind"], []).append(r)
    assert len(by_kind["aux_slow_gap_moment"]) == 2
    assert len(by_kind["aux_fast_checkpoint_gap_moment"]) == 2
    audits = by_kind["reset_audit"]
    assert len(audits) == 2
    assert all(r["value"] == 0.0 for r in audits)
    # Block lengths come from the eps-dependent schedule: tau/12 and tau/47.
    deltas = [r["delta"] for r in by_kind["aux_slow_gap_moment"]]
    assert deltas == pytest.approx([1.0 / 12.0, 1.0 / 47.0])
    names = [g["name"] for g in report.gates]
    assert "extremes_separated_2sigma" in names
    assert "reset_audit_zero" in names
    assert {g["name"]: g["passed"] for g in report.gates}["reset_audit_zero"]


def test_segment_continuity_report():
    cfg = _cfg(experiment="segment_continuity", epsilons=[0.05], paths=4, T=1.0)
    report = run_scenario(Scenario.from_config(cfg))
    rows = [r for r in report.rows
            if r["extra"]["kind"] == "segment_displacement_moment"]
    assert len(rows) == 4  # default dyadic sweep tau/16 .. tau/128
    deltas = [r["delta"] for r in rows]
    assert deltas == sorted(deltas, reverse=True)
    assert all(r["value"] > 0.0 for r in rows)
    slope_rows = [r for r in report.rows if r["extra"]["kind"] == "slope_fit"]
    assert len(slope_rows) == 1
    gate = {g["name"]: g for g in report.gates}["slope_floor"]
    # p = 2 puts the floor at 0; the measured slope should clear it easily.
    assert gate["passed"]


def test_frozen_report_and_summary():
    """b-bar and the mixing rate are reported as rows, with no separate summary."""
    cfg = _cfg(experiment="frozen", h=0.02,
               burn_in=2.0, horizon=4.0, replicas=2,
               mixing_replicas=8, checkpoints=3, T=1.0)
    report = run_scenario(Scenario.from_config(cfg))
    kinds = [r["extra"]["kind"] for r in report.rows]
    assert kinds == ["bbar_estimate", "mixing_fit"]
    bbar, mixing = (r["extra"] for r in report.rows)
    assert report.rows[0]["value"] == bbar["bbar"][0]
    assert len(bbar["std_error"]) == 1
    assert len(bbar["zeta_digest"]) == 16
    assert report.rows[1]["value"] > 0.0
    assert 0.0 <= mixing["r_squared"] <= 1.0
    assert "frozen_summary" not in report.to_json_dict()
    # Short burn-in is legal but flagged.
    assert any("burn_in" in w for w in report.warnings)
    assert {g["name"] for g in report.gates} == {"mixing_rate_positive"}


def test_mixing_runner_fit_only():
    cfg = _cfg(experiment="mixing", h=0.02,
               mixing_replicas=8, checkpoints=3, T=1.0,
               eta={"constant": 0.0}, eta_prime={"constant": 1.0})
    report = run_scenario(Scenario.from_config(cfg))
    assert [r["extra"]["kind"] for r in report.rows] == ["mixing_fit"]
    assert report.rows[0]["value"] > 0.0
    assert report.warnings == []
    assert report.passed


def test_check_runner_benchmark_passes():
    cfg = _cfg(experiment="check", trials=200, T=1.0)
    report = run_scenario(Scenario.from_config(cfg))
    assert report.passed
    kinds = [r["extra"]["kind"] for r in report.rows]
    assert kinds == ["dissipativity", "growth_lipschitz",
                     "initial_segment", "coefficient_purity"]
    diss = report.rows[0]["extra"]
    # At least the gap of the Young pair (2 c2 - c3, c3) = (3.5, 0.5).
    assert diss["lambda1"] - diss["lambda2"] >= 3.0 * (1.0 - 1e-9)
    assert all(r["extra"]["h"] == 1.0 / 64.0 for r in report.rows)


def test_simulate_runner_and_dump(tmp_path):
    cfg = _cfg(experiment="simulate", epsilons=[0.25], paths=3)
    report = run_simulate(Scenario.from_config(cfg), dump_dir=tmp_path, stem="demo")
    assert report.passed
    row = report.rows[0]
    assert row["extra"]["kind"] == "endpoint_slow_norm"
    assert row["paths"] == 3
    for i in range(3):
        dump = tmp_path / f"demo_{i}.csv"
        assert dump.exists()
        lines = dump.read_text().splitlines()
        assert lines[0] == "t,x_1,y_1"
        first = lines[1].split(",")
        assert float(first[0]) == -1.0  # history starts at -tau
        assert float(first[1]) == 1.0


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_success_exit_zero(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "sim.json",
                          _cfg(experiment="simulate", epsilons=[0.25], paths=3))
    code = cli_main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "gate rows_complete: pass" in out
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_gate_failure_exit_two(tmp_path):
    bad_sys = {
        "kind": "linear_benchmark",
        "params": {"a11": -1.0, "a12": 1.0, "s1": 0.3,
                   "c1": 1.0, "c2": 0.5, "c3": 2.0, "s2": 0.3},
    }
    cfg_path = _write_cfg(tmp_path, "check.json",
                          _cfg(experiment="check", system=bad_sys, trials=300, T=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli_main(["check", "--config", cfg_path,
                         "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_config_errors_exit_four(tmp_path, capsys):
    assert cli_main(["converge", "--config", str(tmp_path / "missing.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["converge", "--config", str(bad)]) == 4
    unknown = _write_cfg(tmp_path, "unknown.json", _cfg(mystery_knob=1))
    assert cli_main(["converge", "--config", unknown]) == 4
    # Subcommand/experiment mismatch is a config error, not a gate failure.
    sim_cfg = _write_cfg(tmp_path, "sim.json", _cfg(experiment="simulate"))
    assert cli_main(["converge", "--config", sim_cfg]) == 4
    # Bad usage (missing required flag) also maps to 4, not argparse's 2.
    assert cli_main(["converge"]) == 4
    capsys.readouterr()
    # --dump-paths is a simulate flag; elsewhere it is refused before any path runs.
    valid, out = _write_cfg(tmp_path, "valid.json", _cfg(paths=2, T=0.1)), tmp_path / "dump"
    assert cli_main(["converge", "--config", valid, "--out", str(out), "--dump-paths"]) == 4
    assert capsys.readouterr().err == "error: unrecognized arguments: --dump-paths\n"
    assert not out.exists()
    cases = _BAD_PARSE_CONFIGS + [
        _cfg(system=dict(BENCH_SYS, params=dict(BENCH_SYS["params"], c1="abc"))),
        _cfg(system=dict(BENCH_SYS, params=dict(BENCH_SYS["params"], a11=True))),
        # Off the grid the runner resolves; rejected before any path runs.
        _cfg(experiment="segment_continuity", epsilons=[0.05], T=1.0, p=4.0,
             sample_times=[0.3333]),
        _cfg(h=5e-324),  # tau / h overflows to inf
        # Grids of 2**53 steps or more, where every float ratio is an integer.
        _cfg(experiment="simulate", tau=1e-300),
        _cfg(experiment="simulate", T=1e300),
        _cfg(experiment="simulate", h_factor=1e-300),
        _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.01], delta=1e-300),
        _cfg(experiment="check", xi=None),
    ]
    files = [_write_cfg(tmp_path, f"case{i}.json", cfg) for i, cfg in enumerate(cases)]
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"experiment": "converge", "seed": "\xe9"}')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    runs = [(_COMMAND_OF[cfg["experiment"]], path) for cfg, path in zip(cases, files)]
    runs += [("converge", str(undecodable)), ("converge", str(nested))]
    for i, (command, path) in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert cli_main([command, "--config", path, "--out", str(out)]) == 4, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_cli_divergence_exit_three(tmp_path):
    def factory():
        return SystemSpec(
            n=1, m=1, tau=0.5,
            b1=lambda chi, phi: np.zeros_like(chi[-1]),
            sigma1=lambda chi: np.zeros((1, 1)),
            b2=lambda chi, y, yt: y ** 3,
            sigma2=lambda chi, y, yt: np.zeros((1, 1)),
        )

    register_system("runaway_cubic", factory, replace=True)
    cfg = {
        "experiment": "simulate",
        "system": {"kind": "registered", "name": "runaway_cubic"},
        "tau": 0.5, "T": 0.5,
        "epsilon": 0.05, "paths": 2, "seed": 3,
        "eta": {"constant": 3.0},
    }
    cfg_path = _write_cfg(tmp_path, "blowup.json", cfg)
    code = cli_main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "out")])
    assert code == 3


def _flat_drift_factory():
    # b1 drops the state axis: shape (P,) where the contract asks for (P, n).
    # The closed form lets converge start; the coupled pass then fails.
    return SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: chi[-1, :, 0],
        sigma1=lambda chi: np.array([[0.3]]),
        b2=lambda chi, y, yt: chi[-1] - y,
        sigma2=lambda chi, y, yt: np.array([[0.3]]),
        benchmark=LinearBenchmarkParams(**BENCH_SYS["params"]),
    )


def test_misshaped_drift_gives_error_rows_and_exit_two(tmp_path, capsys):
    """A drift of shape (P,) fails every path with one DataError, for any chunk cut."""
    register_system("flat_drift", _flat_drift_factory, replace=True)
    system = {"kind": "registered", "name": "flat_drift"}
    hashes = set()
    for threads, paths in ((1, 4), (2, 4), (1, 2), (2, 2)):
        report = run_scenario(Scenario.from_config(
            _cfg(system=system, epsilons=[0.25, 0.125], paths=paths, threads=threads)))
        for row in report.rows:
            assert row["extra"]["error_type"] == "DataError"
            assert row["extra"]["failed_paths"] == paths
            assert "b1 returned shape (1,), expected (paths, n) = (1, 1)" in row["extra"]["error"]
        hashes.add((paths, report.reproducibility_hash))
    assert len(hashes) == 2  # one hash per path count, whatever the threads
    report = run_scenario(Scenario.from_config(
        _cfg(experiment="simulate", system=system, epsilons=[0.25], paths=1)))
    assert report.rows[0]["extra"]["error_type"] == "DataError"
    cfg_path = _write_cfg(tmp_path, "flat.json", _cfg(system=system, paths=3))
    capsys.readouterr()
    code = cli_main(["converge", "--config", cfg_path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert "gate rows_complete: FAIL" in captured.out


def test_misshaped_b1_in_the_time_average_exits_four(tmp_path, capsys):
    """The frozen experiment's time average hands b1 a column's steps; (K,) is exit 4."""
    register_system("flat_drift", _flat_drift_factory, replace=True)
    cfg_path = _write_cfg(tmp_path, "flat_frozen.json", _cfg(
        experiment="frozen", system={"kind": "registered", "name": "flat_drift"}, h=0.02,
        T=1.0, burn_in=5.0, horizon=0.5, replicas=2, mixing_replicas=8, checkpoints=3))
    capsys.readouterr()
    code = cli_main(["frozen", "--config", cfg_path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 4
    assert "b1 returned shape (26,), expected (paths, n) = (26, 1)" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_averaged_stage_errors_only_reach_surviving_paths():
    """A path that diverges in the coupled pass keeps that error over later stages.

    The fast drift -y + y^3 also blows up the estimator's frozen
    sub-simulations, so every path that survives the coupled pass fails
    the averaged stage; paths 0 and 1 diverge first and must report the
    coupled divergence.
    """
    cfg = _cfg(system={"kind": "registered", "name": "golden_blowup"}, epsilons=[0.125],
               paths=4, seed=5, drift_source="estimator",
               estimator={"burn_in": 5.0, "horizon": 1.0, "replicas": 2, "h": 0.1})
    coupled = "fast component left the admissible range"
    averaged = "frozen trajectory diverged"
    scen = Scenario.from_config(cfg)
    job = (_converge_chunk, scen, 0.125, scen.resolve_h(epsilon=0.125), {}, 0, 4)
    results, warns = _run_chunk(job)
    assert warns == []  # burn_in = 5 tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a run records its warnings instead of raising them
        assert [(r[1], coupled in r[2], averaged in r[2]) for r in results] == [
            ("DivergenceError", True, False)] * 2 + [("DivergenceError", False, True)] * 2
        for threads in (1, 2):
            report = run_scenario(Scenario.from_config(dict(cfg, threads=threads)))
            [row] = report.rows
            assert row["extra"]["error"] == results[0][2]
            assert row["extra"]["failed_paths"] == 4
            assert report.had_divergence


def _refusing_factory():
    # A fast drift that refuses states above 1.5; some paths get there.
    def b2(chi, y, y_tau):
        if (y > 1.5).any():
            raise DataError(f"fast state {float(y.max()):.17g} above 1.5")
        return chi[-1] - y

    spec = _golden_blowup()
    return SystemSpec(n=1, m=1, tau=1.0, b1=spec.b1, sigma1=spec.sigma1, b2=b2,
                      sigma2=spec.sigma2, benchmark=spec.benchmark)


register_system("switch_at_one", lambda: switch_spec(1.0), replace=True)
register_system("refusing_fast_drift", _refusing_factory, replace=True)

# body, config and epsilon of one row in which some paths fail and others do not.
_RERUN_CASES = {
    "converge_diverging": (_converge_chunk, GOLDEN_CASES["converge_diverging"], 0.25),
    "auxiliary_gap_diverging": (_aux_chunk, GOLDEN_CASES["auxiliary_gap_diverging"], 0.1),
    # Frozen sub-simulations above zeta(0) = 1 blow up inside the estimator.
    "estimator_diverging": (_converge_chunk, dict(
        GOLDEN_CASES["converge_estimator"], system={"kind": "registered",
                                                    "name": "switch_at_one"}), 0.2),
    "map_error": (_converge_chunk, dict(
        GOLDEN_CASES["converge"], system={"kind": "registered",
                                          "name": "refusing_fast_drift"}), 0.25),
}


@pytest.mark.parametrize("case", sorted(_RERUN_CASES))
def test_failed_chunk_is_rerun_path_by_path(case):
    """A chunk with a failed path reports what its one-path chunks report, for any cut."""
    body, cfg, eps = _RERUN_CASES[case]
    scen = Scenario.from_config(dict(cfg, paths=6))
    if body is _aux_chunk:
        schedule = khasminskii_delta(eps, scen.tau)
        row = (eps, scen.resolve_h(epsilon=eps, anchor=schedule.delta), {"schedule": schedule})
    else:
        row = (eps, scen.resolve_h(epsilon=eps), {})

    def cut(bounds):
        return [r for a, b in zip(bounds, bounds[1:])
                for r in _run_chunk((body, scen, *row, a, b))[0]]

    whole = cut([0, 6])
    assert {r[0] for r in whole} == {"ok", "err"}
    assert whole == cut(list(range(7)))
    assert whole == cut([0, 1, 6])


def _cut_rows():
    """body, scenario and row of each chunk body, on systems where no path fails."""
    converge = Scenario.from_config(GOLDEN_CASES["converge"])
    estimator = Scenario.from_config(GOLDEN_CASES["converge_n2"])
    aux = Scenario.from_config(GOLDEN_CASES["auxiliary_gap_n2"])
    schedule = khasminskii_delta(0.05, aux.tau)
    segcont = Scenario.from_config(GOLDEN_CASES["segment_continuity_n2"])
    return {
        "converge_closed_form": (_converge_chunk, converge,
                                 (0.25, converge.resolve_h(epsilon=0.25), {})),
        "converge_estimator": (_converge_chunk, estimator,
                               (0.2, estimator.resolve_h(epsilon=0.2), {})),
        "auxiliary_gap": (_aux_chunk, aux, (
            0.05, aux.resolve_h(epsilon=0.05, anchor=schedule.delta), {"schedule": schedule})),
        # Blocks of tau/4, tau/8 and tau/16 on h = tau/256, sampled mid-block.
        "segment_continuity": (_segcont_chunk, segcont, (0.05, 1.0 / 256.0, {
            "deltas": [0.25, 0.125, 0.0625], "times": [0.3125, 0.5625, 0.8125]})),
    }


_CUT_ROWS = _cut_rows()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_CUT_ROWS)), st.integers(1, 6), st.data())
def test_chunk_cut_does_not_move_per_path_results(case, paths, data):
    """Each path's result is the same whether its chunk is whole or cut anywhere.

    Guards the batched reducers of the chunk bodies: a reduction that
    mixed values between the paths of a batch would move with the cut.
    """
    body, scen, row = _CUT_ROWS[case]
    cuts = data.draw(st.lists(st.integers(1, paths - 1), unique=True)) if paths > 1 else []
    bounds = [0, *sorted(cuts), paths]
    whole = _run_chunk((body, scen, *row, 0, paths))[0]
    assert [r[0] for r in whole] == ["ok"] * paths
    assert [r for a, b in zip(bounds, bounds[1:])
            for r in _run_chunk((body, scen, *row, a, b))[0]] == whole


def _aux_row(scen, eps, delta):
    """The (epsilon, h, extra) row run_auxiliary_gap builds for a delta or "auto"."""
    if delta == "auto":
        schedule = khasminskii_delta(eps, scen.tau)
    else:
        n = round(scen.tau / delta)
        schedule = DeltaSchedule(delta_raw=delta, delta=scen.tau / n, N_delta=n)
    return eps, scen.resolve_h(epsilon=eps, anchor=schedule.delta), {"schedule": schedule}


def _aux_gaps_by_block(pair, grid):
    """_aux_chunk's per-path results from one window rescan per block reset."""
    ts, y, yt = grid.tau_steps, pair.y, pair.y_aux
    audit = y_gap = np.zeros(y.shape[1])
    for i in pair.reset_indices:
        jump = yt[i] - y[i]
        audit = np.maximum(audit, np.sqrt(_row_dots(jump, jump)))
        y_gap = np.maximum(y_gap, _node_norms(yt[i - ts: i + 1] - y[i - ts: i + 1]).max(axis=0))
    x_gap = sup_distance(pair.x, pair.x_aux, grid)
    return list(zip(x_gap.tolist(), y_gap.tolist(), audit.tolist()))


@pytest.mark.parametrize("system", [BENCH_SYS, {"kind": "registered", "name": "golden_plane"}],
                         ids=["n1", "n2"])
@pytest.mark.parametrize("T, delta", [(0.1, 0.25), (0.5, 0.25), (2.5, 0.25), (0.5, "auto"),
                                      (1.5, "auto")],
                         ids=["T<delta", "T<tau", "T>tau", "T<tau-auto", "T>tau-auto"])
def test_aux_gaps_equal_the_per_block_loop(system, T, delta, monkeypatch):
    """One reduction over the union of the reset windows equals the per-block maxima, bitwise."""
    scen = Scenario.from_config(_cfg(experiment="auxiliary_gap", system=system, T=T,
                                     delta=delta, epsilons=[0.05], paths=3))
    row = _aux_row(scen, 0.05, delta)
    pairs = []
    simulate = harness.simulate_auxiliary
    monkeypatch.setattr(harness, "simulate_auxiliary",
                        lambda *a, **k: pairs.append(simulate(*a, **k)) or pairs[-1])
    got, _ = _run_chunk((_aux_chunk, scen, *row, 0, 3))
    [pair] = pairs
    assert [r[0] for r in got] == ["ok"] * 3
    want = _aux_gaps_by_block(pair, make_grid(scen.T, row[1], scen.tau))
    assert np.array([r[1] for r in got]).tobytes() == np.array(want).tobytes()


def test_aux_chunk_fast_gap_scans_do_not_grow_with_the_blocks(monkeypatch):
    scen = Scenario.from_config(_cfg(experiment="auxiliary_gap", T=1.0, epsilons=[0.1],
                                     paths=2))
    calls = []
    node_norms = harness._node_norms
    monkeypatch.setattr(harness, "_node_norms", lambda a: calls.append(a.shape) or node_norms(a))
    counts = []
    for n in (4, 64):  # delta = tau/4 and tau/64 on h = tau/256
        schedule = DeltaSchedule(delta_raw=1.0 / n, delta=1.0 / n, N_delta=n)
        calls.clear()
        _run_chunk((_aux_chunk, scen, 0.1, 1.0 / 256.0, {"schedule": schedule}, 0, 2))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_missing_closed_form_exits_four_before_any_path(tmp_path, monkeypatch, capsys):
    """converge with the closed-form drift needs a system that has one, checked up front."""
    def factory():
        spec = _golden_blowup()
        return SystemSpec(n=1, m=1, tau=1.0, b1=spec.b1, sigma1=spec.sigma1,
                          b2=spec.b2, sigma2=spec.sigma2)

    register_system("blowup_without_closed_form", factory, replace=True)
    calls = []
    monkeypatch.setattr(harness, "simulate_coupled", lambda *a, **k: calls.append(a))
    cfg = _cfg(system={"kind": "registered", "name": "blowup_without_closed_form"},
               epsilons=[0.25, 0.125], paths=6)
    with pytest.raises(UsageError, match="no benchmark closed form"):
        run_scenario(Scenario.from_config(cfg))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli_main(["converge", "--config", _write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 4
    assert "no benchmark closed form" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("note", [1, _nested(900)], ids=["flat", "nested"])
def test_unread_system_key_exits_four_before_any_path(note, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "_run_ensemble", lambda *a: calls.append(a))
    cfg = _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.02],
               system=dict(BENCH_SYS, note=note))
    out = tmp_path / "out"
    assert cli_main(["aux-gap", "--config", _write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: system kind 'linear_benchmark' does not read keys ['note']\n")
    assert calls == []
    assert not out.exists()


def test_unwritable_out_exits_four(tmp_path, monkeypatch, capsys):
    """A file in the way of --out exits 4 before any path; a failed report write exits 4 too."""
    cfg = _write_cfg(tmp_path, "sim.json",
                     _cfg(experiment="simulate", epsilons=[0.25], paths=2, T=0.25))
    (tmp_path / "afile").write_text("")
    calls = []
    coupled = harness.simulate_coupled
    monkeypatch.setattr(harness, "simulate_coupled",
                        lambda *a, **k: calls.append(a) or coupled(*a, **k))
    for out in ("afile", "afile/x"):
        for extra in ([], ["--dump-paths"]):
            assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / out),
                             *extra]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "afile is not a directory" in err
    assert calls == []

    blocked = tmp_path / "blocked"
    (blocked / "report.csv").mkdir(parents=True)
    assert cli_main(["simulate", "--config", cfg, "--out", str(blocked)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report.csv" in err and "Traceback" not in err
    assert len(calls) == 1


def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, serial_pool):
    """The pool has min(threads, CPUs, jobs) workers, and none is opened for one worker.

    Rows are cut into path chunks only when there are fewer rows than
    workers, so the job count is rows * min(ceil(workers / rows), paths).
    """
    configs = {"simulate": _cfg(experiment="simulate", epsilons=[0.25], paths=6, T=0.25),
               "converge": _cfg(paths=6, T=0.25)}  # one row and three rows
    cases = [  # config, threads, cpu_count, pool size (None: no pool)
        ("simulate", 5, None, None), ("simulate", 5, 1, None), ("simulate", 1, 64, None),
        ("simulate", 5, 2, 2), ("simulate", 5, 64, 5), ("simulate", 8, 64, 6),
        ("converge", 1, 64, None), ("converge", 2, 64, 2), ("converge", 5, 64, 5),
    ]
    serial = {name: run_scenario(Scenario.from_config(cfg)).reproducibility_hash
              for name, cfg in configs.items()}
    for name, threads, cpus, size in cases:
        cfg = configs[name]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        opened = len(serial_pool)
        report = run_scenario(Scenario.from_config(dict(cfg, threads=threads)))
        assert report.reproducibility_hash == serial[name]
        if size is None:
            assert len(serial_pool) == opened
            continue
        [pool] = serial_pool[opened:]
        workers = min(threads, cpus)
        rows = len(cfg["epsilons"])
        assert len(pool.jobs) == rows * min(-(-workers // rows), cfg["paths"])
        assert pool.workers == size == min(workers, len(pool.jobs)) == len(pool.plan)


def test_pool_gets_whole_rows_longest_grid_first(monkeypatch, serial_pool):
    """With as many rows as workers or more, each job is a full-P row, largest round(T / h) first."""
    cfg = _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.01, 0.02, 0.005], paths=4, T=0.25)
    serial = run_scenario(Scenario.from_config(cfg))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    report = run_scenario(Scenario.from_config(dict(cfg, threads=2)))
    [pool] = serial_pool
    assert pool.workers == 2
    assert [job[2] for job in pool.jobs] == [0.005, 0.01, 0.02, 0.05]
    assert [[pool.jobs[i][2] for i in mine] for mine in pool.plan] == [[0.005], [0.01, 0.02, 0.05]]
    steps = [round(cfg["T"] / job[3]) for job in pool.jobs]
    assert steps == sorted(steps, reverse=True) and len(set(steps)) == 4
    assert [job[5:] for job in pool.jobs] == [(0, 4)] * 4
    assert report.csv_text() == serial.csv_text()
    assert report.warnings == serial.warnings


def test_plan_deals_each_job_to_the_least_loaded_worker():
    """A job costs round(T / h) * its paths; ties go to the lowest worker."""
    scen = Scenario.from_config(_cfg(T=1.0))
    jobs = [(None, scen, None, h, {}, start, stop)  # costs 100, 300, 200, 20
            for h, start, stop in [(0.01, 0, 1), (0.01, 1, 4), (0.02, 0, 4), (0.05, 0, 1)]]
    assert harness._plan(jobs, 2) == [[0, 2, 3], [1]]
    assert harness._plan(jobs, 4) == [[0], [1], [2], [3]]


_POOLED_AUX = _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.02], paths=2, T=0.25, threads=2)


def _in_workers(monkeypatch, fault):
    """Make _aux_chunk call fault() in forked workers only, on a two-CPU pool.

    A forked child inherits the patch, so the body compares pids: a run
    that stayed in-process would otherwise call fault() inside pytest.
    """
    parent, body = os.getpid(), harness._aux_chunk

    def patched(c, paths):
        if os.getpid() != parent:
            fault()
        return body(c, paths)

    monkeypatch.setattr(harness, "_aux_chunk", patched)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dead_pool_worker_exits_four(monkeypatch, tmp_path, capsys):
    """A worker that exits without a result is one `error:` line naming its status, exit 4."""
    _in_workers(monkeypatch, lambda: os._exit(7))
    cfg = _write_cfg(tmp_path, "aux.json", _POOLED_AUX)
    assert cli_main(["aux-gap", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: worker ") and "exit code 7" in line
    assert not (tmp_path / "out").exists()
    _assert_no_child_left()


def test_worker_exception_is_raised_again_in_the_parent(monkeypatch):
    """An exception in a forked worker comes back with its type; an unpicklable one as RuntimeError."""
    def value_error():
        raise ValueError("bad value in a worker")

    _in_workers(monkeypatch, value_error)
    with pytest.raises(ValueError, match="bad value in a worker"):
        run_scenario(Scenario.from_config(_POOLED_AUX))
    _assert_no_child_left()

    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def unpicklable():
        raise Unpicklable("cannot travel")

    _in_workers(monkeypatch, unpicklable)
    with pytest.raises(RuntimeError, match="^Unpicklable: cannot travel$"):
        run_scenario(Scenario.from_config(_POOLED_AUX))
    _assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_memory_error_exits_four(threads, monkeypatch, tmp_path, capsys):
    """Out of memory in-process (threads 1) or in a forked worker (threads 2): one line, exit 4."""
    def out_of_memory():
        raise MemoryError("no room for the batch")

    if threads == 1:
        monkeypatch.setattr(harness, "_aux_chunk", lambda c, paths: out_of_memory())
    else:
        _in_workers(monkeypatch, out_of_memory)
    cfg = _write_cfg(tmp_path, "aux.json", dict(_POOLED_AUX, threads=threads))
    assert cli_main(["aux-gap", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "error: out of memory: no room for the batch\n"
    _assert_no_child_left()


def test_divergence_keeps_the_warnings_that_explain_it(tmp_path, capsys):
    """A run that ends with exit 3 prints the warnings it raised before its `divergence:` line."""
    system = dict(BENCH_SYS, params=dict(BENCH_SYS["params"], c2=0.5, c3=2.0))
    cfg = _write_cfg(tmp_path, "frozen.json", _cfg(
        experiment="frozen", system=system, h=0.02, burn_in=40.0, horizon=40.0, seed=1))
    assert cli_main(["frozen", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    warning, divergence = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: benchmark with c2=0.5, c3=2.0 is outside the contraction")
    assert divergence.startswith("divergence: state diverged at step ")


def test_cli_loads_no_executor_or_multiprocessing(tmp_path):
    """Neither importing the CLI nor a pooled run loads concurrent.futures or multiprocessing."""
    cfg = _write_cfg(tmp_path, "aux.json", _POOLED_AUX)
    script = (
        "import os, sys\n"
        "import twoscale.cli\n"
        "from twoscale import harness\n"
        "loaded = lambda: [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "print(loaded())\n"
        "os.cpu_count = lambda: 2\n"
        "pools, forked = [], harness._forked\n"
        "harness._forked = lambda jobs, workers: pools.append(workers) or forked(jobs, workers)\n"
        f"code = twoscale.cli.main(['aux-gap', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, pools, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(twoscale.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] in ("0 [2] []", "2 [2] []"), done.stdout


def test_cli_frozen_prints_summary(tmp_path, capsys):
    cfg = _cfg(experiment="frozen", h=0.02,
               burn_in=2.0, horizon=4.0, replicas=2,
               mixing_replicas=8, checkpoints=3, T=1.0)
    cfg_path = _write_cfg(tmp_path, "frozen.json", cfg)
    code = cli_main(["frozen", "--config", cfg_path,
                     "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    # The gate line carries the rate; b-bar and the rate are report rows.
    assert "gate mixing_rate_positive: pass (fitted_rate=" in out
    assert '"bbar"' not in out
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "frozen_summary" not in payload
    assert [r["extra"]["kind"] for r in payload["rows"]] == ["bbar_estimate", "mixing_fit"]


def test_chunk_warnings_reach_the_report_once(tmp_path):
    """A short estimator burn_in is reported once, at any worker count, and not on stderr."""
    cfg = _write_cfg(tmp_path, "converge.json", _cfg(
        T=0.1, h_factor=0.1, epsilons=[0.2, 0.1], paths=2, seed=5, drift_source="estimator",
        estimator={"burn_in": 1.0, "horizon": 1.0, "replicas": 2, "h": 0.1}))
    env = dict(os.environ, PYTHONPATH=str(Path(twoscale.__file__).resolve().parents[1]))
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        done = subprocess.run([sys.executable, "-m", "twoscale.cli", "converge", "--config", cfg,
                               "--out", str(out), "--threads", str(threads)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode in (0, 2), done.stderr
        assert done.stderr == ""
        reports.append(json.loads((out / "report.json").read_text()))
        [warning] = reports[-1]["warnings"]
        assert warning.startswith("burn_in=1.0 is below 5*tau=5.0")
        assert done.stdout.count("warning: ") == 1 and f"warning: {warning}\n" in done.stdout
    assert reports[0]["warnings"] == reports[1]["warnings"]
    assert reports[0]["reproducibility_hash"] == reports[1]["reproducibility_hash"]


@pytest.mark.parametrize("command", ["check", "converge"])
def test_main_process_warnings_reach_the_report_once(command, tmp_path):
    """A system built outside any chunk warns in the report and on stdout, never on stderr."""
    system = dict(BENCH_SYS, params=dict(BENCH_SYS["params"], c2=0.5, c3=2.0))
    cfg = _cfg(experiment=command, system=system, trials=50) if command == "check" else _cfg(
        system=system, paths=2, T=0.1, epsilons=[0.2, 0.1])
    env = dict(os.environ, PYTHONPATH=str(Path(twoscale.__file__).resolve().parents[1]))
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "twoscale.cli", command, "--config",
                           _write_cfg(tmp_path, "cfg.json", cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode in (0, 2), done.stderr
    assert done.stderr == ""
    [warning] = json.loads((out / "report.json").read_text())["warnings"]
    assert "c2=0.5, c3=2.0 is outside the contraction regime" in warning
    assert done.stdout.count("warning: ") == 1 and f"warning: {warning}\n" in done.stdout


def test_cli_runs_without_loading_scipy(tmp_path):
    """scipy is a test-only dependency: no CLI run may import it."""
    frozen = _write_cfg(tmp_path, "frozen.json", _cfg(
        experiment="frozen", h=0.02, burn_in=2.0, horizon=4.0,
        replicas=2, mixing_replicas=8, checkpoints=3, T=1.0))
    converge = _write_cfg(tmp_path, "converge.json", _cfg(
        T=0.1, h_factor=0.1, epsilons=[0.2, 0.1], paths=2, seed=5,
        drift_source="estimator",
        estimator={"burn_in": 5.0, "horizon": 1.0, "replicas": 2, "h": 0.1}))
    script = (
        "import sys, warnings\n"
        "from twoscale.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"codes = [main(['frozen', '--config', {frozen!r}, '--out', {str(tmp_path / 'f')!r}]),\n"
        f"         main(['converge', '--config', {converge!r}, '--out', {str(tmp_path / 'c')!r}])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    src = str(Path(twoscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stdout


def test_cli_overrides_reach_the_run(tmp_path):
    cfg_path = _write_cfg(tmp_path, "sim.json",
                          _cfg(experiment="simulate", epsilons=[0.25], paths=6))
    out = tmp_path / "out"
    code = cli_main(["simulate", "--config", cfg_path, "--out", str(out),
                     "--paths", "2", "--seed", "31"])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["rows"][0]["paths"] == 2
