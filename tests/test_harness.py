import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoscale
from twoscale import harness
from twoscale.averaging import khasminskii_delta, simulate_averaged
from twoscale.cli import _SUBCOMMANDS
from twoscale.cli import main as cli_main
from twoscale.errors import ConfigError, DataError, DegenerateFitError, UsageError
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
from twoscale.noise import W1
from twoscale.segment import _node_norms, _row_dots
from twoscale.solver import fast_lag_steps, make_grid
from twoscale.systems import LinearBenchmarkParams, SystemSpec, build_system, register_system
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
    _cfg(h=0.01, h_factor=1.0, epsilons=[0.015, 0.025, 0.035]),
    # A fixed h meets every step rule at every epsilon the run uses, or
    # fails at parse: it must tile tau and T ...
    _cfg(h=0.003),
    _cfg(h=5e-324),  # tau / h overflows to inf
    # ... keep under the cap h_factor * epsilon, here 0.05 * 0.125 ...
    _cfg(h=0.01),
    # ... keep the fast delay of simulate's default epsilon 0.05,
    # which 2.5 steps of 0.02 snap to 2 ...
    _cfg(experiment="simulate", h=0.02, h_factor=1.0, epsilons=[]),
    # ... and tile the frozen run's burn_in and horizon.
    _cfg(experiment="frozen", h=0.5, burn_in=0.25, horizon=2.0),
    # These run one epsilon; another would move the digest and no result.
    _cfg(experiment="simulate", epsilons=[0.05, 0.1]),
    _cfg(experiment="segment_continuity", epsilons=[0.05, 0.1]),
    # check, frozen and mixing size their grids from tau, not from T.
    _cfg(experiment="check", T=1.0),
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
    with pytest.raises(ConfigError, match=r"unknown config keys: \['kappa_stab'\]"):
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
    "epsilon": 0.1, "epsilons": [0.1], "h_factor": 0.05, "paths": 4,
    "xi": {"constant": 1.0}, "eta": {"constant": 0.0}, "eta_prime": {"constant": 1.0},
    "p": 2.0, "drift_source": "closed_form", "estimator": {}, "delta": 0.25,
    "deltas": [0.25, 0.125], "sample_times": [0.25], "burn_in": 5.0, "horizon": 5.0,
    "replicas": 2, "mixing_replicas": 8, "checkpoints": 3, "trials": 3, "lambda3_cap": 10.0,
    "T": 1.0,
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
    # epsilon is read only without epsilons, estimator only with the
    # estimator source.
    with pytest.raises(ConfigError, match=r"\['epsilon'\]"):
        Scenario.from_config(_cfg(epsilon=0.5))
    # h_factor caps a fixed h as it caps auto h: 0.0125 <= 0.21 * 0.0625.
    scen = Scenario.from_config(_cfg(h=0.0125, h_factor=0.21))
    assert scen.h_factor == 0.21 and scen.resolve_h(epsilon=0.0625) == 0.0125
    with pytest.raises(ConfigError, match=r"h_factor\*epsilon=0\.011875 at epsilon=0\.0625"):
        Scenario.from_config(_cfg(h=0.0125, h_factor=0.19))
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
    scen = Scenario.from_config(_cfg(h=0.01, h_factor=0.1, epsilons=[0.25, 0.125]))
    assert scen.resolve_h(epsilon=0.25) == 0.01
    with pytest.raises(ConfigError, match=r"^fixed h=0\.01 exceeds h_factor\*epsilon=0\.005 at "
                                          r"epsilon=0\.05; refine h or raise h_factor$"):
        scen.resolve_h(epsilon=0.05)
    # The run's epsilons are checked at parse: 0.0625 puts h over the cap.
    with pytest.raises(ConfigError, match=r"^fixed h=0\.01 exceeds h_factor\*epsilon=0\.00625 at "
                                          r"epsilon=0\.0625; refine h or raise h_factor$"):
        Scenario.from_config(_cfg(h=0.01, h_factor=0.1))
    # The default h_factor 0.05 caps h at 0.00625 for epsilon 0.125.
    with pytest.raises(ConfigError, match=r"^fixed h=0\.01 exceeds h_factor\*epsilon=0\.00625 at "
                                          r"epsilon=0\.125;"):
        Scenario.from_config(_cfg(h=0.01, epsilons=[0.25, 0.125]))
    with pytest.raises(ConfigError, match=r"^fixed h=0\.003 misaligned: tau=1\.0 is not"):
        Scenario.from_config(_cfg(h=0.003))
    with pytest.raises(ConfigError, match=r"^fixed h=0\.5 misaligned: burn_in=0\.25 is not"):
        Scenario.from_config(_cfg(experiment="frozen", h=0.5, burn_in=0.25, horizon=2.0))
    # The block length is the runner's to resolve, so it is checked there.
    with pytest.raises(ConfigError, match=r"^fixed h=0\.01 misaligned: delta="):
        scen.resolve_h(epsilon=0.25, anchor=1.0 / 47.0)


def test_fixed_h_refuses_a_snapped_fast_delay():
    with pytest.raises(ConfigError, match=r"epsilon=0\.015, eps\*tau=0\.015, to lag\*h=0\.02"):
        Scenario.from_config(_cfg(h=0.01, h_factor=1.0, epsilons=[0.25, 0.015]))
    # 0.125 / 0.01 = 12.5 steps snaps to 12, 4% off: within the bound.
    scen = Scenario.from_config(_cfg(h=0.01, h_factor=1.0, epsilons=[0.25, 0.125]))
    assert scen.resolve_h(epsilon=0.125) == 0.01
    with pytest.raises(ConfigError, match=r"eps\*tau=0\.035, to lag\*h=0\.04"):
        scen.resolve_h(epsilon=0.035)
    # simulate without epsilons runs at epsilon 0.05: 2.5 steps of 0.02 snap to 2.
    with pytest.raises(ConfigError, match=r"epsilon=0\.05, eps\*tau=0\.05, to lag\*h=0\.04"):
        Scenario.from_config(_cfg(experiment="simulate", h=0.02, h_factor=1.0, epsilons=[]))


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


def test_auto_h_tiles_the_frozen_burn_in():
    """A burn_in of 0.0015 is no multiple of tau / 1000; auto h walks on to 0.0005."""
    scen = Scenario.from_config(_cfg(experiment="frozen", burn_in=0.0015, horizon=0.5,
                                     replicas=2, checkpoints=3))
    report = run_scenario(scen)
    assert [r["extra"]["h"] for r in report.rows] == [0.0005, 0.0005]


def test_auto_h_failure_names_the_spans_the_run_tiles():
    """The message names the spans the walk tested, a block and the fast delay only if checked."""
    frozen = Scenario.from_config(_cfg(experiment="frozen", burn_in=math.pi, horizon=1.0))
    with pytest.raises(ConfigError, match=r"^no step near 0\.001 divides tau=1, burn_in=3\.14159, "
                                          r"horizon=1; choose commensurate durations$"):
        frozen.resolve_h(default_target=0.001)
    converge = Scenario.from_config(_cfg(T=math.pi, epsilons=[0.1]))
    with pytest.raises(ConfigError, match=r"^no step near 0\.005 divides tau=1, T=3\.14159 and "
                                          r"keeps the fast delay within 5%; choose"):
        converge.resolve_h(epsilon=0.1)
    with pytest.raises(ConfigError, match=r"divides tau=1, T=3\.14159, delta=0\.125 and keeps"):
        converge.resolve_h(epsilon=0.1, anchor=0.125)


def test_materialize_segment_forms():
    scen = Scenario.from_config(_cfg(xi={"constant": 2.0},
                                     eta={"values": [[0.0], [0.5], [1.0], [1.5]]}))
    xi = scen.materialize_segment("xi", 0.25, 1)
    assert np.all(xi == 2.0)
    with pytest.raises(Exception):
        scen.materialize_segment("eta", 0.25, 1)  # 4 rows cannot span tau=1
    eta = scen.materialize_segment("eta", 1.0 / 3.0, 1)
    assert eta[-1, 0] == 1.5
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


def test_segment_continuity_merges_deltas_after_the_step_snap(tmp_path):
    """At h = 0.1 the delta 0.25 snaps to 2*h = 0.2, a delta the sweep already holds."""
    cfg = _cfg(experiment="segment_continuity", h=0.1, h_factor=1.0, epsilons=[0.5],
               p=4.0, paths=3, T=1.0, deltas=[0.5, 0.3, 0.25, 0.2])
    out = tmp_path / "out"
    assert cli_main(["seg-cont", "--config", _write_cfg(tmp_path, "sc.json", cfg),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = [r for r in report["rows"] if r["extra"]["kind"] == "segment_displacement_moment"]
    assert [r["delta"] for r in rows] == pytest.approx([0.5, 0.3, 0.2])
    assert report["warnings"][-2:] == ["delta=0.25 snapped to 2*h=0.2",
                                       "duplicate deltas merged after snapping"]


def test_frozen_report_and_summary():
    """b-bar and the mixing rate are reported as rows, with no separate summary."""
    cfg = _cfg(experiment="frozen", h=0.02,
               burn_in=2.0, horizon=4.0, replicas=2,
               mixing_replicas=8, checkpoints=3)
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
               mixing_replicas=8, checkpoints=3,
               eta={"constant": 0.0}, eta_prime={"constant": 1.0})
    report = run_scenario(Scenario.from_config(cfg))
    assert [r["extra"]["kind"] for r in report.rows] == ["mixing_fit"]
    assert report.rows[0]["value"] > 0.0
    assert report.warnings == []
    assert report.passed


def test_mixing_gate_needs_starts_that_were_apart(tmp_path):
    """A gap below the fit floor passes the gate only if the start windows differed.

    With c2 = 20 the default starts eta and eta + 1 contract below the
    floor within two checkpoints: degenerate, and passed.  Starts 0 or
    1e-9 apart are under the floor from the outset: the gate fails, exit 2.
    """
    fast = dict(BENCH_SYS, params=dict(BENCH_SYS["params"], c2=20.0, c3=0.01))
    cfg = _cfg(experiment="mixing", system=fast, h=0.02, checkpoints=3, mixing_replicas=8)
    report = run_scenario(Scenario.from_config(cfg))
    [row] = report.rows
    assert row["extra"]["degenerate"] and row["value"] is None
    assert report.gates == [{"name": "mixing_rate_positive", "passed": True,
                             "detail": "gap contracted below the fit floor (strong mixing)"}]
    for gap in (0.0, 1e-9):
        same = dict(cfg, system=BENCH_SYS, eta={"constant": 0.0}, eta_prime={"constant": gap})
        out = tmp_path / f"out{gap}"
        assert cli_main(["frozen", "--config", _write_cfg(tmp_path, "same.json", same),
                         "--out", str(out)]) == 2
        payload = json.loads((out / "report.json").read_text())
        assert payload["rows"][0]["extra"]["degenerate"]
        [gate] = payload["gates"]
        assert not gate["passed"] and "start windows eta and eta_prime coincide" in gate["detail"]


@pytest.mark.parametrize("experiment, over, h", [
    ("mixing", {"checkpoints": 3}, 0.7 / 1000), ("check", {"trials": 50}, 0.7 / 64)])
def test_auto_h_of_runs_that_do_not_read_T_follows_tau(experiment, over, h):
    """check and mixing size h from tau alone: the default T = 1 no longer tiles it.

    tau / 1000 and tau / 64 are the targets; under the old rule that h
    had to tile T = 1 as well, they became 0.7 / 1001 and 0.01.
    """
    report = run_scenario(Scenario.from_config(_cfg(experiment=experiment, tau=0.7, **over)))
    assert {r["extra"]["h"] for r in report.rows} == {h}


def test_check_runner_benchmark_passes():
    cfg = _cfg(experiment="check", trials=200)
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


def test_cli_default_experiment_is_the_subcommands_first(tmp_path, capsys):
    """A config without an experiment key runs the subcommand's first experiment."""
    cfg = _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.02], paths=2)
    hashes = []
    for name, body in (("explicit.json", cfg),
                       ("implicit.json", {k: v for k, v in cfg.items() if k != "experiment"})):
        cli_main(["aux-gap", "--config", _write_cfg(tmp_path, name, body),
                  "--out", str(tmp_path / f"out_{name}")])
        out = capsys.readouterr().out
        assert out.startswith("experiment: auxiliary_gap ")
        hashes.append(out.split("hash: ")[1])
    assert hashes[0] == hashes[1]


def test_check_fails_growth_on_an_overflowing_slow_drift():
    """A b1 of 1e200 squares past float range: the growth series is not finite, so it fails."""
    def factory():
        base = build_system(BENCH_SYS)
        return SystemSpec(n=1, m=1, tau=1.0, b1=lambda chi, phi: np.full_like(chi[-1], 1e200),
                          sigma1=base.sigma1, b2=base.b2, sigma2=base.sigma2)

    register_system("overflowing_slow_drift", factory, replace=True)
    report = run_scenario(Scenario.from_config(_cfg(
        experiment="check", system={"kind": "registered", "name": "overflowing_slow_drift"},
        trials=50)))
    gates = {g["name"]: g for g in report.gates}
    assert not gates["growth_lipschitz"]["passed"]
    assert gates["growth_lipschitz"]["detail"] == "L_estimate=inf"
    assert "overflow encountered in matmul" in report.warnings


def test_cli_gate_failure_exit_two(tmp_path):
    bad_sys = {
        "kind": "linear_benchmark",
        "params": {"a11": -1.0, "a12": 1.0, "s1": 0.3,
                   "c1": 1.0, "c2": 0.5, "c3": 2.0, "s2": 0.3},
    }
    cfg_path = _write_cfg(tmp_path, "check.json",
                          _cfg(experiment="check", system=bad_sys, trials=300))
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
        # Grids of 2**53 steps or more, where every float ratio is an integer.
        _cfg(experiment="simulate", tau=1e-300),
        _cfg(experiment="simulate", T=1e300),
        _cfg(experiment="simulate", h_factor=1e-300),
        _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.01], delta=1e-300),
        _cfg(experiment="check", xi=None),
        _cfg(h_factor=0.2, kappa_stab=0.1),  # kappa_stab is not a config key
        # "xi has dimension 1, system needs 2".
        _cfg(experiment="simulate", system={"kind": "registered", "name": "golden_plane"},
             h=0.0125, xi={"values": [[1.0]] * 81}),
    ]
    files = [_write_cfg(tmp_path, f"case{i}.json", cfg) for i, cfg in enumerate(cases)]
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"experiment": "converge", "seed": "\xe9"}')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")  # valid JSON, but not an object
    runs = [(_COMMAND_OF[cfg["experiment"]], path) for cfg, path in zip(cases, files)]
    runs += [("converge", str(undecodable)), ("converge", str(nested)), ("converge", str(array))]
    for i, (command, path) in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert cli_main([command, "--config", path, "--out", str(out)]) == 4, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
    # A closed-form drift with c2 == c3 has no kappa: refused before any path
    # runs, after the contraction-regime warning.
    flat = _write_cfg(tmp_path, "flat.json", _cfg(system=dict(
        BENCH_SYS, params=dict(BENCH_SYS["params"], c2=0.5, c3=0.5))))
    out = tmp_path / "flat_out"
    assert cli_main(["converge", "--config", flat, "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("warning: ") and "contraction regime" in lines[0], lines
    assert lines[-1].startswith("error: ") and lines[-1].endswith("stationary gain undefined")
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
        burn_in=5.0, horizon=0.5, replicas=2, mixing_replicas=8, checkpoints=3))
    capsys.readouterr()
    code = cli_main(["frozen", "--config", cfg_path, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 4
    assert "b1 returned shape (26,), expected (paths, n) = (26, 1)" in captured.err
    assert "Traceback" not in captured.out + captured.err


def _job(body, scen, row, start, stop):
    """The (body, chunk, start, stop) job _run_ensemble cuts from a row of scen.

    row is (epsilon, h, extra): the row record's epsilon and extra["h"], and
    the chunk's extra.  A converge row carries the run's drift source, as run_converge gives it;
    its extra names the row's index, as run_converge's does.
    """
    epsilon, h, extra = row
    spec = scen.build_spec()
    if body is _converge_chunk:
        extra = dict(extra, drift=scen.drift_callable(spec))
    chunk = harness._Chunk(scen, spec, epsilon, make_grid(scen.T, h, scen.tau),
                           scen.materialize_segment("xi", h, spec.n),
                           scen.materialize_segment("eta", h, spec.n), extra)
    return body, chunk, start, stop


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
    job = _job(_converge_chunk, scen, (0.125, scen.resolve_h(epsilon=0.125), {"row": 0}), 0, 4)
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


def test_estimator_keys_each_path_apart_at_step_zero():
    """At a converge row's step 0 every window is xi, yet each path gets its own estimate."""
    scen = Scenario.from_config(dict(GOLDEN_CASES["converge_estimator"], paths=3))
    row = (0.1, scen.resolve_h(epsilon=0.1), {"row": 1})
    body, chunk, start, stop = _job(_converge_chunk, scen, row, 0, 3)
    source, calls = chunk.extra["drift"], []

    def recording(windows, *address):
        calls.append((windows.copy(), address, source(windows, *address)))
        return calls[-1][2]

    chunk = dataclasses.replace(chunk, extra=dict(chunk.extra, drift=recording))
    assert [r[0] for r in _run_chunk((body, chunk, start, stop))[0]] == ["ok"] * 3
    assert [(r, list(ps), k) for _, (r, ps, k), _ in calls] == [
        (1, [0, 1, 2], k) for k in range(chunk.grid.steps)]
    windows, _, values = calls[0]
    assert all(np.array_equal(windows[:, p], chunk.xi) for p in range(3))
    assert len(set(values[:, 0].tolist())) == 3


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
        delta = scen.tau / khasminskii_delta(eps, scen.tau)
        row = (eps, scen.resolve_h(epsilon=eps, anchor=delta), {"delta": delta})
    else:
        row = (eps, scen.resolve_h(epsilon=eps), {"row": scen.epsilons.index(eps)})

    def cut(bounds):
        return [r for a, b in zip(bounds, bounds[1:])
                for r in _run_chunk(_job(body, scen, row, a, b))[0]]

    whole = cut([0, 6])
    assert {r[0] for r in whole} == {"ok", "err"}
    assert whole == cut(list(range(7)))
    assert whole == cut([0, 1, 6])


def _cut_rows():
    """body, scenario and row of each chunk body, on systems where no path fails."""
    converge = Scenario.from_config(GOLDEN_CASES["converge"])
    estimator = Scenario.from_config(GOLDEN_CASES["converge_n2"])
    aux = Scenario.from_config(GOLDEN_CASES["auxiliary_gap_n2"])
    delta = aux.tau / khasminskii_delta(0.05, aux.tau)
    segcont = Scenario.from_config(GOLDEN_CASES["segment_continuity_n2"])
    return {
        "converge_closed_form": (_converge_chunk, converge,
                                 (0.25, converge.resolve_h(epsilon=0.25), {"row": 0})),
        "converge_estimator": (_converge_chunk, estimator,
                               (0.2, estimator.resolve_h(epsilon=0.2), {"row": 0})),
        "auxiliary_gap": (_aux_chunk, aux, (
            0.05, aux.resolve_h(epsilon=0.05, anchor=delta), {"delta": delta})),
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
    whole = _run_chunk(_job(body, scen, row, 0, paths))[0]
    assert [r[0] for r in whole] == ["ok"] * paths
    assert [r for a, b in zip(bounds, bounds[1:])
            for r in _run_chunk(_job(body, scen, row, a, b))[0]] == whole


def test_bare_estimator_source_replays_the_converge_chunk(monkeypatch):
    """simulate_averaged binds (row, paths, step) itself: a bare EstimatedDriftSource given a
    chunk's row index and paths integrates that chunk's averaged paths bit for bit."""
    scen = Scenario.from_config(GOLDEN_CASES["converge_n2"])
    row, eps = 1, scen.epsilons[1]
    job = _job(_converge_chunk, scen, (eps, scen.resolve_h(epsilon=eps), {"row": row}), 1, 3)
    xbars = []
    simulate = harness.simulate_averaged
    monkeypatch.setattr(harness, "simulate_averaged",
                        lambda *a, **k: xbars.append(simulate(*a, **k)) or xbars[-1])
    got, _ = _run_chunk(job)
    assert [r[0] for r in got] == ["ok"] * 2
    chunk, paths = job[1], range(1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # burn_in below 5 tau
        bare = simulate_averaged(chunk.spec, chunk.xi, scen.drift_callable(chunk.spec),
                                 chunk.grid, chunk.noise(paths, W1), row, paths)
    assert bare.tobytes() == xbars[0].tobytes()


def _aux_row(scen, eps, delta):
    """The (epsilon, h, extra) of the row run_auxiliary_gap builds for a delta or "auto"."""
    n = khasminskii_delta(eps, scen.tau) if delta == "auto" else round(scen.tau / delta)
    return eps, scen.resolve_h(epsilon=eps, anchor=scen.tau / n), {"delta": scen.tau / n}


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
    got, _ = _run_chunk(_job(_aux_chunk, scen, row, 0, 3))
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
        calls.clear()
        _run_chunk(_job(_aux_chunk, scen, (0.1, 1.0 / 256.0, {"delta": 1.0 / n}), 0, 2))
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


@pytest.mark.parametrize("moments, passed, detail", [
    ([1.0, 1.1, 0.5], True, "1 soft inversion(s), 0 hard inversion(s) over 3 rows"),
    ([1.0, 1.1, 1.2], False, "2 soft inversion(s), 0 hard inversion(s) over 3 rows"),
    ([1.0, 2.0, 0.5], False, "0 soft inversion(s), 1 hard inversion(s) over 3 rows"),
])
def test_monotone_gate_allows_one_soft_inversion(moments, passed, detail):
    """A rise inside the two 2-sigma bars is soft, and one is allowed; a rise past them is hard."""
    assert harness._monotone_gate(moments, [0.1] * 3) == {
        "name": "monotone_trend", "passed": passed, "detail": detail}


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
    cases = [  # config, threads, CPUs, pool size (None: no pool)
        ("simulate", 5, None, None), ("simulate", 5, 1, None), ("simulate", 1, 64, None),
        ("simulate", 5, 2, 2), ("simulate", 5, 64, 5), ("simulate", 8, 64, 6),
        ("converge", 1, 64, None), ("converge", 2, 64, 2), ("converge", 5, 64, 5),
    ]
    serial = {name: run_scenario(Scenario.from_config(cfg)).reproducibility_hash
              for name, cfg in configs.items()}
    for name, threads, cpus, size in cases:
        cfg = configs[name]
        if cpus is None:  # os names no CPU: the fallback counts one
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(harness, "_cpus", lambda: list(range(cpus)))
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
    """With as many rows as workers or more, each job is a full-P row, longest grid first."""
    cfg = _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.01, 0.02, 0.005], paths=4, T=0.25)
    serial = run_scenario(Scenario.from_config(cfg))
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1])
    report = run_scenario(Scenario.from_config(dict(cfg, threads=2)))
    [pool] = serial_pool
    assert pool.workers == 2
    assert [job[1].epsilon for job in pool.jobs] == [0.05, 0.02, 0.01, 0.005]  # row order
    assert [[pool.jobs[i][1].epsilon for i in mine] for mine in pool.plan] == [
        [0.005], [0.01, 0.02, 0.05]]
    # Each worker runs its jobs longest grid first.
    steps = [[pool.jobs[i][1].grid.steps for i in mine] for mine in pool.plan]
    assert all(s == sorted(s, reverse=True) for s in steps) and len(set(sum(steps, []))) == 4
    assert [job[2:] for job in pool.jobs] == [(0, 4)] * 4
    assert report.csv_text() == serial.csv_text()
    assert report.warnings == serial.warnings


_BUILD_RUNS = {
    "converge_closed_form": _cfg(epsilons=[0.25, 0.125], paths=4, T=0.25),
    "converge_estimator": _cfg(epsilons=[0.25, 0.125], paths=4, T=0.25,
                               drift_source="estimator",
                               estimator={"burn_in": 1.0, "horizon": 0.5, "replicas": 2,
                                          "h": 0.125}),
    "auxiliary_gap": _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.02], paths=2, T=0.25),
    "segment_continuity": _cfg(experiment="segment_continuity", paths=4, T=0.25, p=4.0),
    "simulate": _cfg(experiment="simulate", paths=4, T=0.25),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(_BUILD_RUNS))
def test_each_run_builds_its_system_once(name, threads, monkeypatch, serial_pool):
    """A run builds its system, and converge its drift source, once, whatever the pool."""
    counts = {"build_spec": 0, "drift_callable": 0}

    def counted(method):
        original = getattr(Scenario, method)

        def call(scenario, *args):
            counts[method] += 1
            return original(scenario, *args)
        return call

    for method in counts:
        monkeypatch.setattr(Scenario, method, counted(method))
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1])
    cfg = _BUILD_RUNS[name]
    run_scenario(Scenario.from_config(dict(cfg, threads=threads)))
    assert len(serial_pool) == threads - 1
    assert counts == {"build_spec": 1,
                      "drift_callable": int(cfg["experiment"] == "converge")}


def test_setup_errors_open_no_pool(tmp_path, monkeypatch, capsys, serial_pool):
    """A bad start window or a factory that returns no SystemSpec exits 4 before any fork."""
    register_system("returns_42", lambda: 42, replace=True)
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1])
    cases = [
        ("simulate", _cfg(experiment="simulate", h=0.0125, xi={"values": [[1.0]] * 81},
                          system={"kind": "registered", "name": "golden_plane"}),
         "xi has dimension 1, system needs 2"),
        ("aux-gap", _cfg(experiment="auxiliary_gap", epsilons=[0.05, 0.02],
                         system={"kind": "registered", "name": "returns_42"}),
         "factory for 'returns_42' did not return a SystemSpec"),
    ]
    for i, (command, cfg, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert cli_main([command, "--config", _write_cfg(tmp_path, f"cfg{i}.json", cfg),
                         "--out", str(out), "--threads", "2"]) == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not out.exists()
    assert serial_pool == []


def test_plan_deals_each_job_to_the_least_loaded_worker():
    """A job costs its grid's steps * its paths; ties go to the lowest worker."""
    scen = Scenario.from_config(_cfg(T=1.0))
    jobs = [_job(None, scen, (None, h, {}), start, stop)  # costs 100, 300, 200, 20
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
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1])


def _raise_unpicklable():
    class Unpicklable(Exception):  # a local class does not pickle
        pass

    raise Unpicklable("cannot travel")


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
    """An exception in a forked worker comes back with its type; an unpicklable one as OSError."""
    def value_error():
        raise ValueError("bad value in a worker")

    _in_workers(monkeypatch, value_error)
    with pytest.raises(ValueError, match="bad value in a worker"):
        run_scenario(Scenario.from_config(_POOLED_AUX))
    _assert_no_child_left()

    _in_workers(monkeypatch, _raise_unpicklable)
    with pytest.raises(OSError, match="^Unpicklable: cannot travel$"):
        run_scenario(Scenario.from_config(_POOLED_AUX))
    _assert_no_child_left()


def test_unpicklable_worker_exception_exits_four(monkeypatch, tmp_path, capsys):
    """A worker exception that does not pickle is one `error:` line naming it, exit 4."""
    _in_workers(monkeypatch, _raise_unpicklable)
    cfg = _write_cfg(tmp_path, "aux.json", _POOLED_AUX)
    assert cli_main(["aux-gap", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "Unpicklable: cannot travel" in line
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()
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


def test_any_library_error_but_a_divergence_exits_four(tmp_path, capsys):
    """A TwoscaleError the CLI names nowhere, from a registered factory, is one `error:` line."""
    def factory():
        raise DegenerateFitError("nothing to fit in the factory")

    register_system("degenerate_factory", factory, replace=True)
    cfg = _write_cfg(tmp_path, "check.json", _cfg(
        experiment="check", system={"kind": "registered", "name": "degenerate_factory"}))
    assert cli_main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: nothing to fit in the factory\n"
    assert "Traceback" not in captured.out + captured.err


def test_threads_without_fork_run_in_process(monkeypatch, serial_pool):
    """Where os has no fork, threads > 1 open no pool and give the threads-1 hash."""
    serial = run_scenario(Scenario.from_config(dict(_POOLED_AUX, threads=1)))
    monkeypatch.delattr(harness.os, "fork")
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1])
    report = run_scenario(Scenario.from_config(_POOLED_AUX))
    assert report.reproducibility_hash == serial.reproducibility_hash
    assert serial_pool == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(harness._cpus()) < 2,
                    reason="needs two CPUs this process may run on")
def test_forked_workers_each_run_on_a_cpu_of_their_own():
    """Worker w of the pool is placed alone on the w-th CPU; the parent keeps its own set."""
    def body(c, paths):
        return [sorted(os.sched_getaffinity(0)) for _ in paths]

    before = harness._cpus()
    chunk = SimpleNamespace(grid=SimpleNamespace(steps=1))
    done = harness._forked([(body, chunk, 0, 1), (body, chunk, 0, 1)], 2)
    placed = [results[0][1] for results, _ in done]
    assert all(len(cpus) == 1 for cpus in placed) and placed[0] != placed[1]
    assert sorted(sum(placed, [])) == before[:2]
    assert harness._cpus() == before
    _assert_no_child_left()


def test_refused_placement_leaves_the_run_as_it_was(monkeypatch, tmp_path):
    """A worker whose placement raises OSError runs on: the threads-1 hash, and CLI exit 0.

    The pooled aux-gap run fails a gate at 2 paths (exit 2), so the CLI
    run is a two-worker simulate, which has no gate to fail.
    """
    serial = run_scenario(Scenario.from_config(dict(_POOLED_AUX, threads=1)))
    refusals = tmp_path / "refusals"
    refusals.mkdir()

    def refuse(pid, cpus):
        (refusals / str(os.getpid())).touch()
        raise OSError(22, "placement refused")

    monkeypatch.setattr(harness.os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1])
    report = run_scenario(Scenario.from_config(_POOLED_AUX))
    assert report.reproducibility_hash == serial.reproducibility_hash
    assert len(list(refusals.iterdir())) == 2  # one refusal in each forked worker
    cfg = _write_cfg(tmp_path, "sim.json", _cfg(experiment="simulate", epsilons=[0.25],
                                                 paths=4, T=0.25, threads=2))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(list(refusals.iterdir())) == 4
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
        "harness._cpus = lambda: [0, 1]\n"
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("caller, blas, threads", [
    ({}, "1", 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2", 2),
    ({"OMP_NUM_THREADS": "2"}, None, 2),
], ids=["unset", "openblas-2", "omp-2"])
def test_import_pins_blas_to_one_thread_unless_the_caller_chose(caller, blas, threads):
    """Importing twoscale before numpy starts no OpenBLAS pool; a caller's own count wins."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(caller, PYTHONPATH=str(Path(twoscale.__file__).resolve().parents[1]))
    script = ("import os, twoscale\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # OpenBLAS caps its pool at the CPUs this process may run on.
    assert done.stdout.split() == [str(blas), str(min(threads, len(os.sched_getaffinity(0))))]


def test_cli_frozen_prints_summary(tmp_path, capsys):
    cfg = _cfg(experiment="frozen", h=0.02,
               burn_in=2.0, horizon=4.0, replicas=2,
               mixing_replicas=8, checkpoints=3)
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
        replicas=2, mixing_replicas=8, checkpoints=3))
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
