import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoscale
from twoscale.cli import main as cli_main
from twoscale.errors import ConfigError, UsageError
from twoscale.harness import (
    _ALLOWED_KEYS,
    CSV_COLUMNS,
    EXPERIMENTS,
    SCHEMA_VERSION,
    Scenario,
    run_scenario,
    run_simulate,
)
from twoscale.systems import SystemSpec, register_system

BENCH_SYS = {
    "kind": "linear_benchmark",
    "params": {"a11": -1.0, "a12": 1.0, "s1": 0.3,
               "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3},
}


def _cfg(**over):
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
    base.update(over)
    return base


# Each of these fails Scenario.from_config with a ConfigError.
_BAD_PARSE_CONFIGS = [
    _cfg(experiment="segment_continuity", deltas=[0.25, "abc"]),
    _cfg(experiment="segment_continuity", deltas=[float("inf")]),
    _cfg(sample_times=[0.25, "abc"]),
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
        Scenario.from_config(_cfg(estimator={"mystery": 1}))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(xi={"wrong": 1}))
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(sample_times=[2.0]))  # past T
    with pytest.raises(ConfigError):
        Scenario.from_config(_cfg(deltas=[]))
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
def _configs(draw):
    """A valid config of a random experiment with a few fields replaced."""
    cfg = _cfg(experiment=draw(st.sampled_from(EXPERIMENTS)), epsilons=[0.05, 0.02])
    for key in draw(st.lists(st.sampled_from(sorted(_ALLOWED_KEYS)), max_size=3, unique=True)):
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
    assert a.digest() != d.digest()
    assert len(a.digest()) == 16


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


def test_empty_epsilons_rejected_at_run():
    scen = Scenario.from_config(_cfg(epsilons=[]))
    with pytest.raises(UsageError, match="epsilons"):
        run_scenario(scen)


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
    cfg = _cfg(experiment="frozen", epsilons=[], h=0.02,
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
    cfg = _cfg(experiment="mixing", epsilons=[], h=0.02,
               mixing_replicas=8, checkpoints=3, T=1.0,
               eta={"constant": 0.0}, eta_prime={"constant": 1.0})
    report = run_scenario(Scenario.from_config(cfg))
    assert [r["extra"]["kind"] for r in report.rows] == ["mixing_fit"]
    assert report.rows[0]["value"] > 0.0
    assert report.warnings == []
    assert report.passed


def test_check_runner_benchmark_passes():
    cfg = _cfg(experiment="check", epsilons=[], trials=200, T=1.0)
    report = run_scenario(Scenario.from_config(cfg))
    assert report.passed
    kinds = [r["extra"]["kind"] for r in report.rows]
    assert kinds == ["dissipativity", "growth_lipschitz",
                     "initial_segment", "coefficient_purity"]
    diss = report.rows[0]["extra"]
    assert diss["candidate_supplied"] is True
    assert (diss["lambda1"], diss["lambda2"]) == (3.5, 0.5)


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
                          _cfg(experiment="check", system=bad_sys,
                               epsilons=[], trials=300, T=1.0))
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
    cases = _BAD_PARSE_CONFIGS + [
        _cfg(system=dict(BENCH_SYS, params=dict(BENCH_SYS["params"], c1="abc"))),
        _cfg(system=dict(BENCH_SYS, params=dict(BENCH_SYS["params"], a11=True))),
        # Off the grid the runner resolves; rejected before any path runs.
        _cfg(experiment="segment_continuity", epsilons=[0.05], T=1.0, p=4.0,
             sample_times=[0.3333]),
        _cfg(h=5e-324),  # tau / h overflows to inf
    ]
    commands = {"converge": "converge", "auxiliary_gap": "aux-gap",
                "segment_continuity": "seg-cont"}
    for i, cfg in enumerate(cases):
        path = _write_cfg(tmp_path, f"case{i}.json", cfg)
        out = tmp_path / f"out{i}"
        assert cli_main([commands[cfg["experiment"]], "--config", path,
                         "--out", str(out)]) == 4, cfg
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_cli_divergence_exit_three(tmp_path):
    def factory():
        return SystemSpec(
            n=1, m=1, tau=0.5,
            b1=lambda chi, phi: np.zeros(1),
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


def test_cli_frozen_prints_summary(tmp_path, capsys):
    cfg = _cfg(experiment="frozen", epsilons=[], h=0.02,
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


def test_cli_runs_without_loading_scipy(tmp_path):
    """scipy is a test-only dependency: no CLI run may import it."""
    frozen = _write_cfg(tmp_path, "frozen.json", _cfg(
        experiment="frozen", epsilons=[], h=0.02, burn_in=2.0, horizon=4.0,
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
