"""Golden reproducibility hashes of reduced-path scenarios.

Each case runs one small scenario at threads 1, 2 and 3 and compares the
sha256 of its report.csv (plus, for simulate, of the dumped trajectory
files) and of its gates with the values recorded here.  The hashes are
the guard for refactors that must not move any reported number: a change
that moves one has to say why.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twoscale import cli, harness
from twoscale.averaging import closed_form_drift, khasminskii_delta
from twoscale.harness import Scenario, run_scenario, run_simulate
from twoscale.systems import LinearBenchmarkParams, SystemSpec, register_system

BENCH_PARAMS = {"a11": -1.0, "a12": 1.0, "s1": 0.3,
                "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3}
BENCH_SYS = {"kind": "linear_benchmark", "params": BENCH_PARAMS}
BLOWUP_SYS = {"kind": "registered", "name": "golden_blowup"}


def _blowup_factory():
    # Fast drift -y + y^3: noise kicks some paths over the barrier at
    # |y| = 1, after which they diverge within a few fast time units.
    return SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: -chi[-1] + phi[-1],
        sigma1=lambda chi: np.array([[0.3]]),
        b2=lambda chi, y, y_tau: -y + y ** 3,
        sigma2=lambda chi, y, y_tau: np.array([[0.9]]),
        benchmark=LinearBenchmarkParams(**BENCH_PARAMS),
    )


register_system("golden_blowup", _blowup_factory, replace=True)


def _plane_factory():
    # n = m = 2 without a closed form.  The maps mix the two components
    # elementwise (no matmul, whose rounding could depend on the batch),
    # b1 reads the slow window one delay back, and sigma2 depends on the
    # fast state, so it returns one (n, m) matrix per path.
    s1 = np.array([[0.3, 0.1], [0.0, 0.2]])
    s2 = np.array([[0.3, 0.05], [0.05, 0.2]])

    def b1(chi, phi):
        return -chi[-1] + 0.25 * chi[0] + phi[-1] + 0.3 * phi[-1][..., ::-1]

    def b2(chi, y, y_tau):
        return chi[-1] - 2.0 * y + 0.3 * y[..., ::-1] + 0.5 * y_tau

    def sigma2(chi, y, y_tau):
        return s2 * (1.0 + 0.2 * np.tanh(y))[:, :, None]

    return SystemSpec(n=2, m=2, tau=1.0, b1=b1, sigma1=lambda chi: s1, b2=b2, sigma2=sigma2)


register_system("golden_plane", _plane_factory, replace=True)
PLANE_SYS = {"kind": "registered", "name": "golden_plane"}

_BASE = {"system": BENCH_SYS, "tau": 1.0, "seed": 5}
# The path ensembles also read the horizon T; the frozen runs and check do not.
_ENSEMBLE = dict(_BASE, T=0.5)
# Experiments that reduce paths to p-th moments also read p and paths.
_MOMENTS = dict(_ENSEMBLE, p=2.0, paths=4)
_ESTIMATOR = dict(_MOMENTS, experiment="converge", T=0.1, h_factor=0.1, epsilons=[0.2, 0.1],
                  drift_source="estimator",
                  estimator={"burn_in": 5.0, "horizon": 1.0, "replicas": 2, "h": 0.1})

CASES = {
    "converge": dict(_MOMENTS, experiment="converge", epsilons=[0.25, 0.125, 0.0625]),
    "converge_estimator": dict(_ESTIMATOR, paths=2),
    # Five paths, cut into uneven chunks when the two rows get three or
    # more workers (test_golden_hash_with_uneven_path_chunks); the
    # estimator estimates each chunk's windows as one batch.
    "converge_estimator_uneven": dict(_ESTIMATOR, paths=5),
    "auxiliary_gap": dict(_MOMENTS, experiment="auxiliary_gap", T=0.25,
                          epsilons=[0.05, 0.02, 0.01]),
    "segment_continuity": dict(_MOMENTS, experiment="segment_continuity", T=1.0,
                               epsilons=[0.05], p=4.0, paths=3),
    "simulate_dump": dict(_ENSEMBLE, experiment="simulate", epsilons=[0.25], paths=3),
    "converge_diverging": dict(_MOMENTS, experiment="converge", system=BLOWUP_SYS,
                               epsilons=[0.25, 0.125, 0.0625]),
    "auxiliary_gap_diverging": dict(_MOMENTS, experiment="auxiliary_gap", system=BLOWUP_SYS,
                                    epsilons=[0.1, 0.05, 0.02]),
    "frozen": dict(_BASE, experiment="frozen", h=0.02,
                   burn_in=2.0, horizon=4.0, replicas=2,
                   mixing_replicas=8, checkpoints=3),
    "check": dict(_BASE, experiment="check", trials=200),
    "mixing": dict(_BASE, experiment="mixing", h=0.02,
                   mixing_replicas=8, checkpoints=3),
    # Identical starts: the coupled gap is 0, so the fit is degenerate, and
    # with nothing to contract mixing_rate_positive fails.
    "mixing_degenerate": dict(_BASE, experiment="mixing", h=0.02,
                              mixing_replicas=8, checkpoints=3,
                              eta={"constant": 0.0}, eta_prime={"constant": 0.0}),
    "aux_fixed_delta": dict(_MOMENTS, experiment="auxiliary_gap", paths=3, T=0.25,
                            epsilons=[0.05, 0.02], delta=0.3),
    # T > tau: the last reset windows lie wholly past the history rows.
    "aux_gap_long": dict(_MOMENTS, experiment="auxiliary_gap", T=2.5, delta=0.25,
                         epsilons=[0.1, 0.05]),
    "segcont_deltas": dict(_MOMENTS, experiment="segment_continuity", paths=3, T=1.0,
                           epsilons=[0.05], p=4.0, deltas=[0.3, 0.1, 0.05, 0.049]),
    # n = 2 with per-path sigma2: pins the Euclidean node norms and the
    # order of every sum over the state axis.  Three paths give uneven
    # chunks when the two rows get three workers.
    "converge_n2": dict(_ESTIMATOR, system=PLANE_SYS, paths=3),
    "auxiliary_gap_n2": dict(_MOMENTS, experiment="auxiliary_gap", system=PLANE_SYS, paths=3,
                             T=0.25, epsilons=[0.05, 0.02]),
    "segment_continuity_n2": dict(_MOMENTS, experiment="segment_continuity", system=PLANE_SYS,
                                  paths=3, T=1.0, epsilons=[0.05], p=4.0),
    "frozen_n2": dict(_BASE, experiment="frozen", system=PLANE_SYS, h=0.02,
                      burn_in=2.0, horizon=4.0, replicas=2, mixing_replicas=8, checkpoints=3),
    "mixing_n2": dict(_BASE, experiment="mixing", system=PLANE_SYS, h=0.02,
                      mixing_replicas=8, checkpoints=3, eta_prime={"constant": [1.0, -0.5]}),
    "check_n2": dict(_BASE, experiment="check", system=PLANE_SYS, trials=200),
    "simulate_n2": dict(_ENSEMBLE, experiment="simulate", system=PLANE_SYS, epsilons=[0.25],
                        paths=3),
    # Three of four paths diverge: an error row and a failed rows_complete.
    "segcont_diverging": dict(_MOMENTS, experiment="segment_continuity", system=BLOWUP_SYS,
                              T=1.0, epsilons=[0.25], p=4.0),
    # Two deltas are too few to fit a slope: slope_floor fails.
    "segcont_two_deltas": dict(_MOMENTS, experiment="segment_continuity", T=1.0,
                               epsilons=[0.05], p=4.0, paths=3, deltas=[0.25, 0.125]),
    # One path has no spread: std_error 0.
    "simulate_one_path": dict(_ENSEMBLE, experiment="simulate", epsilons=[0.25], paths=1),
}

GOLDEN = {
    "auxiliary_gap": "5790b11d9ab140babe4339f0c9162cc4175ea3add1cf3751a1e26d1511dfc60c",
    "auxiliary_gap_diverging": "e842a53c760af953420eb997abdb8e94ff0e270aff5e0d780f3294a8ae7825be",
    "check": "22d3c0b2f89f980e9996d05ae0a720eef2ed9187bfc5efb6032b9a262b8f19fe",
    "converge": "e6b791467fd1759b59595e3d28812fe974e1b576eb02b5379fe5bc5c813f0004",
    "converge_diverging": "4793ec5768807571b2ed4460b9518926fb6752420ebaf2fe4dd3abd974d83277",
    "converge_estimator": "73cad30bf1ffb73fd890df9d5bbe04e080c26d2ffe5d6f4e69d6d441bb032d18",
    "converge_estimator_uneven":
        "298e5dc4929f83b4659ff4fe45ddadc67d8eeafcdd791b191358b4280ded2642",
    "frozen": "ecc232dbb879929d6c779c9a0db5cad1dc4e8bda688c3dc6b9aa24d4f7142c72",
    "mixing": "c2be10a1542a55289874cf0d175667318e50587ff9e2b1dcb1fab166ec47b821",
    "mixing_degenerate": "82ad7375ce59134ae5afdd86f85dc693d18bf9d1f57d4226ec4266ca88608cf9",
    "aux_fixed_delta": "1e6fa34de4fe7f95afd6c765d04bacba12f1b728e99746baa954373a53a1c55a",
    "aux_gap_long": "ec018a47ebeb742f5fb7d27083ead4f803c7a508d8120400bc590020e39a5f69",
    "segcont_deltas": "760468670487ebc7eb18842c2e6eb40ac3d49114b2d8b724646b32e49b12497c",
    "segment_continuity": "1e44b3623fc7e3f62d1654ad6f57eec627881d8829b2125d3f17abb1af0c00c0",
    "simulate_dump": "3aab6dfde4b0c719b1d8d59a0b412972286bddc184b701e37af7d1bd12b0d5df",
    "auxiliary_gap_n2": "302e890d7cdbf6a8586fca3e24e98908c4542c44c3cb783048cc7c0432d6d647",
    "check_n2": "092e06cc1cd143f7dbc16f4b93d1952922dc396dfe1c60c103dc0bf0ed73e63e",
    "converge_n2": "453b7d399571383c26789bbdfd6be3a7041097015353448736ac554f6a533cd5",
    "frozen_n2": "d3f4d3044a4edc8eafb906969792136cf3aa15c4ce8bd1a769fc3c29d9507866",
    "mixing_n2": "1b6e6359b1a18f22e23b6860f01965c638af7ab7594b5cc39440841c7925d735",
    "segment_continuity_n2":
        "3d01eb43d6dd5fd21261f2267b2c167ad9aa45de228219fcb35d247fc7dae04f",
    "simulate_n2": "0ea63702419dfb58678c4ff473a772e48f19e4ff6cfcb61bb14dc0b31a5a6ad2",
    "segcont_diverging": "c33e2c0e4d10198f33b3f8cb8d976a7df4b3a48e931c67e01558dd4397302785",
    "segcont_two_deltas": "18858d22fcc19e61494e2c3ca7095cb35f410e3b3d529e823a6a476fc4f6036a",
    "simulate_one_path": "b50dd1ee8d4effeba90f57097cfdfa1a2b05b2ba3562ad450b84b462d862b649",
}

# sha256 of json.dumps(report.gates, sort_keys=True): the gates are not in
# report.csv, so GOLDEN does not pin them.
GOLDEN_GATES = {
    "aux_fixed_delta": "f83c0e623be68009c9d608c2f13db732087b4af5b4cd72c567f7c7bfe872d029",
    "aux_gap_long": "6063e8aac95348b2e8b1eca831c6614c040d70741d0441bb7ac006ce078c1db7",
    "auxiliary_gap": "babd3bb82d765bf2af805ef2c7f96fb90f3681cb18152eeddc39bd5931c8a2d1",
    "auxiliary_gap_diverging": "022d829edf601c0d299d4d17c447ebbd385dce77808e5b1620160879c2a4a62b",
    "auxiliary_gap_n2": "b345d5a321013d681c040d8db0eba00a99351e41d05908e5008374b37dd0c0b2",
    "check": "692935aec4cc3bc52a68cdfe37babaf5d3235c306d92a2826cf63f3a2dc74cbf",
    "check_n2": "99194f3cf36ec0658d77ddb2e20b2646307c9aaf676377b1cde5dd96a80a729f",
    "converge": "5256dfb3b8ef46218ceb56680c53c9150046abc98723f3a4104f58f985a163a7",
    "converge_diverging": "96ed241a5e048a42ab7ec34c8edecf7860a82a18322659a13799cb04d0da2fe0",
    "converge_estimator": "cec95544014a7f70cd13ca9bda73429e92808e2f7a0fb5fc2cfc19cc96e2c467",
    "converge_estimator_uneven":
        "811e4f3ad5feb4193ec40b0089488639b57a12bbac23e3355d9d407a858fb0fd",
    "converge_n2": "46012352261c7b290b9f83747864374b95f732e5eb5f92fbdb3f9be03df9f8d3",
    "frozen": "529cb1a854794e3f891a4386c964b7e20f926cad2f4a2760a7b411f826c9d279",
    "frozen_n2": "38f452da9c15017e98ee1fa298150aa31c3c72e617445df22be4f76940e162ee",
    "mixing": "529cb1a854794e3f891a4386c964b7e20f926cad2f4a2760a7b411f826c9d279",
    "mixing_degenerate": "3cf50d2ef027db8114735bd711adcd7de32ccafae2edabd1bf820313a9e864e9",
    "mixing_n2": "56c62648c712e1ac0ba301affa30367ed6de2339a2a7887bf9ba9a3265639b7d",
    "segcont_deltas": "8cab76bdf4e662dd32e0243f73e6a8b255baec9e135eb309e76490665d0d6100",
    "segcont_diverging": "04356d632568ffa3362382f515a13462ccc331f824905383ae107b2d0e6ce523",
    "segcont_two_deltas": "7a3d04e30dcf06dda3fd2cfd036ced712b7631b3eb5bec9b1272897c2519cd50",
    "segment_continuity": "b4a883451d81573afddeea7a344f4f219f14a7fdf1d1964f860a91896d401273",
    "segment_continuity_n2": "d40eae81e8733e60c40ca6ce941701adbdef320769cb8913b6f21257d7a64177",
    "simulate_dump": "874b53e221d62d306a0f1df82ce9be2ea1918ef13e2c8579434108295e0274f7",
    "simulate_n2": "874b53e221d62d306a0f1df82ce9be2ea1918ef13e2c8579434108295e0274f7",
    "simulate_one_path": "edfb2a69a20eb10437c810671ced58f3ed922b4db7804eac55af090c477d619b",
}


_SNAP_03 = "delta=0.3 snapped to tau/3=0.3333333333333333"

_SHORT_BURN_IN = ("burn_in=2.0 is below 5*tau=5.0; the stationary average may still "
                  "carry start bias")

# The warnings the fixed-delta and short burn-in cases report.
GOLDEN_WARNINGS = {
    "frozen": [_SHORT_BURN_IN],
    "frozen_n2": [_SHORT_BURN_IN],
    "aux_fixed_delta": [_SNAP_03],
    "segcont_deltas": [
        _SNAP_03,
        "delta=0.049 snapped to tau/20=0.05",
        "delta=0.3333333333333333 snapped to 133*h=0.3325",
        "duplicate deltas merged after snapping",
    ],
}


def _run(name, threads, tmp_path):
    scenario = Scenario.from_config(dict(CASES[name], threads=threads))
    if name == "simulate_dump":
        report = run_simulate(scenario, dump_dir=tmp_path, stem="golden")
    else:
        report = run_scenario(scenario)
    sha = hashlib.sha256(report.csv_text().encode())
    for dump in sorted(tmp_path.glob("golden_*.csv")):
        sha.update(dump.name.encode())
        sha.update(dump.read_bytes())
    return sha.hexdigest(), report


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_hash(name, threads, tmp_path, monkeypatch):
    """threads = k runs on k CPUs, whatever the host has, so k > 1 forks k workers."""
    monkeypatch.setattr(harness, "_cpus", lambda: list(range(threads)))
    forked, workers = harness._forked, []
    monkeypatch.setattr(harness, "_forked",
                        lambda jobs, n: workers.append(n) or forked(jobs, n))
    digest, report = _run(name, threads, tmp_path)
    # Every ensemble case of more than one path has at least `threads` path chunks.
    ensemble = CASES[name]["experiment"] in harness._ENSEMBLE_EXPERIMENTS
    assert workers == ([threads] if ensemble and threads > 1 and CASES[name]["paths"] > 1
                       else [])
    assert digest == GOLDEN[name]
    gates = json.dumps(report.gates, sort_keys=True)
    assert hashlib.sha256(gates.encode()).hexdigest() == GOLDEN_GATES[name]
    if name in GOLDEN_WARNINGS:
        assert report.warnings == GOLDEN_WARNINGS[name]


@pytest.mark.parametrize("name", ["converge_n2", "segment_continuity_n2"])
def test_golden_report_hash_on_the_hosts_cpus(name, tmp_path):
    """threads=3 through the real affinity set: as many workers as the host lets the run have."""
    digest, _ = _run(name, 3, tmp_path)
    assert digest == GOLDEN[name]


@pytest.mark.parametrize("threads", [3, 5])
@pytest.mark.parametrize("name", ["converge_estimator_uneven", "converge_n2", "auxiliary_gap_n2"])
def test_golden_hash_with_uneven_path_chunks(name, threads, tmp_path, monkeypatch, serial_pool):
    """Two-row cases on more workers than rows cut each row into path chunks, some uneven."""
    monkeypatch.setattr(harness, "_cpus", lambda: list(range(8)))
    digest, _ = _run(name, threads, tmp_path)
    assert digest == GOLDEN[name]
    [pool] = serial_pool
    paths = CASES[name]["paths"]
    per_row = min(-(-threads // 2), paths)
    assert [job[2:] for job in pool.jobs[:per_row]] == [
        (paths * j // per_row, paths * (j + 1) // per_row) for j in range(per_row)]
    assert len(pool.jobs) == 2 * per_row


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# report.csv sha256 of each benchmark workload at --seed 0, as bench/run.py
# computes it; aux-gap-threads2 also runs at threads 1 (the hash does not
# depend on the worker count).
BENCH_HASHES = {
    "aux-gap-threads2": "84669149b24cf62e0141fc907efbec2266487f3ff76e913bfee98e6c083fcb57",
    "converge-estimator": "df147bade352346b91e63f44f49b53daef27944bb4fc7f07a2efc2502cb5259a",
}


@pytest.fixture(scope="module")
def bench():
    """bench/workloads.py, which imports its sibling reference.py."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return workloads


@pytest.fixture(scope="module", params=[("aux-gap-threads2", 1), ("aux-gap-threads2", 2),
                                        ("converge-estimator", 1)],
                ids=lambda param: "-".join(map(str, param)))
def bench_run(request, bench, tmp_path_factory):
    """A benchmark scenario run once, in process through the CLI: (name, cfg, exit code, out)."""
    name, threads = request.param
    workload = bench.WORKLOADS[name]
    cfg = workload.scenario(0, threads=threads)
    tmp_path = tmp_path_factory.mktemp(f"{name}-{threads}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    code = cli.main([workload.command, "--config", str(config), "--out", str(tmp_path / "out")])
    return name, cfg, code, tmp_path / "out"


def test_bench_workload_passes_its_checks(bench_run, bench):
    """The benchmark's scenarios exit 0 and pass its own checks against bench/reference.py."""
    name, cfg, code, out = bench_run
    workload = bench.WORKLOADS[name]
    assert code == 0
    report = bench.Report.load(out)
    assert workload.check(report, cfg) == []


def test_bench_workload_hash(bench_run, bench):
    """The benchmark's scenarios keep their report hashes."""
    name, _, _, out = bench_run
    report = bench.Report.load(out)
    assert report.csv_hash == BENCH_HASHES[name]


def test_closed_form_converge_matches_reference(bench, tmp_path):
    """Criterion 4's sweep with the closed-form drift gives bench/reference.py's moments."""
    cfg = {"experiment": "converge", "system": bench.SYSTEM, "tau": 1.0, "T": 0.5,
           "epsilons": [0.05, 0.02, 0.01, 0.005], "p": 2.0, "paths": 128, "seed": 2024}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["converge", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = bench.Report.load(tmp_path / "out").kind("sup_gap_moment")
    assert [float(r["epsilon"]) for r in rows] == cfg["epsilons"]
    for row in rows:
        gaps = bench.reference.sup_gaps(bench.PAIR, cfg["seed"], cfg["paths"],
                                        float(row["epsilon"]), row["extra"]["h"], cfg["T"],
                                        cfg["tau"])
        ref = bench.reference.moment(gaps, cfg["p"])
        assert float(row["value"]) == pytest.approx(ref, rel=bench.REFERENCE_RTOL, abs=0.0)


@st.composite
def _generic_params(draw):
    """Linear-benchmark parameters off the bench point, where a12 = c1 and s1 = s2 hide a
    map that reads one for the other."""
    unit = st.floats(0.1, 2.0)
    params = {"a11": draw(st.floats(-2.0, 0.5)), "a12": draw(unit), "s1": draw(unit),
              "c1": draw(unit), "c2": draw(st.floats(1.0, 3.0)), "s2": draw(unit)}
    params["c3"] = draw(st.floats(0.05, 0.9)) * params["c2"]
    return params


@settings(max_examples=50, deadline=None)
@given(_generic_params())
def test_benchmark_kappa_and_gain_match_reference(bench, params):
    pair = bench.reference.LinearPair(**params)
    got = LinearBenchmarkParams(**params)
    assert (got.kappa, got.gain) == (pair.kappa, pair.c1 / (pair.c2 - pair.c3))


@settings(max_examples=32, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_generic_params(), st.sampled_from([0.1, 0.05, 0.02]), st.integers(2, 4),
       st.integers(1, 4), st.integers(0, 2 ** 16))
@example(dict(BENCH_PARAMS, a12=0.7, s2=1.1), 0.05, 4, 3, 1)  # uneven chunks 1, 1, 2
def test_chunk_gaps_match_reference_at_generic_parameters(bench, monkeypatch, serial_pool,
                                                          params, epsilon, paths, workers,
                                                          seed):
    """converge's and aux-gap's per-path sup gaps, run by _run_ensemble with the row cut into
    up to `workers` path chunks, equal bench/reference.py's bit for bit.

    h = delta / ceil(delta / (0.05 eps)) tiles the Khasminskii block delta.
    """
    monkeypatch.setattr(harness, "_cpus", lambda: list(range(workers)))
    delta = 1.0 / khasminskii_delta(epsilon, 1.0)
    h = delta / math.ceil(delta / (0.05 * epsilon))
    T = round(0.2 / h) * h
    scenario = Scenario.from_config({
        "experiment": "converge", "system": {"kind": "linear_benchmark", "params": params},
        "T": T, "epsilons": [epsilon], "paths": paths, "seed": seed, "threads": workers})
    spec = scenario.build_spec()
    row = {"epsilon": epsilon, "extra": {"h": h}}
    pools = len(serial_pool)
    [(_, gaps)] = harness._run_ensemble(scenario, spec, harness._converge_chunk,
                                        [(row, {"drift": closed_form_drift(spec), "row": 0})])
    [(_, aux)] = harness._run_ensemble(scenario, spec, harness._aux_chunk,
                                       [(row, {"delta": delta})])
    cut = min(workers, paths)
    assert [len(pool.jobs) for pool in serial_pool[pools:]] == ([cut] * 2 if cut > 1 else [])
    pair, ref = bench.reference.LinearPair(**params), bench.reference
    assert np.array(gaps).tobytes() == ref.sup_gaps(pair, seed, paths, epsilon, h, T).tobytes()
    assert (np.array([a[0] for a in aux]).tobytes()
            == ref.aux_sup_gaps(pair, seed, paths, epsilon, h, T, delta).tobytes())
