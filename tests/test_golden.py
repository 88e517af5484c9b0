"""Golden reproducibility hashes of reduced-path scenarios.

Each case runs one small scenario at threads 1, 2 and 3 and compares the
sha256 of its report.csv (plus, for simulate, of the dumped trajectory
files) with the value recorded here.  The hashes are the guard for
refactors that must not move any reported number: a change that moves
one has to say why.
"""

import hashlib

import numpy as np
import pytest

from twoscale import harness
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
        name="golden_blowup",
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

    return SystemSpec(n=2, m=2, tau=1.0, b1=b1, sigma1=lambda chi: s1, b2=b2, sigma2=sigma2,
                      name="golden_plane")


register_system("golden_plane", _plane_factory, replace=True)
PLANE_SYS = {"kind": "registered", "name": "golden_plane"}

_BASE = {"system": BENCH_SYS, "tau": 1.0, "T": 0.5, "seed": 5}
# Experiments that reduce paths to p-th moments also read p and paths.
_MOMENTS = dict(_BASE, p=2.0, paths=4)
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
    "simulate_dump": dict(_BASE, experiment="simulate", epsilons=[0.25], paths=3),
    "converge_diverging": dict(_MOMENTS, experiment="converge", system=BLOWUP_SYS,
                               epsilons=[0.25, 0.125, 0.0625]),
    "auxiliary_gap_diverging": dict(_MOMENTS, experiment="auxiliary_gap", system=BLOWUP_SYS,
                                    epsilons=[0.1, 0.05, 0.02]),
    "frozen": dict(_BASE, experiment="frozen", h=0.02, T=1.0,
                   burn_in=2.0, horizon=4.0, replicas=2,
                   mixing_replicas=8, checkpoints=3),
    "check": dict(_BASE, experiment="check", trials=200),
    "mixing": dict(_BASE, experiment="mixing", h=0.02, T=1.0,
                   mixing_replicas=8, checkpoints=3),
    # Identical starts: the coupled gap is 0, so the fit is degenerate.
    "mixing_degenerate": dict(_BASE, experiment="mixing", h=0.02, T=1.0,
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
    "frozen_n2": dict(_BASE, experiment="frozen", system=PLANE_SYS, h=0.02, T=1.0,
                      burn_in=2.0, horizon=4.0, replicas=2, mixing_replicas=8, checkpoints=3),
    "mixing_n2": dict(_BASE, experiment="mixing", system=PLANE_SYS, h=0.02, T=1.0,
                      mixing_replicas=8, checkpoints=3, eta_prime={"constant": [1.0, -0.5]}),
    "check_n2": dict(_BASE, experiment="check", system=PLANE_SYS, trials=200),
    "simulate_n2": dict(_BASE, experiment="simulate", system=PLANE_SYS, epsilons=[0.25],
                        paths=3),
}

GOLDEN = {
    "auxiliary_gap": "5790b11d9ab140babe4339f0c9162cc4175ea3add1cf3751a1e26d1511dfc60c",
    "auxiliary_gap_diverging": "e842a53c760af953420eb997abdb8e94ff0e270aff5e0d780f3294a8ae7825be",
    "check": "c12eb11809c9ad819232c09953c0ea60361c89bdcafd88df0f632ac55c0b6e35",
    "converge": "e6b791467fd1759b59595e3d28812fe974e1b576eb02b5379fe5bc5c813f0004",
    "converge_diverging": "4793ec5768807571b2ed4460b9518926fb6752420ebaf2fe4dd3abd974d83277",
    "converge_estimator": "68148c699e72dbbcef26973e1e0bbb84c0458c1f06334ae0a719b17fa51252fc",
    "converge_estimator_uneven":
        "2d03b51a0aa3b5a1e2e0e1c9453bdc390c5f36b686b6b972c38e96be9471592e",
    "frozen": "ecc232dbb879929d6c779c9a0db5cad1dc4e8bda688c3dc6b9aa24d4f7142c72",
    "mixing": "c2be10a1542a55289874cf0d175667318e50587ff9e2b1dcb1fab166ec47b821",
    "mixing_degenerate": "82ad7375ce59134ae5afdd86f85dc693d18bf9d1f57d4226ec4266ca88608cf9",
    "aux_fixed_delta": "1e6fa34de4fe7f95afd6c765d04bacba12f1b728e99746baa954373a53a1c55a",
    "aux_gap_long": "ec018a47ebeb742f5fb7d27083ead4f803c7a508d8120400bc590020e39a5f69",
    "segcont_deltas": "760468670487ebc7eb18842c2e6eb40ac3d49114b2d8b724646b32e49b12497c",
    "segment_continuity": "1e44b3623fc7e3f62d1654ad6f57eec627881d8829b2125d3f17abb1af0c00c0",
    "simulate_dump": "3aab6dfde4b0c719b1d8d59a0b412972286bddc184b701e37af7d1bd12b0d5df",
    "auxiliary_gap_n2": "302e890d7cdbf6a8586fca3e24e98908c4542c44c3cb783048cc7c0432d6d647",
    "check_n2": "a91ee7cd3e07ea7ce639f823f6bfd12b95e03a9aa876e8c8a849363b5da0c2a6",
    "converge_n2": "c0ab1dd923a60efe46ba8f92d9af1ef35e1a2a71de019eaebcae8c6bfe28453c",
    "frozen_n2": "d3f4d3044a4edc8eafb906969792136cf3aa15c4ce8bd1a769fc3c29d9507866",
    "mixing_n2": "1b6e6359b1a18f22e23b6860f01965c638af7ab7594b5cc39440841c7925d735",
    "segment_continuity_n2":
        "3d01eb43d6dd5fd21261f2267b2c167ad9aa45de228219fcb35d247fc7dae04f",
    "simulate_n2": "0ea63702419dfb58678c4ff473a772e48f19e4ff6cfcb61bb14dc0b31a5a6ad2",
}


_SNAP_03 = "delta=0.3 snapped to tau/3=0.3333333333333333"

_SHORT_BURN_IN = ("burn_in=2.0 is below 5*tau=5.0; the stationary average may still "
                  "carry start bias")

# The warnings the fixed-delta and short burn-in cases report.
GOLDEN_WARNINGS = {
    "frozen": [_SHORT_BURN_IN],
    "frozen_n2": [_SHORT_BURN_IN],
    "aux_fixed_delta": [_SNAP_03, _SNAP_03],
    "segcont_deltas": [
        _SNAP_03,
        "delta=0.049 snapped to tau/20=0.05",
        "duplicate deltas merged after snapping",
        "delta=0.3333333333333333 snapped to 133*h=0.3325",
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
    return sha.hexdigest(), report.warnings


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_hash(name, threads, tmp_path):
    digest, warnings = _run(name, threads, tmp_path)
    assert digest == GOLDEN[name]
    if name in GOLDEN_WARNINGS:
        assert warnings == GOLDEN_WARNINGS[name]


@pytest.mark.parametrize("threads", [3, 5])
@pytest.mark.parametrize("name", ["converge_estimator_uneven", "converge_n2", "auxiliary_gap_n2"])
def test_golden_hash_with_uneven_path_chunks(name, threads, tmp_path, monkeypatch, serial_pool):
    """Two-row cases on more workers than rows cut each row into path chunks, some uneven."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    digest, _ = _run(name, threads, tmp_path)
    assert digest == GOLDEN[name]
    [pool] = serial_pool
    paths = CASES[name]["paths"]
    per_row = min(-(-threads // 2), paths)
    assert [job[5:] for job in pool.jobs[:per_row]] == [
        (paths * j // per_row, paths * (j + 1) // per_row) for j in range(per_row)]
    assert len(pool.jobs) == 2 * per_row
