"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints exactly one PASS/FAIL
line (run with `pytest -s` to see them on passing runs), and then asserts
the individual conditions so a failure still points at the broken piece.
These run at full scale; the whole file takes about five seconds on one core.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from twoscale.averaging import closed_form_drift, khasminskii_delta, simulate_averaged
from twoscale.errors import DomainError
from twoscale.frozen import estimate_averaged_drift, mixing_decay
from twoscale.harness import Scenario, run_scenario
from twoscale.noise import W1, W2, NoiseStream
from twoscale.segment import constant_segment
from twoscale.solver import make_grid
from twoscale.systems import (
    LinearBenchmarkParams,
    check_dissipativity,
    linear_benchmark,
    random_points,
)

from conftest import brownian

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                              c1=1.0, c2=2.0, c3=0.5, s2=0.3)
BENCH_SYS = {
    "kind": "linear_benchmark",
    "params": {"a11": -1.0, "a12": 1.0, "s1": 0.3,
               "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3},
}


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"\nacceptance {num} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_averaged_endpoint_closed_form():
    """Noise-free averaged run lands on exp(kappa) and on the exact recursion."""
    params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.0,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.001
    g = make_grid(T=1.0, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    xbar = simulate_averaged(spec, xi, closed_form_drift(spec), g, brownian(0, [0], W1, g))
    end = float(xbar[-1, 0, 0])
    ref = np.array([1.0])
    zero = np.zeros((1, 1)) @ np.zeros(1)
    for _ in range(g.steps):
        ref = ref + (params.kappa * ref) * h + zero
    exact = end == float(ref[0])
    close = abs(end - np.exp(params.kappa)) < 2e-3
    _verdict(1, "averaged endpoint matches exp(kappa) within 2e-3", exact and close)
    assert exact, f"endpoint {end!r} != step recursion {float(ref[0])!r}"
    assert close, f"|{end} - exp({params.kappa})| >= 2e-3"


def test_criterion_2_frozen_drift_estimate_hits_kappa():
    """Time-averaged b1 along frozen paths recovers kappa * zeta(0)."""
    spec = linear_benchmark(BENCH)
    h = 0.001
    g = make_grid(T=60.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 1.0)[:, None]
    est = estimate_averaged_drift(spec, zeta, 10.0, 50.0, 16, g, [2])
    target = BENCH.kappa * 1.0
    err = abs(float(est.value[0, 0]) - target)
    tol = max(3.0 * float(est.std_error[0, 0]), 0.02)
    ok = err < tol
    _verdict(2, "estimated averaged drift within max(3*SE, 0.02) of kappa", ok)
    assert ok, f"bbar {float(est.value[0, 0]):.5f} vs {target:.5f}, err {err:.5f} tol {tol:.5f}"


def test_criterion_3_mixing_rate_brackets_the_root():
    """Coupled-pair contraction rate lands within 5% of the exact decay rate.

    The linear pair's noise is additive, so under synchronous coupling the
    gap is deterministic: it solves the delay equation g' = -c2 g + c3 g(t - tau)
    and decays like exp(-mu t) with mu = c2 - c3 exp(mu tau).  The squared
    gap therefore decays at exactly 2 mu.
    """
    spec = linear_benchmark(BENCH)
    h = 0.001
    g = make_grid(T=8.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 1.0)
    fit = mixing_decay(spec, zeta,
                       constant_segment(1.0, h, 1.0),
                       constant_segment(1.0, h, 2.0),
                       g, 8, 3)
    mu = brentq(lambda r: r + BENCH.c3 * np.exp(r) - BENCH.c2, 0.0, BENCH.c2)
    ratio = fit.fitted_rate / (2.0 * mu)
    in_band = 0.95 <= ratio <= 1.05
    clean = fit.r_squared >= 0.98
    _verdict(3, "frozen mixing rate within 5% of the exact rate 2*mu", in_band and clean)
    assert in_band, f"rate {fit.fitted_rate:.4f} ratio {ratio:.3f} outside [0.95, 1.05]"
    assert clean, f"r^2 {fit.r_squared:.5f} below 0.98"


def test_criterion_4_convergence_sweep_passes_gates():
    """Sup-gap second moment shrinks along eps 0.05 -> 0.005 at 128 paths."""
    cfg = {
        "experiment": "converge",
        "system": BENCH_SYS,
        "tau": 1.0, "T": 0.5,
        "epsilons": [0.05, 0.02, 0.01, 0.005],
        "p": 2.0, "paths": 128, "seed": 2024,
    }
    report = run_scenario(Scenario.from_config(cfg))
    values = [r["value"] for r in report.rows
              if r["extra"]["kind"] == "sup_gap_moment"]
    shrinks = values[-1] < values[0]
    _verdict(4, "averaging gap vanishes with eps (all gates)", report.passed and shrinks)
    for gate in report.gates:
        assert gate["passed"], f"gate {gate['name']}: {gate['detail']}"
    assert shrinks, f"no reduction: {values}"


def test_criterion_5_block_schedule_and_auxiliary_gap():
    """Block length eps*sqrt(-ln eps): domain guard, snapping, and small gaps."""
    with pytest.raises(DomainError):
        khasminskii_delta(0.5, 1.0)
    sch = khasminskii_delta(0.01, 1.0)
    schedule_ok = (sch.N_delta == 47 and sch.delta == 1.0 / 47.0
                   and sch.delta_raw == 0.021459660262893473)
    cfg = {
        "experiment": "auxiliary_gap",
        "system": BENCH_SYS,
        "tau": 1.0, "T": 0.5,
        "epsilons": [0.05, 0.02, 0.01, 0.005],
        "p": 2.0, "paths": 64, "seed": 7,
    }
    report = run_scenario(Scenario.from_config(cfg))
    audits = [r["value"] for r in report.rows
              if r["extra"]["kind"] == "reset_audit"]
    audit_zero = all(v == 0.0 for v in audits)
    ok = schedule_ok and report.passed and audit_zero
    _verdict(5, "auxiliary construction: exact resets, separated extremes", ok)
    assert schedule_ok, (sch.N_delta, sch.delta, sch.delta_raw)
    for gate in report.gates:
        assert gate["passed"], f"gate {gate['name']}: {gate['detail']}"
    assert audit_zero, audits


def test_criterion_6_segment_continuity_order():
    """Fourth-moment segment displacement scales like delta^((p-2)/2) or better."""
    cfg = {
        "experiment": "segment_continuity",
        "system": BENCH_SYS,
        "tau": 1.0, "T": 1.0,
        "epsilons": [0.05],
        "p": 4.0, "paths": 64, "seed": 5,
    }
    report = run_scenario(Scenario.from_config(cfg))
    slope_row = [r for r in report.rows if r["extra"]["kind"] == "slope_fit"][0]
    floor = 0.9 * (4.0 - 2.0) / 2.0
    ok = report.passed and slope_row["value"] >= floor
    _verdict(6, "segment modulus exponent clears 0.9*(p-2)/2", ok)
    for gate in report.gates:
        assert gate["passed"], f"gate {gate['name']}: {gate['detail']}"
    assert slope_row["value"] >= floor, slope_row


def test_criterion_7_dissipativity_verdicts():
    """Certificate accepts every contractive draw and rejects an expanding map."""
    rng = np.random.default_rng(521)
    all_good = True
    for _ in range(20):
        c2 = float(rng.uniform(0.6, 3.0))
        c3 = float(rng.uniform(0.05, 0.9 * c2))
        params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                       c1=float(rng.uniform(0.2, 2.0)),
                                       c2=c2, c3=c3, s2=0.3)
        spec = linear_benchmark(params)
        rep = check_dissipativity(spec, *random_points(np.random.default_rng(99), 200,
                                                       1.0, 0.5, 1))
        # The Young pair (2 c2 - c3, c3) fits every sample, so the largest
        # certified gap is at least 2 (c2 - c3).
        certified = rep.lambda1 - rep.lambda2 >= 2.0 * (c2 - c3) * (1.0 - 1e-9)
        all_good = all_good and rep.passed and certified
    with pytest.warns(UserWarning, match="contraction regime"):
        expanding = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                          c1=1.0, c2=0.5, c3=2.0, s2=0.3)
    bad = check_dissipativity(linear_benchmark(expanding),
                              *random_points(np.random.default_rng(17), 800, 1.0, 0.5, 1))
    ok = all_good and not bad.passed
    _verdict(7, "dissipativity check separates contractive from expanding", ok)
    assert all_good
    assert not bad.passed, bad


def test_criterion_8_reproducibility_and_metric_sanity():
    """Bit-identical reruns serial and parallel; noise marginals."""
    cfg = {
        "experiment": "converge",
        "system": BENCH_SYS,
        "tau": 1.0, "T": 0.5,
        "epsilons": [0.25, 0.125],
        "p": 2.0, "paths": 4, "seed": 90,
    }
    first = run_scenario(Scenario.from_config(cfg))
    second = run_scenario(Scenario.from_config(cfg))
    parallel = run_scenario(Scenario.from_config(dict(cfg, threads=3)))
    stable = (first.csv_text() == second.csv_text() == parallel.csv_text())

    n = 100_000
    draws = NoiseStream(12, 0, W2).normals(n)
    marginals = (abs(float(draws.mean())) < 4.0 / np.sqrt(n)
                 and abs(float(draws.var()) - 1.0) < 4.0 * np.sqrt(2.0 / n))

    ok = stable and marginals
    _verdict(8, "deterministic replay, calibrated noise", ok)
    assert stable, "csv text differed between reruns or thread counts"
    assert marginals, (float(draws.mean()), float(draws.var()))
