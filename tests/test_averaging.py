import math
import warnings

import numpy as np
import pytest

from twoscale.averaging import (
    DeltaSchedule,
    EstimatedDriftSource,
    closed_form_drift,
    khasminskii_delta,
    simulate_auxiliary,
    simulate_averaged,
)
from twoscale.errors import DivergenceError, DomainError, UsageError
from twoscale.frozen import DriftEstimatorBudget
from twoscale.metrics import sup_distance
from twoscale.noise import W1, W2, NoiseStream
from twoscale.segment import constant_segment
from twoscale.solver import _coupled_core, make_grid, simulate_coupled
from twoscale.systems import LinearBenchmarkParams, SystemSpec, linear_benchmark

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def test_block_schedule_hand_values():
    sch = khasminskii_delta(0.01, 1.0)
    assert sch.delta_raw == 0.021459660262893473
    assert sch.N_delta == 47
    assert sch.delta == 1.0 / 47.0
    # Familiar sweep: these block counts are pinned by the formula.
    assert khasminskii_delta(0.05, 1.0).N_delta == 12
    assert khasminskii_delta(0.02, 1.0).N_delta == 26
    assert khasminskii_delta(0.005, 1.0).N_delta == 87


def test_block_schedule_domain():
    inv_e = math.exp(-1.0)
    with pytest.raises(DomainError):
        khasminskii_delta(inv_e, 1.0)
    with pytest.raises(DomainError):
        khasminskii_delta(0.5, 1.0)
    with pytest.raises(DomainError):
        khasminskii_delta(0.0, 1.0)
    with pytest.raises(DomainError):
        khasminskii_delta(0.01, -1.0)
    # Just inside the admissible range still works.
    sch = khasminskii_delta(inv_e * 0.999, 1.0)
    assert sch.delta > 0.0


def test_block_schedule_invariants_randomized():
    """eps/delta_raw < 1, snap shortens, and N*delta rebuilds tau exactly."""
    rng = np.random.default_rng(2718)
    for _ in range(100):
        eps = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.3))))
        tau = float(rng.uniform(0.25, 4.0))
        sch = khasminskii_delta(eps, tau)
        assert 0.0 < eps / sch.delta_raw < 1.0
        assert sch.delta <= sch.delta_raw * (1.0 + 1e-12)
        assert sch.N_delta == math.ceil(tau / sch.delta_raw)
        assert sch.N_delta * sch.delta == pytest.approx(tau, rel=1e-12)


def _manual_schedule(epsilon, delta, tau=1.0):
    # Hand-built block length for grid-exactness tests.
    return DeltaSchedule(epsilon=epsilon, delta_raw=delta, delta=delta,
                         N_delta=int(round(tau / delta)))


def test_auxiliary_coupled_part_matches_direct_run():
    """The pair's first member replays simulate_coupled bit for bit."""
    spec = linear_benchmark(BENCH)
    h = 1.0 / 160.0
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    sch = _manual_schedule(0.1, 0.25)
    pair = simulate_auxiliary(spec, xi, eta, 0.1, sch, g,
                              NoiseStream(8, 0, W1), NoiseStream(8, 0, W2))
    x, y = simulate_coupled(spec, xi, eta, 0.1, g,
                            NoiseStream(8, 0, W1), NoiseStream(8, 0, W2))
    assert np.array_equal(pair.x, x)
    assert np.array_equal(pair.y, y)


def test_auxiliary_resets_are_bit_exact():
    spec = linear_benchmark(BENCH)
    h = 1.0 / 160.0
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    sch = _manual_schedule(0.1, 0.125)
    pair = simulate_auxiliary(spec, xi, eta, 0.1, sch, g,
                              NoiseStream(9, 0, W1), NoiseStream(9, 0, W2))
    delta_steps = int(round(sch.delta / h))
    expect = [g.tau_steps + k for k in range(0, g.steps, delta_steps)]
    assert pair.reset_indices.tolist() == expect
    y = pair.y
    yt = pair.y_aux
    audit = max(float(np.abs(yt[i] - y[i]).max()) for i in pair.reset_indices)
    assert audit == 0.0
    # Between resets the auxiliary drifts away, so the paths are not equal.
    assert not np.array_equal(y, yt)


def test_auxiliary_pass_reports_its_divergence():
    """The frozen pass labels a blow-up as the auxiliary pair's."""
    spec = linear_benchmark(BENCH)
    h = 1.0 / 160.0
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    dw1 = np.zeros((g.steps, 1))
    dwf = np.zeros((g.steps, 1))
    x, y, _ = _coupled_core(spec, xi, eta, 0.1, g, dw1, dwf)
    # A true slow window far past the cap drives a11 * chi(0) * h out of range.
    huge = np.full_like(x, 1e16)
    with pytest.raises(DivergenceError, match="auxiliary slow component diverged") as info:
        _coupled_core(spec, xi, eta, 0.1, g, dw1, dwf, freeze=(huge, y, 20))
    assert info.value.step_index == 0


def test_auxiliary_slow_gap_shrinks_with_epsilon():
    spec = linear_benchmark(BENCH)
    gaps = {}
    for eps, h in ((0.05, 1.0 / 240.0), (0.005, 1.0 / 2001.0)):
        g = make_grid(T=1.0, h=h, tau=1.0)
        xi = constant_segment(1.0, h, 1.0)
        eta = constant_segment(1.0, h, 0.0)
        sch = khasminskii_delta(eps, 1.0)
        vals = []
        for p in range(4):
            pair = simulate_auxiliary(spec, xi, eta, eps, sch, g,
                                      NoiseStream(5, p, W1), NoiseStream(5, p, W2))
            vals.append(sup_distance(pair.x, pair.x_aux, g))
        gaps[eps] = float(np.mean(vals))
    assert gaps[0.005] < 0.5 * gaps[0.05]


def test_auxiliary_validation():
    spec = linear_benchmark(BENCH)
    h = 0.01
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    sch = _manual_schedule(0.05, 0.25)
    with pytest.raises(DomainError):
        simulate_auxiliary(spec, xi, eta, 1.5, sch, g,
                           NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
    with pytest.raises(DomainError, match="stability"):
        simulate_auxiliary(spec, xi, eta, 0.05, sch, g,
                           NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))


def test_averaged_deterministic_endpoint():
    """Noise off: the averaged path is the explicit contraction recursion."""
    params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.0,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.001
    g = make_grid(T=1.0, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    xbar = simulate_averaged(spec, xi, closed_form_drift(spec), g,
                             NoiseStream(0, 0, W1))
    ref = np.array([1.0])
    zero = np.zeros((1, 1)) @ np.zeros(1)
    for _ in range(g.steps):
        ref = ref + (params.kappa * ref) * h + zero
    assert xbar[-1, 0] == ref[0]
    assert abs(xbar[-1, 0] - np.exp(params.kappa)) < 2e-3


def test_averaged_tracks_coupled_run_on_shared_noise():
    spec = linear_benchmark(BENCH)
    h = 0.001
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    x, _ = simulate_coupled(spec, xi, eta, 0.01, g,
                            NoiseStream(11, 0, W1), NoiseStream(11, 0, W2))
    xbar = simulate_averaged(spec, xi, closed_form_drift(spec), g,
                             NoiseStream(11, 0, W1))
    assert sup_distance(x, xbar, g) < 0.05


def test_averaged_stationary_statistics():
    """Endpoint mean and variance against the discrete closed forms."""
    params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.5,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.004
    g = make_grid(T=1.0, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    drift = closed_form_drift(spec)
    n_paths = 1500
    ends = np.array([
        simulate_averaged(spec, xi, drift, g, NoiseStream(1234, i, W1))[-1, 0]
        for i in range(n_paths)
    ])
    a = 1.0 + params.kappa * h
    K = g.steps
    mean_oracle = a ** K
    var_oracle = params.s1 ** 2 * h * (1.0 - a ** (2 * K)) / (1.0 - a * a)
    se_mean = np.sqrt(var_oracle / n_paths)
    assert abs(ends.mean() - mean_oracle) < 4.0 * se_mean
    assert abs(ends.var(ddof=1) - var_oracle) < 0.1 * var_oracle


def test_closed_form_drift_requires_benchmark():
    plain = SystemSpec(n=1, m=1, tau=1.0,
                       b1=lambda c, p: np.zeros(1),
                       sigma1=lambda c: np.zeros((1, 1)),
                       b2=lambda c, y, yt: -y,
                       sigma2=lambda c, y, yt: np.zeros((1, 1)))
    with pytest.raises(UsageError):
        closed_form_drift(plain)
    with pytest.raises(UsageError):
        simulate_averaged(plain, constant_segment(1.0, 0.5, 0.0), "not callable",
                          make_grid(1.0, 0.5, 1.0), NoiseStream(0, 0, W1))


def test_estimated_drift_source_accuracy_and_cache():
    spec = linear_benchmark(BENCH)
    budget = DriftEstimatorBudget(burn_in=5.0, horizon=20.0, replicas=4)
    src = EstimatedDriftSource(spec, budget, sub_h=0.01, seed=77)
    zeta = constant_segment(1.0, 0.01, 1.0).values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v1 = src(zeta)
        # No memo: the same window is simulated again, from the same sub-seed.
        v2 = src(zeta)
    tol = max(3.5 * src.max_std_error, 0.03)
    assert abs(float(v1[0]) - BENCH.kappa) < tol
    assert np.array_equal(v1, v2)
    assert (src.calls, src.cache_misses) == (2, 2)


def test_estimated_drift_source_is_reproducible():
    spec = linear_benchmark(BENCH)
    budget = DriftEstimatorBudget(burn_in=3.0, horizon=8.0, replicas=3)
    zeta = constant_segment(1.0, 0.02, -0.5).values
    outs = []
    for _ in range(2):
        src = EstimatedDriftSource(spec, budget, sub_h=0.02, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outs.append(src(zeta).copy())
    assert np.array_equal(outs[0], outs[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        other = EstimatedDriftSource(spec, budget, sub_h=0.02, seed=10)(zeta)
    assert not np.array_equal(outs[0], other)


def test_estimator_route_agrees_with_closed_form_route():
    """Integrate the averaged equation through both drift sources on one stream."""
    spec = linear_benchmark(BENCH)
    budget = DriftEstimatorBudget(burn_in=3.0, horizon=8.0, replicas=3)
    src = EstimatedDriftSource(spec, budget, sub_h=0.02, seed=55)
    h = 0.01
    g = make_grid(T=0.3, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        by_estimate = simulate_averaged(spec, xi, src, g, NoiseStream(31, 0, W1))
    by_formula = simulate_averaged(spec, xi, closed_form_drift(spec), g,
                                   NoiseStream(31, 0, W1))
    # Shared W1 cancels the noise; what is left is the drift estimate error
    # integrated over [0, T].
    assert sup_distance(by_estimate, by_formula, g) < 0.05
    # One sub-simulation per step of the averaged equation.
    assert src.calls == src.cache_misses == g.steps
