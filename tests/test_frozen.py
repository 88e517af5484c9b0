import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from twoscale.errors import DegenerateFitError, DomainError, UsageError
from twoscale.frozen import (
    estimate_averaged_drift,
    mixing_decay,
    simulate_frozen,
    wasserstein2_truncated,
)
from twoscale.noise import W2, NoiseStream, StreamFactory
from twoscale.segment import Segment, constant_segment
from twoscale.solver import make_grid
from twoscale.systems import LinearBenchmarkParams, SystemSpec, linear_benchmark

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)



def _pure_decay_spec():
    return SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: np.zeros(1),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: -y,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )


def test_simulate_frozen_deterministic_decay():
    h = 0.005
    g = make_grid(T=5.0, h=h, tau=1.0)
    spec = _pure_decay_spec()
    zeta = constant_segment(1.0, h, 7.0)  # ignored by this b2
    eta = constant_segment(1.0, h, 1.0)
    bundle = simulate_frozen(spec, zeta, eta, g, NoiseStream(0, 0, W2))
    end = float(bundle.endpoint("fast")[0])
    assert abs(end - np.exp(-5.0)) < 5e-4
    assert bundle.labels == ("Yzeta",)


def test_simulate_frozen_reads_pinned_window():
    # b2 = chi(0) - y: stationary point is zeta's endpoint.
    spec = SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: np.zeros(1),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: chi.values[-1] - y,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )
    h = 0.01
    g = make_grid(T=8.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 3.0)
    eta = constant_segment(1.0, h, 0.0)
    bundle = simulate_frozen(spec, zeta, eta, g, NoiseStream(0, 0, W2))
    assert abs(float(bundle.endpoint("fast")[0]) - 3.0) < 1e-3
    with pytest.raises(UsageError):
        simulate_frozen(spec, constant_segment(1.0, h, np.zeros(2)), eta, g,
                        NoiseStream(0, 0, W2))


def test_averaged_drift_exact_when_fast_independent():
    """b1 ignoring the fast window makes the time average collapse exactly."""
    params = LinearBenchmarkParams(a11=-2.0, a12=0.0, s1=0.1,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.02
    g = make_grid(T=12.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_averaged_drift(spec, zeta, 2.0, 10.0, 3, g, StreamFactory(1))
    assert est.value[0] == pytest.approx(-3.0, abs=1e-12)
    assert est.std_error[0] == pytest.approx(0.0, abs=1e-12)
    assert est.replicas == 3


def test_averaged_drift_matches_benchmark_closed_form():
    spec = linear_benchmark(BENCH)
    h = 0.01
    g = make_grid(T=38.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_averaged_drift(spec, zeta, 8.0, 30.0, 6, g, StreamFactory(5))
    target = BENCH.kappa  # -1/3 for these parameters
    tol = max(3.5 * float(est.std_error[0]), 0.03)
    assert abs(float(est.value[0]) - target) < tol


def test_averaged_drift_warns_on_short_burn_in():
    spec = linear_benchmark(BENCH)
    h = 0.05
    g = make_grid(T=6.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 0.0)
    with pytest.warns(UserWarning, match="burn_in"):
        estimate_averaged_drift(spec, zeta, 1.0, 4.0, 2, g, StreamFactory(0))


def test_averaged_drift_budget_validation():
    spec = linear_benchmark(BENCH)
    h = 0.05
    g = make_grid(T=6.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 0.0)
    with pytest.raises(UsageError):
        estimate_averaged_drift(spec, zeta, 5.0, 4.0, 0, g, StreamFactory(0))
    with pytest.raises(DomainError):
        estimate_averaged_drift(spec, zeta, 5.0, -1.0, 2, g, StreamFactory(0))
    with pytest.raises(UsageError):
        # burn_in + horizon overruns the grid.
        estimate_averaged_drift(spec, zeta, 5.0, 4.0, 2, g, StreamFactory(0))


def test_mixing_decay_pure_contraction_rate():
    """b2 = -y with no noise: squared gap decays at rate 2 exactly."""
    h = 0.01
    g = make_grid(T=5.0, h=h, tau=1.0)
    spec = _pure_decay_spec()
    zeta = constant_segment(1.0, h, 0.0)
    fit = mixing_decay(spec, zeta,
                       constant_segment(1.0, h, 1.0),
                       constant_segment(1.0, h, 0.0),
                       g, 8, StreamFactory(3))
    assert abs(fit.fitted_rate - 2.0) < 0.05
    assert fit.r_squared > 0.999
    assert len(fit.times) == 5


def test_mixing_decay_benchmark_rate_near_root():
    h = 0.005
    g = make_grid(T=8.0, h=h, tau=1.0)
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 1.0)
    fit = mixing_decay(spec, zeta,
                       constant_segment(1.0, h, 0.0),
                       constant_segment(1.0, h, 1.0),
                       g, 8, StreamFactory(21))
    assert fit.r_squared >= 0.98
    # The synchronously coupled gap of the linear fast equation solves
    # g' = -c2 g + c3 g(t - tau), so its square decays at 2 mu with
    # mu = c2 - c3 e^mu (1.68168 for BENCH).
    mu = brentq(lambda r: r + BENCH.c3 * np.exp(r) - BENCH.c2, 0.0, BENCH.c2)
    assert 0.95 * 2.0 * mu < fit.fitted_rate < 1.05 * 2.0 * mu


def test_mixing_decay_identical_starts_degenerate():
    h = 0.01
    g = make_grid(T=5.0, h=h, tau=1.0)
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.5)
    with pytest.raises(DegenerateFitError):
        mixing_decay(spec, zeta, eta, eta, g, 8, StreamFactory(0))


def test_mixing_decay_input_validation():
    h = 0.05
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 0.0)
    eta = constant_segment(1.0, h, 1.0)
    etap = constant_segment(1.0, h, 0.0)
    with pytest.raises(UsageError, match="replicas"):
        mixing_decay(spec, zeta, eta, etap, make_grid(5.0, h, 1.0), 4, StreamFactory(0))
    with pytest.raises(UsageError, match="delay spans"):
        mixing_decay(spec, zeta, eta, etap, make_grid(2.0, h, 1.0), 8, StreamFactory(0))


def _const_seg(v):
    return constant_segment(1.0, 0.5, v)


def test_wasserstein_singleton_hand_values():
    # Gap 5 truncates to 1; gap 0.25 passes through.
    assert wasserstein2_truncated([_const_seg(0.0)], [_const_seg(5.0)]) == 1.0
    assert wasserstein2_truncated([_const_seg(0.0)], [_const_seg(0.25)]) == 0.25
    assert wasserstein2_truncated([_const_seg(1.0)], [_const_seg(1.0)]) == 0.0


def test_wasserstein_two_point_assignment():
    a = [_const_seg(0.0), _const_seg(1.0)]
    b = [_const_seg(0.1), _const_seg(1.0)]
    # Optimal pairing matches 0 with 0.1: cost (0.01 + 0) / 2.
    assert wasserstein2_truncated(a, b) == pytest.approx(np.sqrt(0.005))


def _brute_force_w2(a, b):
    n = len(a)
    av = np.stack([s.values for s in a])
    bv = np.stack([s.values for s in b])
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            gap = np.abs(av[i] - bv[j]).max() if av.shape[2] == 1 else \
                np.sqrt(((av[i] - bv[j]) ** 2).sum(axis=1)).max()
            total += min(1.0, float(gap)) ** 2
        best = min(best, total)
    return float(np.sqrt(best / n))


def test_wasserstein_matches_permutation_enumeration():
    """Assignment solver against brute force over all pairings, N <= 6."""
    rng = np.random.default_rng(808)
    tau, h = 1.0, 0.25
    steps = 4
    for trial in range(30):
        n = int(rng.integers(2, 7))
        a = [Segment(tau, h, 0.8 * rng.standard_normal(steps + 1)) for _ in range(n)]
        b = [Segment(tau, h, 0.8 * rng.standard_normal(steps + 1)) for _ in range(n)]
        fast = wasserstein2_truncated(a, b)
        slow = _brute_force_w2(a, b)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_wasserstein_metric_axioms_randomized():
    rng = np.random.default_rng(1213)
    tau, h = 1.0, 0.25
    steps = 4
    for trial in range(40):
        n = int(rng.integers(1, 6))
        mk = lambda: [Segment(tau, h, rng.standard_normal(steps + 1))
                      for _ in range(n)]
        a, b, c = mk(), mk(), mk()
        dab = wasserstein2_truncated(a, b)
        dba = wasserstein2_truncated(b, a)
        assert dab == dba  # exactly, by sorted-cost summation
        assert wasserstein2_truncated(a, a) == 0.0
        dac = wasserstein2_truncated(a, c)
        dbc = wasserstein2_truncated(b, c)
        assert dac <= dab + dbc + 1e-12
        assert 0.0 <= dab <= 1.0  # truncation bounds the distance


def test_wasserstein_input_validation():
    a = [_const_seg(0.0)]
    with pytest.raises(UsageError):
        wasserstein2_truncated(a, [_const_seg(0.0), _const_seg(1.0)])
    with pytest.raises(UsageError):
        wasserstein2_truncated([], [])
    with pytest.raises(UsageError):
        wasserstein2_truncated(a, [constant_segment(1.0, 0.25, 0.0)])  # h differs
    big = [_const_seg(0.0)] * 257
    with pytest.raises(UsageError):
        wasserstein2_truncated(big, big)
