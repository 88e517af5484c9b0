import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from twoscale.errors import DegenerateFitError, DomainError, UsageError
from twoscale.frozen import (
    estimate_averaged_drift,
    mixing_decay,
    simulate_frozen,
)
from twoscale.noise import W2, NoiseStream, StreamFactory
from twoscale.segment import constant_segment
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
    zeta = constant_segment(1.0, h, 7.0).values  # ignored by this b2
    eta = constant_segment(1.0, h, 1.0)
    y = simulate_frozen(spec, zeta, eta, g, NoiseStream(0, 0, W2))
    end = float(y[-1, 0])
    assert abs(end - np.exp(-5.0)) < 5e-4


def test_simulate_frozen_reads_pinned_window():
    # b2 = chi(0) - y: stationary point is zeta's endpoint.
    spec = SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: np.zeros(1),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: chi[-1] - y,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )
    h = 0.01
    g = make_grid(T=8.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 3.0).values
    eta = constant_segment(1.0, h, 0.0)
    y = simulate_frozen(spec, zeta, eta, g, NoiseStream(0, 0, W2))
    assert abs(float(y[-1, 0]) - 3.0) < 1e-3
    with pytest.raises(UsageError):
        simulate_frozen(spec, constant_segment(1.0, h, np.zeros(2)).values, eta, g,
                        NoiseStream(0, 0, W2))


def test_averaged_drift_exact_when_fast_independent():
    """b1 ignoring the fast window makes the time average collapse exactly."""
    params = LinearBenchmarkParams(a11=-2.0, a12=0.0, s1=0.1,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.02
    g = make_grid(T=12.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 1.5).values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_averaged_drift(spec, zeta, 2.0, 10.0, 3, g, StreamFactory(1))
    assert est.value[0] == pytest.approx(-3.0, abs=1e-12)
    assert est.std_error[0] == pytest.approx(0.0, abs=1e-12)


def test_averaged_drift_matches_benchmark_closed_form():
    spec = linear_benchmark(BENCH)
    h = 0.01
    g = make_grid(T=38.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 1.0).values
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
    zeta = constant_segment(1.0, h, 0.0).values
    with pytest.warns(UserWarning, match="burn_in"):
        estimate_averaged_drift(spec, zeta, 1.0, 4.0, 2, g, StreamFactory(0))


def test_averaged_drift_budget_validation():
    spec = linear_benchmark(BENCH)
    h = 0.05
    g = make_grid(T=6.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 0.0).values
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
    zeta = constant_segment(1.0, h, 0.0).values
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
    zeta = constant_segment(1.0, h, 1.0).values
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
    zeta = constant_segment(1.0, h, 1.0).values
    eta = constant_segment(1.0, h, 0.5)
    with pytest.raises(DegenerateFitError):
        mixing_decay(spec, zeta, eta, eta, g, 8, StreamFactory(0))


def test_mixing_decay_input_validation():
    h = 0.05
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 0.0).values
    eta = constant_segment(1.0, h, 1.0)
    etap = constant_segment(1.0, h, 0.0)
    with pytest.raises(UsageError, match="replicas"):
        mixing_decay(spec, zeta, eta, etap, make_grid(5.0, h, 1.0), 4, StreamFactory(0))
    with pytest.raises(UsageError, match="delay spans"):
        mixing_decay(spec, zeta, eta, etap, make_grid(2.0, h, 1.0), 8, StreamFactory(0))
