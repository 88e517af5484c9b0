import warnings

import numpy as np
import pytest

from twoscale.errors import DivergenceError, DomainError, UsageError
from twoscale.averaging import simulate_averaged
from twoscale.frozen import estimate_averaged_drift, simulate_frozen
from twoscale.noise import W1, W2, NoiseStream, StreamFactory, fast_increments, gaussian_increments
from twoscale.segment import Segment, constant_segment
from twoscale.solver import (
    DIVERGENCE_CAP,
    TimeGrid,
    fast_lag_steps,
    make_grid,
    simulate_coupled,
    simulate_sdde,
)
from twoscale.systems import (
    LinearBenchmarkParams,
    SystemSpec,
    build_system,
    linear_benchmark,
    register_system,
)

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def _const(grid, value):
    return constant_segment(grid.tau, grid.h, value)


def test_make_grid_and_index_of():
    g = make_grid(T=1.0, h=0.25, tau=0.5)
    assert (g.steps, g.tau_steps, g.total) == (4, 2, 7)
    assert g.tau == 0.5
    assert np.allclose(g.times(), [-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.index_of(0.0) == 2
    assert g.index_of(-0.5) == 0
    assert g.index_of(1.0) == 6
    with pytest.raises(UsageError):
        g.index_of(0.1)  # off grid
    with pytest.raises(DomainError):
        g.index_of(1.25)
    with pytest.raises(DomainError):
        make_grid(T=1.0, h=0.3, tau=0.6)


def test_fast_lag_steps_snapping():
    g = make_grid(T=1.0, h=0.01, tau=1.0)
    assert fast_lag_steps(1.0, g) == g.tau_steps
    assert fast_lag_steps(0.1, g) == 10
    assert fast_lag_steps(0.05, g) == 5
    # Below one step the lag clamps to a single step.
    assert fast_lag_steps(0.001, g) == 1


def test_coupled_replay_is_bit_identical():
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.5, h=0.005, tau=1.0)
    xi = _const(g, 1.0)
    eta = _const(g, 0.0)

    def run():
        return simulate_coupled(spec, xi, eta, 0.1, g,
                                NoiseStream(42, 0, W1), NoiseStream(42, 0, W2))

    (xa, ya), (xb, yb) = run(), run()
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)


def test_epsilon_one_matches_hand_assembled_recursion():
    """At epsilon = 1 the pair is a plain SDDE system; rebuild it by hand."""
    spec = linear_benchmark(BENCH)
    h = 0.1
    g = make_grid(T=1.0, h=h, tau=1.0)
    xi = _const(g, 1.0)
    eta = _const(g, 0.5)
    x_run, y_run = simulate_coupled(spec, xi, eta, 1.0, g,
                                    NoiseStream(7, 3, W1), NoiseStream(7, 3, W2))

    dw1 = gaussian_increments(NoiseStream(7, 3, W1), g.steps, h)
    dwf = fast_increments(NoiseStream(7, 3, W2), g.steps, h, 1.0)
    ts = g.tau_steps
    s1 = np.array([[BENCH.s1]])
    s2 = np.array([[BENCH.s2]])
    x = np.empty((g.total, 1))
    y = np.empty((g.total, 1))
    x[: ts + 1] = 1.0
    y[: ts + 1] = 0.5
    for k in range(g.steps):
        i = ts + k
        bx = BENCH.a11 * x[i] + BENCH.a12 * y[i]
        by = BENCH.c1 * x[i] - BENCH.c2 * y[i] + BENCH.c3 * y[i - ts]
        x[i + 1] = x[i] + bx * h + s1 @ dw1[k]
        y[i + 1] = y[i] + by * h + s2 @ dwf[k]

    assert np.array_equal(x_run, x)
    assert np.array_equal(y_run, y)


def test_noise_free_coupled_converges_under_refinement():
    """Deterministic two-scale pair: halving h roughly halves the endpoint error."""
    params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.0,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.0)
    spec = linear_benchmark(params)
    eps = 0.1

    def endpoint(h):
        g = make_grid(T=1.0, h=h, tau=1.0)
        x, _ = simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), eps, g,
                                NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
        return float(x[-1, 0])

    ref = endpoint(0.001)
    e1 = abs(endpoint(0.01) - ref)
    e2 = abs(endpoint(0.005) - ref)
    assert e1 > e2 > 0.0
    ratio = e1 / e2
    assert 1.3 < ratio < 3.5  # first order in h, with slack for the 1/eps stiffness


def test_sdde_linear_decay_endpoint():
    h = 0.001
    g = make_grid(T=1.0, h=h, tau=0.1)
    xi = _const(g, 1.0)

    path = simulate_sdde(
        1, 1,
        lambda window: -window[-1],
        lambda window: np.zeros((1, 1)),
        xi, g, NoiseStream(1, 0, W1),
    )
    # Reference: the identical float recursion, then the continuous limit.
    ref = np.array([1.0])
    for _ in range(g.steps):
        ref = ref + (-ref) * h + np.zeros((1, 1)) @ np.zeros(1) * np.sqrt(h)
    assert path[-1, 0] == ref[0]
    assert abs(path[-1, 0] - np.exp(-1.0)) < 2e-3


def test_sdde_pure_noise_collapses_to_cumsum():
    # Zero drift, unit diffusion: the path is xi(0) plus summed increments.
    h = 0.01
    g = make_grid(T=1.0, h=h, tau=0.2)
    xi = _const(g, 2.0)
    path = simulate_sdde(
        1, 1,
        lambda window: np.zeros(1),
        lambda window: np.eye(1),
        xi, g, NoiseStream(31, 0, W1),
    )
    dw = gaussian_increments(NoiseStream(31, 0, W1), g.steps, h)
    expect = 2.0 + np.concatenate([[0.0], np.cumsum(dw[:, 0])])
    assert np.allclose(path[g.tau_steps:, 0], expect, rtol=0, atol=1e-12)


def test_sdde_delayed_drift_reads_window_start():
    # drift(window) = -window(-tau): constant history makes the first tau
    # of the run integrate dx/dt = -1 exactly.
    h = 0.05
    g = make_grid(T=0.5, h=h, tau=0.5)
    xi = _const(g, 1.0)
    path = simulate_sdde(
        1, 1,
        lambda window: -window[0],
        lambda window: np.zeros((1, 1)),
        xi, g, NoiseStream(0, 0, W1),
    )
    times = np.arange(g.steps + 1) * h
    assert np.allclose(path[g.tau_steps:, 0], 1.0 - times, atol=1e-12)


def test_moment_bound_uniform_over_epsilon():
    """E sup |X|^2 stays bounded as epsilon shrinks (no stiffness blow-up)."""
    spec = linear_benchmark(BENCH)
    worst = 0.0
    for eps in (0.2, 0.1, 0.05):
        g = make_grid(T=0.5, h=0.005, tau=1.0)
        sups = []
        for path in range(8):
            x, _ = simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), eps, g,
                                    NoiseStream(99, path, W1), NoiseStream(99, path, W2))
            sups.append(float(np.abs(x[g.tau_steps:, 0]).max()))
        worst = max(worst, float(np.mean(np.square(sups))))
    assert worst < 5.0


def test_stability_cap_enforced():
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.5, h=0.05, tau=1.0)
    xi, eta = _const(g, 1.0), _const(g, 0.0)
    with pytest.raises(DomainError, match="stability cap"):
        simulate_coupled(spec, xi, eta, 0.1, g,
                         NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
    # Same h is fine for epsilon = 1.
    simulate_coupled(spec, xi, eta, 1.0, g,
                     NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
    with pytest.raises(DomainError):
        simulate_coupled(spec, xi, eta, 1.5, g,
                         NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
    with pytest.raises(DomainError):
        simulate_coupled(spec, xi, eta, 0.0, g,
                         NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))


def test_input_compatibility_checks():
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.5, h=0.05, tau=1.0)
    other = constant_segment(1.0, 0.1, 1.0)  # wrong h
    with pytest.raises(UsageError):
        simulate_coupled(spec, other, _const(g, 0.0), 1.0, g,
                         NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
    wide = NoiseStream(0, 0, W1, m=2)
    with pytest.raises(UsageError):
        simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), 1.0, g,
                         wide, NoiseStream(0, 0, W2))


def test_divergence_error_carries_context():
    # Cubic fast drift with a start above the basin: blows up in a few steps.
    spec = SystemSpec(
        n=1, m=1, tau=0.5,
        b1=lambda chi, phi: np.zeros(1),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: y ** 3,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )
    g = make_grid(T=1.0, h=0.005, tau=0.5)
    with pytest.raises(DivergenceError) as info:
        simulate_coupled(spec, _const(g, 0.0), _const(g, 2.0), 0.05, g,
                         NoiseStream(0, 0, W1), NoiseStream(0, 0, W2))
    err = info.value
    assert err.step_index < 20
    assert err.time == pytest.approx((err.step_index + 1) * g.h)
    assert np.isfinite(err.last_state).all()
    assert np.abs(err.last_state).max() <= DIVERGENCE_CAP


def test_maps_receive_window_arrays():
    """Maps and drift sources read (tau_steps + 1, n) arrays whose last row is now."""
    seen = []

    def record(name, window):
        seen.append((name, type(window), np.array(window)))

    def factory():
        def b1(chi, phi):
            record("chi", chi)
            record("phi", phi)
            return -chi[-1] + 0.5 * phi[-1]

        def sigma1(chi):
            record("sigma1", chi)
            return np.full((2, 1), 0.1)

        def b2(chi, y, y_tau):
            record("b2", chi)
            return chi[-1] - y + 0.25 * y_tau

        def sigma2(chi, y, y_tau):
            record("sigma2", chi)
            return np.full((2, 1), 0.2)

        return SystemSpec(n=2, m=1, tau=0.5, b1=b1, sigma1=sigma1, b2=b2, sigma2=sigma2)

    register_system("recording_maps", factory, replace=True)
    spec = build_system({"kind": "registered", "name": "recording_maps"})
    g = make_grid(T=0.25, h=0.025, tau=0.5)
    ts = g.tau_steps
    xi = constant_segment(g.tau, g.h, [1.0, -1.0])
    eta = constant_segment(g.tau, g.h, [0.5, 0.0])

    def calls(name):
        rows = [(kind, w) for n, kind, w in seen if n == name]
        assert rows and all(kind is np.ndarray for kind, _ in rows)
        return [w for _, w in rows]

    x, y = simulate_coupled(spec, xi, eta, 0.5, g, NoiseStream(3, 0, W1), NoiseStream(3, 0, W2))
    for name in ("chi", "phi", "sigma1", "b2", "sigma2"):
        windows = calls(name)
        assert len(windows) == g.steps
        assert all(w.shape == (ts + 1, 2) for w in windows)
    for k, (chi, phi) in enumerate(zip(calls("chi"), calls("phi"))):
        assert np.array_equal(chi, x[k: ts + k + 1])
        assert np.array_equal(chi[-1], x[ts + k])
        assert np.array_equal(phi[-1], y[ts + k])

    seen.clear()

    def drift(window):
        record("drift", window)
        return -window[-1]

    xbar = simulate_averaged(spec, xi, drift, g, NoiseStream(3, 0, W1))
    windows = calls("drift")
    assert len(windows) == g.steps
    for k, w in enumerate(windows):
        assert w.shape == (ts + 1, 2)
        assert np.array_equal(w[-1], xbar[ts + k])

    seen.clear()
    sub = make_grid(T=0.5, h=0.05, tau=0.5)
    zeta = xi.values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # burn_in below 5 tau
        estimate_averaged_drift(spec, zeta, 0.25, 0.25, 1, sub, StreamFactory(4))
    chis, phis = calls("chi"), calls("phi")
    assert all(np.array_equal(c, zeta) for c in chis)
    assert all(p.shape == (sub.tau_steps + 1, 2) for p in phis)
    # b1 reads the frozen path's windows over [burn_in, burn_in + horizon].
    yf = simulate_frozen(spec, zeta, constant_segment(sub.tau, sub.h, np.zeros(2)), sub,
                         StreamFactory(4).stream(0, W2))
    k_burn = 5
    assert len(phis) == 6
    for j, phi in enumerate(phis):
        assert np.array_equal(phi[-1], yf[sub.tau_steps + k_burn + j])
