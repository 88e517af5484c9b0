import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from twoscale.errors import DataError, DegenerateFitError, DivergenceError, DomainError, UsageError
from twoscale.frozen import (
    estimate_averaged_drift,
    mixing_decay,
    simulate_frozen,
)
from twoscale.noise import W2
from twoscale.segment import _node_norms, constant_segment
from twoscale.solver import make_grid
from twoscale.systems import LinearBenchmarkParams, SystemSpec, build_system, linear_benchmark
from conftest import brownian
import test_golden  # noqa: F401  (registers the n = 2 system "golden_plane")

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)



def _pure_decay_spec():
    return SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: np.zeros_like(chi[-1]),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: -y,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )


def test_simulate_frozen_deterministic_decay():
    h = 0.005
    g = make_grid(T=5.0, h=h, tau=1.0)
    spec = _pure_decay_spec()
    zeta = constant_segment(1.0, h, 7.0)[:, None]  # ignored by this b2
    eta = constant_segment(1.0, h, 1.0)
    y = simulate_frozen(spec, zeta, eta, g, brownian(0, [0], W2, g))
    end = float(y[-1, 0, 0])
    assert abs(end - np.exp(-5.0)) < 5e-4


def test_simulate_frozen_reads_pinned_window():
    # b2 = chi(0) - y: stationary point is zeta's endpoint.
    spec = SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: np.zeros_like(chi[-1]),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: chi[-1] - y,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )
    h = 0.01
    g = make_grid(T=8.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, 3.0)[:, None]
    eta = constant_segment(1.0, h, 0.0)
    y = simulate_frozen(spec, zeta, eta, g, brownian(0, [0], W2, g))
    assert abs(float(y[-1, 0, 0]) - 3.0) < 1e-3
    with pytest.raises(UsageError):
        simulate_frozen(spec, constant_segment(1.0, h, np.zeros(2))[:, None], eta, g,
                        brownian(0, [0], W2, g))


def test_simulate_frozen_hands_the_maps_zeta_and_both_fast_rows():
    """b2 and sigma2 get the pinned zeta itself, then rows i and i - tau_steps of the path."""
    seen = []

    def recorder(name, value):
        def fn(chi, y, y_tau):
            seen.append((name, chi, y.copy(), y_tau.copy()))
            return value(y, y_tau)
        return fn

    spec = SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: np.zeros_like(chi[-1]),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=recorder("b2", lambda y, y_tau: 0.5 * y_tau - y),
        sigma2=recorder("sigma2", lambda y, y_tau: np.array([[0.3]])),
    )
    h = 0.05
    g = make_grid(T=0.5, h=h, tau=1.0)
    ts = g.tau_steps
    zeta = np.linspace(1.0, 2.0, 2 * (ts + 1)).reshape(ts + 1, 2, 1)
    eta = np.linspace(-1.0, 1.0, ts + 1)[:, None]  # every row different
    y = simulate_frozen(spec, zeta, eta, g, brownian(0, range(2), W2, g))
    assert [name for name, *_ in seen] == ["b2", "sigma2"] * g.steps
    for j, (_, chi, now, lagged) in enumerate(seen):
        k = j // 2
        assert chi is zeta
        assert np.array_equal(now, y[ts + k]) and np.array_equal(lagged, y[k]), k


def switch_spec(threshold: float) -> SystemSpec:
    """Fast drift -y while zeta(0) <= threshold, 1 + y^3 (finite-time blow-up) above it."""
    return SystemSpec(
        n=1, m=1, tau=1.0,
        b1=lambda chi, phi: -chi[-1] + phi[-1],
        sigma1=lambda chi: np.array([[0.3]]),
        b2=lambda chi, y, yt: np.where(chi[-1] > threshold, 1.0 + y ** 3, -y),
        sigma2=lambda chi, y, yt: np.array([[0.3]]),
    )


def test_frozen_divergence_has_one_message():
    """simulate_frozen, mixing_decay and the estimator name a blow-up alike."""
    spec, h = switch_spec(0.0), 0.05
    zeta = constant_segment(1.0, h, 1.0)  # above the threshold: 1 + y^3 blows up
    eta = np.zeros((len(zeta), 1))
    g = make_grid(T=3.0, h=h, tau=1.0)
    runs = [lambda: simulate_frozen(spec, zeta[:, None], eta, g, brownian(0, [0], W2, g)),
            lambda: mixing_decay(spec, zeta, eta, eta + 1.0, h, 3, 8, 0),
            lambda: estimate_averaged_drift(spec, zeta[:, None], 2.0, 1.0, 1, h, [0])]
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # burn_in below 5 tau
            with pytest.raises(DivergenceError) as info:
                run()
        assert info.value.detail == ("frozen trajectory diverged; "
                                     "run check_dissipativity on this system")


def test_averaged_drift_reads_zeta_on_its_own_grid():
    """b1's chi is zeta at the estimator's nodes: a row of zeta where a node is one,
    the straight line between its two neighbouring rows elsewhere."""
    seen = []

    def b1(chi, phi):
        seen.append(np.array(chi))
        return -chi[-1] + phi[-1]

    spec = SystemSpec(n=1, m=1, tau=1.0, b1=b1, sigma1=lambda chi: np.array([[0.3]]),
                      b2=lambda chi, y, yt: -y, sigma2=lambda chi, y, yt: np.array([[0.3]]))
    rows = np.arange(5.0) ** 2  # zeta on the step 0.25; the estimator's is 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # burn_in below 5 tau
        estimate_averaged_drift(spec, rows[:, None, None], 0.0, 0.5, 1, 0.1, [0])
    [chi] = seen
    nodes = np.arange(11) * 0.4  # node j lies 4 j / 10 rows into zeta
    assert chi.shape == (11, 6, 1)
    for j in range(6):
        assert np.array_equal(chi[::5, j, 0], rows[::2])  # nodes 0, 5 and 10 are rows
        assert np.allclose(chi[:, j, 0], np.interp(nodes, np.arange(5.0), rows),
                           rtol=1e-15, atol=0.0)


def test_simulate_frozen_rejects_misshaped_zeta():
    spec = _pure_decay_spec()
    h = 0.05
    g = make_grid(T=1.0, h=h, tau=1.0)
    eta = np.zeros((g.tau_steps + 1, 1))
    dw2 = brownian(0, range(3), W2, g)
    for zeta in (np.zeros((g.tau_steps + 1, 2, 1)),   # two windows for three paths
                 np.zeros((g.tau_steps + 1, 3, 2)),   # wrong n
                 np.zeros((g.tau_steps + 1, 2)),
                 np.zeros((g.tau_steps + 1, 1)),  # one window: pass a batch, (M + 1, 3, 1)
                 np.zeros(g.tau_steps + 1)):
        with pytest.raises(UsageError) as info:
            simulate_frozen(spec, zeta, eta, g, dw2)
        assert str(zeta.shape) in str(info.value)
        assert "(M + 1, 3, 1)" in str(info.value)


def test_averaged_drift_exact_when_fast_independent():
    """b1 ignoring the fast window makes the time average collapse exactly."""
    params = LinearBenchmarkParams(a11=-2.0, a12=0.0, s1=0.1,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.02
    zeta = constant_segment(1.0, h, 1.5)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_averaged_drift(spec, zeta, 2.0, 10.0, 3, h, [1])
    assert est.value.shape == est.std_error.shape == (1, 1)
    assert est.value[0, 0] == pytest.approx(-3.0, abs=1e-12)
    assert est.std_error[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_averaged_drift_matches_benchmark_closed_form():
    spec = linear_benchmark(BENCH)
    h = 0.01
    zeta = constant_segment(1.0, h, 1.0)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_averaged_drift(spec, zeta, 8.0, 30.0, 6, h, [5])
    target = BENCH.kappa  # -1/3 for these parameters
    tol = max(3.5 * float(est.std_error[0, 0]), 0.03)
    assert abs(float(est.value[0, 0]) - target) < tol


def test_averaged_drift_warns_on_short_burn_in():
    spec = linear_benchmark(BENCH)
    h = 0.05
    zeta = constant_segment(1.0, h, 0.0)[:, None]
    with pytest.warns(UserWarning, match="burn_in"):
        estimate_averaged_drift(spec, zeta, 1.0, 4.0, 2, h, [0])


def test_averaged_drift_budget_validation():
    spec = linear_benchmark(BENCH)
    h = 0.05
    zeta = constant_segment(1.0, h, 0.0)[:, None]
    seeds = [0]
    with pytest.raises(UsageError):
        estimate_averaged_drift(spec, zeta, 5.0, 4.0, 0, h, seeds)
    with pytest.raises(UsageError, match="replicas must be an integer >= 1, got 1.5"):
        estimate_averaged_drift(spec, zeta, 1.0, 4.0, 1.5, h, seeds)
    with pytest.raises(DomainError):
        estimate_averaged_drift(spec, zeta, 5.0, -1.0, 2, h, seeds)
    with pytest.raises(DomainError, match="burn_in"):
        estimate_averaged_drift(spec, zeta, -1.0, 4.0, 2, h, seeds)
    with pytest.raises(UsageError, match="got none"):
        estimate_averaged_drift(spec, zeta[:, :0], 1.0, 4.0, 2, h, [])
    with pytest.raises(UsageError, match=r"\(21, 2, 1\)"):
        # Two windows, one seed.
        estimate_averaged_drift(spec, np.concatenate([zeta, zeta], axis=1), 1.0, 4.0, 2, h,
                                seeds)
    with pytest.raises(UsageError, match=r"\(21, 1\)"):
        # A lone (M + 1, n) window is not a batch.
        estimate_averaged_drift(spec, zeta[:, 0], 1.0, 4.0, 2, h, seeds)


def test_mixing_decay_pure_contraction_rate():
    """b2 = -y with no noise: squared gap decays at rate 2 exactly."""
    h = 0.01
    spec = _pure_decay_spec()
    zeta = constant_segment(1.0, h, 0.0)
    fit = mixing_decay(spec, zeta,
                       constant_segment(1.0, h, 1.0),
                       constant_segment(1.0, h, 0.0),
                       h, 5, 8, 3)
    assert abs(fit.fitted_rate - 2.0) < 0.05
    assert fit.r_squared > 0.999
    assert len(fit.times) == 5


def test_mixing_decay_benchmark_rate_near_root():
    h = 0.005
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 1.0)
    fit = mixing_decay(spec, zeta,
                       constant_segment(1.0, h, 0.0),
                       constant_segment(1.0, h, 1.0),
                       h, 8, 8, 21)
    assert fit.r_squared >= 0.98
    # The synchronously coupled gap of the linear fast equation solves
    # g' = -c2 g + c3 g(t - tau), so its square decays at 2 mu with
    # mu = c2 - c3 e^mu (1.68168 for BENCH).
    mu = brentq(lambda r: r + BENCH.c3 * np.exp(r) - BENCH.c2, 0.0, BENCH.c2)
    assert 0.95 * 2.0 * mu < fit.fitted_rate < 1.05 * 2.0 * mu


def test_mixing_decay_identical_starts_degenerate():
    h = 0.01
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.5)
    with pytest.raises(DegenerateFitError):
        mixing_decay(spec, zeta, eta, eta, h, 5, 8, 0)


def test_mixing_decay_input_validation():
    h = 0.05
    spec = linear_benchmark(BENCH)
    zeta = constant_segment(1.0, h, 0.0)
    eta = constant_segment(1.0, h, 1.0)
    etap = constant_segment(1.0, h, 0.0)
    with pytest.raises(UsageError, match="replicas"):
        mixing_decay(spec, zeta, eta, etap, h, 5, 4, 0)
    with pytest.raises(UsageError, match="integer replicas >= 8, got 8.5"):
        mixing_decay(spec, zeta, eta, etap, h, 5, 8.5, 0)
    with pytest.raises(UsageError, match="integer checkpoints >= 3, got 2"):
        mixing_decay(spec, zeta, eta, etap, h, 2, 8, 0)
    with pytest.raises(UsageError, match="integer checkpoints >= 3, got 3.5"):
        mixing_decay(spec, zeta, eta, etap, h, 3.5, 8, 0)


def test_mixing_decay_sums_replicas_in_order():
    """The batched gap reduction equals the replica-by-replica loop, bit for bit."""
    spec = build_system({"kind": "registered", "name": "golden_plane"})  # state-dependent noise
    h, replicas = 0.05, 24
    g = make_grid(T=4.0, h=h, tau=1.0)
    zeta = constant_segment(1.0, h, [1.0, -1.0])
    eta = constant_segment(1.0, h, [0.0, 0.0])
    eta_prime = constant_segment(1.0, h, [1.0, 0.5])
    fit = mixing_decay(spec, zeta, eta, eta_prime, h, 4, replicas, 7)

    zetas = np.broadcast_to(zeta[:, None], (len(zeta), replicas, 2))
    ya, yb = (simulate_frozen(spec, zetas, start, g,
                              brownian(7, range(replicas), W2, g, 2))
              for start in (eta, eta_prime))
    ts = g.tau_steps
    gaps = np.zeros(g.steps // ts)
    for r in range(replicas):
        node = _node_norms(ya[:, r] - yb[:, r])
        for j in range(1, len(gaps) + 1):
            a = ts + j * ts
            gaps[j - 1] += node[a - ts: a + 1].max() ** 2
    gaps /= replicas
    assert fit.log_gaps == np.log(gaps).tolist()


def _per_step_average(spec, zeta, burn_in, horizon, replicas, grid, seeds):
    """estimate_averaged_drift's (value, std_error) from one b1 call per averaged step."""
    ts, n, h = grid.tau_steps, spec.n, grid.h
    k_burn, k_len = round(burn_in / h), round(horizon / h)
    chi = np.repeat(zeta, replicas, axis=1)
    dw2 = np.concatenate([brownian(s, range(replicas), W2, grid, spec.m) for s in seeds], axis=1)
    y = simulate_frozen(spec, chi, np.zeros((ts + 1, n)), grid, dw2)
    acc = np.zeros((chi.shape[1], n))
    for k in range(k_burn, k_burn + k_len + 1):
        acc += spec.b1(chi, y[k: ts + k + 1])
    blocks = (acc / (k_len + 1)).reshape(len(seeds), replicas, n)
    return blocks.mean(axis=1), blocks.std(axis=1, ddof=1) / np.sqrt(replicas)


BENCH_SPEC = linear_benchmark(BENCH, tau=1.0)


def _negative_zero_spec():
    # b1 is -0.0 everywhere.  Summed from zero, as step by step, the time
    # average is +0.0; summed from its first value it would be -0.0, but
    # the replica mean turns both into +0.0, so only the values are compared.
    return SystemSpec(n=1, m=1, tau=1.0, b1=lambda chi, phi: -np.zeros_like(phi[-1]),
                      sigma1=BENCH_SPEC.sigma1, b2=BENCH_SPEC.b2, sigma2=BENCH_SPEC.sigma2)


@pytest.mark.parametrize("system", ["linear", "plane", "negative_zero"])
@pytest.mark.parametrize("horizon, batch, calls", [(5.0, 101, 8), (0.25, 8, 6)])
def test_time_average_matches_per_step_loop_bit_for_bit(system, horizon, batch, calls):
    """Bench shape (4 windows x 2 replicas, 101 steps): one b1 call per column; 6 steps: per step."""
    spec = {"linear": BENCH_SPEC, "negative_zero": _negative_zero_spec(),
            "plane": build_system({"kind": "registered", "name": "golden_plane"})}[system]
    grid = make_grid(T=5.0 + horizon, h=0.05, tau=1.0)
    zeta = np.random.default_rng(3).standard_normal((grid.tau_steps + 1, 4, spec.n))
    seeds = [11 + p for p in range(4)]
    seen = []

    def b1(chi, phi):
        seen.append(chi.shape[1])
        return spec.b1(chi, phi)

    counted = SystemSpec(n=spec.n, m=spec.m, tau=1.0, b1=b1, sigma1=spec.sigma1,
                         b2=spec.b2, sigma2=spec.sigma2)
    est = estimate_averaged_drift(counted, zeta, 5.0, horizon, 2, grid.h, seeds)
    value, std_error = _per_step_average(spec, zeta, 5.0, horizon, 2, grid, seeds)
    assert seen == [batch] * calls
    assert est.value.tobytes() == value.tobytes()
    assert est.std_error.tobytes() == std_error.tobytes()
    if system == "negative_zero":
        assert not np.signbit(est.value).any()


@pytest.mark.parametrize("horizon", [5.0, 0.25])
def test_time_average_rejects_misshaped_b1(horizon):
    """A b1 that drops the state axis is a DataError in either loop order."""
    spec = SystemSpec(n=1, m=1, tau=1.0, b1=lambda chi, phi: phi[-1, :, 0],
                      sigma1=BENCH_SPEC.sigma1, b2=BENCH_SPEC.b2, sigma2=BENCH_SPEC.sigma2)
    grid = make_grid(T=5.0 + horizon, h=0.05, tau=1.0)
    zeta = np.zeros((grid.tau_steps + 1, 4, 1))
    with pytest.raises(DataError, match=r"b1 returned shape \(\d+,\)"):
        estimate_averaged_drift(spec, zeta, 5.0, horizon, 2, grid.h, list(range(4)))
