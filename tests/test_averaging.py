import hashlib
import math
import warnings

import numpy as np
import pytest

from twoscale.averaging import (
    EstimatedDriftSource,
    closed_form_drift,
    khasminskii_delta,
    simulate_auxiliary,
    simulate_averaged,
)
from twoscale.errors import ConfigError, DivergenceError, DomainError, TwoscaleError, UsageError
from twoscale.frozen import estimate_averaged_drift
from twoscale.harness import Scenario, run_scenario
from twoscale.metrics import sup_distance
from twoscale.noise import W1, W2, increments
from twoscale.segment import constant_segment
from twoscale.solver import _coupled_core, make_grid, simulate_coupled
from twoscale.systems import (LinearBenchmarkParams, SystemSpec, build_system, linear_benchmark,
                              register_system)

from conftest import brownian
from test_golden import BENCH_SYS, PLANE_SYS  # importing registers "golden_plane"

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def test_block_schedule_hand_values():
    assert 0.01 * math.sqrt(-math.log(0.01)) == 0.021459660262893473
    assert khasminskii_delta(0.01, 1.0) == 47
    # Familiar sweep: these block counts are pinned by the formula.
    assert khasminskii_delta(0.05, 1.0) == 12
    assert khasminskii_delta(0.02, 1.0) == 26
    assert khasminskii_delta(0.005, 1.0) == 87


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
    with pytest.raises(DomainError, match="tau must be positive and finite, got 0.0"):
        khasminskii_delta(0.01, 0.0)
    # NaN, and an infinite tau, fail the range checks, not math.ceil.
    for eps, tau in ((math.nan, 1.0), (0.01, math.nan), (0.01, math.inf)):
        with pytest.raises(DomainError):
            khasminskii_delta(eps, tau)
    # A subnormal eps overflows tau / delta_raw: a DomainError, not an OverflowError.
    with pytest.raises(DomainError, match="more blocks than a float holds"):
        khasminskii_delta(5e-324, 1.0)
    # Just inside the admissible range still works.
    assert khasminskii_delta(inv_e * 0.999, 1.0) >= 1


def test_block_schedule_invariants_randomized():
    """eps/delta_raw < 1, snap shortens, and N*delta rebuilds tau exactly."""
    rng = np.random.default_rng(2718)
    for _ in range(100):
        eps = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.3))))
        tau = float(rng.uniform(0.25, 4.0))
        n = khasminskii_delta(eps, tau)
        delta_raw = eps * math.sqrt(-math.log(eps))
        assert 0.0 < eps / delta_raw < 1.0
        assert tau / n <= delta_raw * (1.0 + 1e-12)
        assert n == math.ceil(tau / delta_raw)
        assert n * (tau / n) == pytest.approx(tau, rel=1e-12)


def test_auxiliary_coupled_part_matches_direct_run():
    """The pair's first member replays simulate_coupled bit for bit."""
    spec = linear_benchmark(BENCH)
    h = 1.0 / 160.0
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    pair = simulate_auxiliary(spec, xi, eta, 0.1, 0.25, g,
                              brownian(8, [0], W1, g), brownian(8, [0], W2, g))
    x, y = simulate_coupled(spec, xi, eta, 0.1, g,
                            brownian(8, [0], W1, g), brownian(8, [0], W2, g))
    assert np.array_equal(pair.x, x)
    assert np.array_equal(pair.y, y)


def test_auxiliary_resets_are_bit_exact():
    spec = linear_benchmark(BENCH)
    h = 1.0 / 160.0
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    pair = simulate_auxiliary(spec, xi, eta, 0.1, 0.125, g,
                              brownian(9, [0], W1, g), brownian(9, [0], W2, g))
    delta_steps = int(round(0.125 / h))
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
    dw1 = np.zeros((g.steps, 1, 1))
    dwf = np.zeros((g.steps, 1, 1))
    x, y = _coupled_core(spec, xi, eta, 0.1, g, dw1, dwf)
    # A true slow window far past the cap drives a11 * chi(0) * h out of range.
    huge = np.full_like(x, 1e16)
    with pytest.raises(DivergenceError, match="auxiliary slow component diverged") as info:
        _coupled_core(spec, xi, eta, 0.1, g, dw1, dwf, freeze=(huge, y, 20))
    assert info.value.step_index == 0
    assert np.array_equal(info.value.last_state, np.concatenate([x[g.tau_steps, 0],
                                                                 y[g.tau_steps, 0]]))


def test_auxiliary_sigma1_reads_its_blocks_true_window():
    """At every step of the block-frozen pass, sigma1 reads the true slow window of the
    block start, as b1 and b2 do: the auxiliary pair freezes the window, nothing more."""
    bench = linear_benchmark(BENCH)
    seen = []

    def sigma1(chi):
        seen.append(np.array(chi))
        return np.array([[BENCH.s1]]) * (1.0 + 0.2 * np.tanh(chi[-1]))[:, :, None]

    spec = SystemSpec(n=1, m=1, tau=1.0, b1=bench.b1, sigma1=sigma1, b2=bench.b2,
                      sigma2=bench.sigma2)
    h = 1.0 / 160.0
    g = make_grid(T=0.25, h=h, tau=1.0)
    pair = simulate_auxiliary(spec, constant_segment(1.0, h, 1.0), constant_segment(1.0, h, 0.0),
                              0.1, 0.0625, g, brownian(9, range(2), W1, g),
                              brownian(9, range(2), W2, g))
    ts, delta_steps = g.tau_steps, 10
    assert len(seen) == 2 * g.steps  # the true pass, then the auxiliary pass
    for k, window in enumerate(seen[g.steps:]):
        kb = k - k % delta_steps
        assert np.array_equal(window, pair.x[kb: kb + ts + 1]), k


def test_auxiliary_slow_gap_shrinks_with_epsilon():
    spec = linear_benchmark(BENCH)
    gaps = {}
    for eps, h in ((0.05, 1.0 / 240.0), (0.005, 1.0 / 2001.0)):
        g = make_grid(T=1.0, h=h, tau=1.0)
        xi = constant_segment(1.0, h, 1.0)
        eta = constant_segment(1.0, h, 0.0)
        pair = simulate_auxiliary(spec, xi, eta, eps, 1.0 / khasminskii_delta(eps, 1.0), g,
                                  brownian(5, range(4), W1, g),
                                  brownian(5, range(4), W2, g))
        gaps[eps] = float(np.mean(sup_distance(pair.x, pair.x_aux, g)))
    assert gaps[0.005] < 0.5 * gaps[0.05]


def test_auxiliary_validation():
    spec = linear_benchmark(BENCH)
    h = 0.01
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    with pytest.raises(DomainError):
        simulate_auxiliary(spec, xi, eta, 1.5, 0.25, g,
                           brownian(0, [0], W1, g), brownian(0, [0], W2, g))


def test_averaged_deterministic_endpoint():
    """Noise off: the averaged path is the explicit contraction recursion."""
    params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.0,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.3)
    spec = linear_benchmark(params)
    h = 0.001
    g = make_grid(T=1.0, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    xbar = simulate_averaged(spec, xi, closed_form_drift(spec), g, brownian(0, [0], W1, g))
    ref = np.array([1.0])
    zero = np.zeros((1, 1)) @ np.zeros(1)
    for _ in range(g.steps):
        ref = ref + (params.kappa * ref) * h + zero
    assert xbar[-1, 0, 0] == ref[0]
    assert abs(xbar[-1, 0, 0] - np.exp(params.kappa)) < 2e-3


def test_averaged_tracks_coupled_run_on_shared_noise():
    spec = linear_benchmark(BENCH)
    h = 0.001
    g = make_grid(T=0.5, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    eta = constant_segment(1.0, h, 0.0)
    x, _ = simulate_coupled(spec, xi, eta, 0.01, g,
                            brownian(11, [0], W1, g), brownian(11, [0], W2, g))
    xbar = simulate_averaged(spec, xi, closed_form_drift(spec), g, brownian(11, [0], W1, g))
    assert sup_distance(x, xbar, g)[0] < 0.05


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
    xbar = simulate_averaged(spec, xi, drift, g,
                             brownian(1234, range(n_paths), W1, g))
    ends = xbar[-1, :, 0]
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
    g = make_grid(1.0, 0.5, 1.0)
    with pytest.raises(UsageError):
        simulate_averaged(plain, constant_segment(1.0, 0.5, 0.0), "not callable", g,
                          brownian(0, [0], W1, g))


def test_estimated_drift_source_accuracy_and_cache():
    spec = linear_benchmark(BENCH)
    budget = dict(burn_in=5.0, horizon=20.0, replicas=4)
    src = EstimatedDriftSource(spec, 77, h=0.01, **budget)
    zeta = constant_segment(1.0, 0.01, 1.0)[:, None]  # a batch of one window
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v1 = src(zeta, 0, [0], 0)
        # No memo: the same address is simulated again, from the same sub-seed.
        v2 = src(zeta, 0, [0], 0)
    tol = max(3.5 * src.max_std_error, 0.03)
    assert abs(float(v1[0, 0]) - BENCH.kappa) < tol
    assert np.array_equal(v1, v2)
    assert (src.calls, src.cache_misses) == (2, 2)


def test_estimated_drift_source_is_reproducible():
    spec = linear_benchmark(BENCH)
    budget = dict(burn_in=3.0, horizon=8.0, replicas=3)
    zeta = constant_segment(1.0, 0.02, -0.5)[:, None]
    outs = []
    for _ in range(2):
        src = EstimatedDriftSource(spec, 9, h=0.02, **budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outs.append(src(zeta, 2, [5], 7).copy())
    assert np.array_equal(outs[0], outs[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        other = EstimatedDriftSource(spec, 10, h=0.02, **budget)(zeta, 2, [5], 7)
    assert not np.array_equal(outs[0], other)


def test_estimated_drift_source_refuses_a_misaligned_budget_up_front():
    """A tau, burn_in or horizon that h does not tile is refused at construction, not one
    drift call in, even where burn_in + horizon is a multiple of h."""
    spec = linear_benchmark(BENCH)
    for budget, what in [((0.05, 0.15, 0.1), "horizon=0.15"), ((0.05, 0.2, 0.1), "burn_in=0.05"),
                         ((0.6, 0.3, 0.3), "tau=1.0")]:
        burn_in, horizon, h = budget
        with pytest.raises(DomainError, match=f"{what} is not an integer multiple of h={h}"):
            EstimatedDriftSource(spec, 0, burn_in=burn_in, horizon=horizon, replicas=1, h=h)
    EstimatedDriftSource(spec, 0, burn_in=0.0, horizon=0.2, replicas=1, h=0.1)  # no burn-in


_GOOD_BUDGET = (5.0, 1.0, 2, 0.1)  # burn_in, horizon, replicas, h


@pytest.mark.parametrize("seed, budget", [
    (0, (5.0, 1.0, 0, 0.1)),
    (0, (5.0, 1.0, 1.5, 0.1)),
    (0, (-0.5, 1.0, 1, 0.1)),
    (0, (0.05, 0.15, 1, 0.1)),  # burn_in and horizon both off the grid
    (0, (0.6, 0.3, 1, 0.3)),  # only tau is off the grid
    (-1, _GOOD_BUDGET),
    (1.5, _GOOD_BUDGET),
    ("3", _GOOD_BUDGET),
])
def test_a_bad_estimator_input_gets_one_verdict_at_every_entry_point(seed, budget):
    """The drift source refuses a bad budget or seed at construction, with the error that
    estimate_averaged_drift or increments gives it, and the config parser refuses it too."""
    spec = linear_benchmark(BENCH)
    burn_in, horizon, replicas, h = budget
    with pytest.raises(TwoscaleError) as expected:
        if seed == 0:
            estimate_averaged_drift(spec, np.zeros((11, 1, 1)), *budget, [seed])
        else:
            increments(seed, [0], W2, 1, 1, 0.1)
    with pytest.raises(TwoscaleError) as raised:
        EstimatedDriftSource(spec, seed, burn_in=burn_in, horizon=horizon, replicas=replicas,
                             h=h)
    assert (type(raised.value), str(raised.value)) == (type(expected.value),
                                                       str(expected.value))
    with pytest.raises(ConfigError):
        Scenario.from_config({
            "experiment": "converge", "system": BENCH_SYS, "epsilons": [0.25], "seed": seed,
            "drift_source": "estimator",
            "estimator": dict(burn_in=burn_in, horizon=horizon, replicas=replicas, h=h)})


@pytest.mark.parametrize("replicas", [1, 3, 9])
def test_estimator_batch_equals_one_window_calls(replicas):
    """A batch call equals its one-path calls made with the same global indices, bit for bit."""
    spec = linear_benchmark(BENCH)
    budget = dict(burn_in=3.0, horizon=2.0, replicas=replicas)
    h = 0.05
    rng = np.random.default_rng(4)
    windows = np.stack([constant_segment(1.0, h, v) + 0.1 * rng.normal(size=(21, 1))
                        for v in (-0.5, 0.0, 0.7, 1.3, 0.7)], axis=1)
    paths = [3, 4, 8, 11, 30]  # a chunk's global path indices need not start at 0
    together = EstimatedDriftSource(spec, 9, h=h, **budget)
    apart = EstimatedDriftSource(spec, 9, h=h, **budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = together(windows, 1, paths, 6)
        singles = [apart(windows[:, i: i + 1], 1, [p], 6) for i, p in enumerate(paths)]
    assert batch.shape == (5, 1)
    assert batch.tobytes() == np.concatenate(singles).tobytes()
    assert together.calls == apart.calls == 5
    assert together.max_std_error == apart.max_std_error
    assert (together.max_std_error > 0.0) == (replicas > 1)


def test_equal_windows_at_one_step_get_their_own_estimates():
    """The sub-seed follows the address, not the window: paths, rows and steps apart differ."""
    spec = linear_benchmark(BENCH)
    src = EstimatedDriftSource(spec, 9, burn_in=3.0, horizon=2.0, replicas=2, h=0.05)
    windows = np.broadcast_to(constant_segment(1.0, 0.05, 1.0)[:, None], (21, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = src(windows, 0, [0, 1], 0)
        elsewhere = [src(windows[:, :1], *address) for address in [(1, [0], 0), (0, [0], 1)]]
    assert pair[0, 0] != pair[1, 0]
    assert all(v[0, 0] != pair[0, 0] for v in elsewhere)


def test_averaged_default_address_is_row_zero_and_every_column():
    """Without row and paths, column i of a P > n batch is path i of row 0, bit for bit."""
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.2, h=0.1, tau=1.0)
    xi = constant_segment(1.0, 0.1, 1.0)
    dw1 = increments(4, range(3), W1, 1, g.steps, g.h)

    def run(*address):
        src = EstimatedDriftSource(spec, 9, burn_in=0.5, horizon=0.5, replicas=2, h=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # burn_in below 5 tau
            return simulate_averaged(spec, xi, src, g, dw1, *address)

    default = run()
    assert default.tobytes() == run(0, range(3)).tobytes()
    assert default.tobytes() != run(0, range(1, 4)).tobytes()
    assert default.tobytes() != run(1, range(3)).tobytes()


@pytest.mark.parametrize("system, digest", [
    (BENCH_SYS, "9a7d4e2654577e846935bace9c087954506cbdb8f787b5615d3cd445e2500a15"),
    (PLANE_SYS, "83a6c2a20968b37307c3abc99677b676dd19b0f294e7fb801a62d3e7cb814cda"),
], ids=["n1", "golden_plane"])
def test_estimated_drift_bytes_are_pinned(system, digest):
    """The estimates' bits, which the golden hashes do not see: a last-bit change in the
    time average (say * (1 / steps) for / steps) moves no report hash but fails here."""
    spec = build_system(dict(system))
    windows = 0.5 + 0.3 * np.random.default_rng(12).standard_normal((21, 4, spec.n))
    src = EstimatedDriftSource(spec, 21, burn_in=5.0, horizon=1.0, replicas=3, h=0.05)
    assert hashlib.sha256(src(windows, 1, range(2, 6), 3).tobytes()).hexdigest() == digest


def _rowwise_factory():
    """The linear benchmark with a b1 that reads every row of both windows."""
    bench = linear_benchmark(BENCH)
    return SystemSpec(n=1, m=1, tau=1.0, b1=lambda chi, phi: -chi[-1] + (chi * phi).mean(axis=0),
                      sigma1=bench.sigma1, b2=bench.b2, sigma2=bench.sigma2)


@pytest.mark.parametrize("estimator_h", [0.01, 1.0 / 30.0], ids=["strided", "between_rows"])
def test_estimator_hands_b1_windows_on_one_grid(estimator_h):
    """A b1 that multiplies its windows row by row runs through the estimator route:
    chi and phi both come on the estimator's step, whatever the run's step."""
    register_system("rowwise_b1", _rowwise_factory, replace=True)
    cfg = {"experiment": "converge", "system": {"kind": "registered", "name": "rowwise_b1"},
           "T": 0.05, "epsilons": [0.1], "paths": 2, "seed": 3, "drift_source": "estimator",
           "estimator": {"burn_in": 1.0, "horizon": 1.0, "replicas": 2, "h": estimator_h}}
    report = run_scenario(Scenario.from_config(cfg))
    [row] = report.rows
    assert "error" not in row["extra"] and math.isfinite(row["value"])


def test_estimator_route_agrees_with_closed_form_route():
    """Integrate the averaged equation through both drift sources on one stream."""
    spec = linear_benchmark(BENCH)
    budget = dict(burn_in=3.0, horizon=8.0, replicas=3)
    src = EstimatedDriftSource(spec, 55, h=0.02, **budget)
    h = 0.01
    g = make_grid(T=0.3, h=h, tau=1.0)
    xi = constant_segment(1.0, h, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        by_estimate = simulate_averaged(spec, xi, src, g, brownian(31, [0], W1, g))
    by_formula = simulate_averaged(spec, xi, closed_form_drift(spec), g,
                                   brownian(31, [0], W1, g))
    # Shared W1 cancels the noise; what is left is the drift estimate error
    # integrated over [0, T].
    assert sup_distance(by_estimate, by_formula, g)[0] < 0.05
    # One sub-simulation per step of the averaged equation.
    assert src.calls == src.cache_misses == g.steps
