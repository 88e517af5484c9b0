import pickle
import warnings

import numpy as np
import pytest

from twoscale.errors import DivergenceError, DomainError, UsageError
from twoscale.averaging import closed_form_drift, simulate_auxiliary, simulate_averaged
from twoscale.frozen import estimate_averaged_drift, simulate_frozen
from twoscale.noise import W1, W2
from twoscale.segment import constant_segment
from twoscale.solver import (
    DIVERGENCE_CAP,
    GUARD_STEPS,
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

from conftest import brownian

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def _const(grid, value):
    return constant_segment(grid.tau, grid.h, value)


@pytest.mark.parametrize("kernel", ["coupled", "auxiliary", "averaged", "frozen"])
def test_kernels_refuse_a_grid_built_for_another_delay(kernel):
    """A tau = 0.5 grid under a tau = 1 system would read every delayed state at the wrong lag."""
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.5, h=0.05, tau=0.5)
    start = _const(g, 1.0)
    dw1, dw2 = brownian(0, [0], W1, g), brownian(0, [0], W2, g)
    run = {
        "coupled": lambda: simulate_coupled(spec, start, start, 0.25, g, dw1, dw2),
        "auxiliary": lambda: simulate_auxiliary(spec, start, start, 0.25, 0.25, g, dw1, dw2),
        "averaged": lambda: simulate_averaged(spec, start, closed_form_drift(spec), g, dw1),
        "frozen": lambda: simulate_frozen(spec, start[:, None], start, g, dw2),
    }[kernel]
    with pytest.raises(UsageError, match="different delay than spec.tau=1.0"):
        run()


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
                                brownian(42, [0], W1, g), brownian(42, [0], W2, g))

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
                                    brownian(7, [3], W1, g), brownian(7, [3], W2, g))

    dw1 = brownian(7, [3], W1, g)[:, 0]
    dwf = brownian(7, [3], W2, g)[:, 0]
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

    assert np.array_equal(x_run[:, 0], x)
    assert np.array_equal(y_run[:, 0], y)


def test_noise_free_coupled_converges_under_refinement():
    """Deterministic two-scale pair: halving h roughly halves the endpoint error."""
    params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.0,
                                   c1=1.0, c2=2.0, c3=0.5, s2=0.0)
    spec = linear_benchmark(params)
    eps = 0.1

    def endpoint(h):
        g = make_grid(T=1.0, h=h, tau=1.0)
        x, _ = simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), eps, g,
                                brownian(0, [0], W1, g), brownian(0, [0], W2, g))
        return float(x[-1, 0, 0])

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
        xi, g, brownian(1, [0], W1, g),
    )
    # Reference: the identical float recursion, then the continuous limit.
    ref = np.array([1.0])
    for _ in range(g.steps):
        ref = ref + (-ref) * h + np.zeros((1, 1)) @ np.zeros(1) * np.sqrt(h)
    assert path[-1, 0, 0] == ref[0]
    assert abs(path[-1, 0, 0] - np.exp(-1.0)) < 2e-3


def test_sdde_pure_noise_collapses_to_cumsum():
    # Zero drift, unit diffusion: the path is xi(0) plus summed increments.
    h = 0.01
    g = make_grid(T=1.0, h=h, tau=0.2)
    xi = _const(g, 2.0)
    path = simulate_sdde(
        1, 1,
        lambda window: np.zeros_like(window[-1]),
        lambda window: np.eye(1),
        xi, g, brownian(31, [0], W1, g),
    )
    dw = brownian(31, [0], W1, g)[:, 0]
    expect = 2.0 + np.concatenate([[0.0], np.cumsum(dw[:, 0])])
    assert np.allclose(path[g.tau_steps:, 0, 0], expect, rtol=0, atol=1e-12)


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
        xi, g, brownian(0, [0], W1, g),
    )
    times = np.arange(g.steps + 1) * h
    assert np.allclose(path[g.tau_steps:, 0, 0], 1.0 - times, atol=1e-12)


def test_moment_bound_uniform_over_epsilon():
    """E sup |X|^2 stays bounded as epsilon shrinks (no stiffness blow-up)."""
    spec = linear_benchmark(BENCH)
    worst = 0.0
    for eps in (0.2, 0.1, 0.05):
        g = make_grid(T=0.5, h=0.005, tau=1.0)
        x, _ = simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), eps, g,
                                brownian(99, range(8), W1, g),
                                brownian(99, range(8), W2, g))
        sups = np.abs(x[g.tau_steps:, :, 0]).max(axis=0)
        worst = max(worst, float(np.mean(np.square(sups))))
    assert worst < 5.0


def test_epsilon_domain_enforced():
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.5, h=0.05, tau=1.0)
    xi, eta = _const(g, 1.0), _const(g, 0.0)
    w1, w2 = brownian(0, [0], W1, g), brownian(0, [0], W2, g)
    simulate_coupled(spec, xi, eta, 1.0, g, w1, w2)
    with pytest.raises(DomainError):
        simulate_coupled(spec, xi, eta, 1.5, g, w1, w2)
    with pytest.raises(DomainError):
        simulate_coupled(spec, xi, eta, 0.0, g, w1, w2)


def test_input_compatibility_checks():
    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.5, h=0.05, tau=1.0)
    other = constant_segment(1.0, 0.1, 1.0)  # wrong h
    with pytest.raises(UsageError):
        simulate_coupled(spec, other, _const(g, 0.0), 1.0, g,
                         brownian(0, [0], W1, g), brownian(0, [0], W2, g))
    wide = brownian(0, [0], W1, g, 2)  # m = 2 for a system with m = 1
    with pytest.raises(UsageError, match=r"\(10, 1, 2\); .* need \(10, P >= 1, 1\)"):
        simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), 1.0, g,
                         wide, brownian(0, [0], W2, g))
    none = np.empty((g.steps, 0, 1))
    with pytest.raises(UsageError, match="P >= 1"):
        simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), 1.0, g, none, none)
    half = make_grid(T=0.5, h=0.05, tau=0.5)  # built for tau = 0.5, spec.tau = 1
    with pytest.raises(UsageError, match="different delay"):
        simulate_coupled(spec, _const(half, 1.0), _const(half, 0.0), 1.0, half,
                         brownian(0, [0], W1, half), brownian(0, [0], W2, half))
    with pytest.raises(UsageError, match=r"dW1 has shape \(10, 2, 1\) but dW2 .* \(10, 1, 1\)"):
        simulate_coupled(spec, _const(g, 1.0), _const(g, 0.0), 1.0, g,
                         brownian(0, range(2), W1, g), brownian(0, [0], W2, g))
    # A pinned window has one column per path: one window for 4 paths is refused.
    g = make_grid(T=0.5, h=0.1, tau=1.0)
    with pytest.raises(UsageError, match=r"chi has shape \(11, 1, 1\); .* need \(M \+ 1, 4, 1\)"):
        simulate_sdde(1, 1, spec.b2, spec.sigma2, _const(g, 0.0), g,
                      brownian(0, range(4), W2, g), chi=np.zeros((11, 1, 1)))


def _cubic_fast_spec():
    # Cubic fast drift with a start above the basin: blows up in a few steps.
    return SystemSpec(
        n=1, m=1, tau=0.5,
        b1=lambda chi, phi: np.zeros_like(chi[-1]),
        sigma1=lambda chi: np.zeros((1, 1)),
        b2=lambda chi, y, yt: y ** 3,
        sigma2=lambda chi, y, yt: np.zeros((1, 1)),
    )


def test_divergence_error_carries_context():
    """A one-path run raises its DivergenceError with the step, time and last state."""
    spec = _cubic_fast_spec()
    g = make_grid(T=1.0, h=0.005, tau=0.5)
    w1, w2 = brownian(0, [0], W1, g), brownian(0, [0], W2, g)
    with pytest.raises(DivergenceError, match="fast component left") as info:
        simulate_coupled(spec, _const(g, 0.0), _const(g, 2.0), 0.05, g, w1, w2)
    err = info.value
    assert 0 < err.step_index < 20
    assert type(err.time) is float and err.time == (err.step_index + 1) * g.h
    # The run that stops one step short ends in exactly the reported state.
    short = make_grid(T=err.step_index * g.h, h=g.h, tau=0.5)
    x, y = simulate_coupled(spec, _const(g, 0.0), _const(g, 2.0), 0.05, short,
                            w1[: short.steps], w2[: short.steps])
    assert np.array_equal(err.last_state, np.concatenate([x[-1, 0], y[-1, 0]]))
    assert np.abs(err.last_state).max() <= DIVERGENCE_CAP


def test_divergence_error_survives_pickling():
    """A forked worker pickles its exception; a DivergenceError comes back whole."""
    spec = _cubic_fast_spec()
    g = make_grid(T=1.0, h=0.005, tau=0.5)
    w1, w2 = brownian(0, [0], W1, g), brownian(0, [0], W2, g)
    with pytest.raises(DivergenceError) as info:
        simulate_coupled(spec, _const(g, 0.0), _const(g, 2.0), 0.05, g, w1, w2)
    err = info.value
    err.warnings = ["raised before the divergence"]
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DivergenceError and str(back) == str(err)
    assert (back.step_index, back.time) == (err.step_index, err.time)
    assert np.array_equal(back.last_state, err.last_state)
    assert back.warnings == err.warnings


def test_maps_receive_window_arrays():
    """Maps and drift sources read (tau_steps + 1, P, n) arrays whose last row is now."""
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

    x, y = simulate_coupled(spec, xi, eta, 0.5, g,
                            brownian(3, range(2), W1, g),
                            brownian(3, range(2), W2, g))
    assert x.shape == (g.total, 2, 2)
    for name in ("chi", "phi", "sigma1", "b2", "sigma2"):
        windows = calls(name)
        assert len(windows) == g.steps
        assert all(w.shape == (ts + 1, 2, 2) for w in windows)
    for k, (chi, phi) in enumerate(zip(calls("chi"), calls("phi"))):
        assert np.array_equal(chi, x[k: ts + k + 1])
        assert np.array_equal(chi[-1], x[ts + k])
        assert np.array_equal(phi[-1], y[ts + k])

    seen.clear()

    def drift(window, *address):
        record("drift", window)
        return -window[-1]

    xbar = simulate_averaged(spec, xi, drift, g, brownian(3, range(2), W1, g))
    windows = calls("drift")
    assert len(windows) == g.steps
    for k, w in enumerate(windows):
        assert w.shape == (ts + 1, 2, 2)
        assert np.array_equal(w[-1], xbar[ts + k])

    seen.clear()
    sub = make_grid(T=0.5, h=0.05, tau=0.5)
    zeta = xi[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # burn_in below 5 tau
        estimate_averaged_drift(spec, zeta, 0.25, 0.25, 1, sub.h, [4])
    # One column, fewer than its 6 averaged steps: one b1 call whose batch
    # axis is the steps of [burn_in, burn_in + horizon].
    [chi], [phi] = calls("chi"), calls("phi")
    ts, k_burn = sub.tau_steps, 5
    assert chi.shape == phi.shape == (ts + 1, 6, 2)
    yf = simulate_frozen(spec, zeta, np.zeros((ts + 1, 2)), sub,
                         brownian(4, [0], W2, sub))
    for j in range(6):  # each step's whole window, its "now" row yf[ts + k_burn + j] included
        assert np.array_equal(chi[:, j], zeta[::2, 0])  # zeta's step is half the estimator's
        assert np.array_equal(phi[:, j], yf[k_burn + j: k_burn + j + ts + 1, 0])




def _golden_kernels():
    """Batched runs in which some paths diverge: the golden blow-up system and switch_spec."""
    from test_frozen import switch_spec
    from test_golden import _blowup_factory
    from twoscale.averaging import simulate_auxiliary

    spec = _blowup_factory()
    eps = 0.25
    g = make_grid(T=0.5, h=0.0125, tau=1.0)
    xi, eta = _const(g, 1.0), _const(g, 0.0)
    sub = make_grid(T=6.0, h=0.05, tau=1.0)
    short = make_grid(T=1.0, h=0.01, tau=0.1)
    # Frozen windows above zeta(0) = 1 make switch_spec's fast drift blow up.
    levels = np.array([2.0, 0.0, 2.0, 0.5, 0.0, 1.5, 0.0, 2.0, -1.0, 0.0])
    zetas = np.stack([constant_segment(1.0, 0.05, v) for v in levels], axis=1)

    def auxiliary(ps):
        pair = simulate_auxiliary(spec, xi, eta, eps, 0.125, g,
                                  brownian(5, ps, W1, g), brownian(5, ps, W2, g))
        return pair.x, pair.y, pair.x_aux, pair.y_aux

    return {
        "coupled": lambda ps: simulate_coupled(spec, xi, eta, eps, g,
                                               brownian(5, ps, W1, g), brownian(5, ps, W2, g)),
        "auxiliary": auxiliary,
        "frozen": lambda ps: (simulate_frozen(spec, np.zeros((21, len(ps), 1)),
                                              np.zeros((21, 1)), sub,
                                              brownian(5, ps, W2, sub)),),
        # exp overflows on the step that leaves the admissible range.
        "explosive": lambda ps: (simulate_sdde(1, 1, lambda w: np.exp(w[-1]) - 1.0,
                                               lambda w: np.eye(1), np.zeros((11, 1)), short,
                                               brownian(2, ps, W1, short)),),
        "per_column_zeta": lambda ps: (simulate_frozen(switch_spec(1.0), zetas[:, list(ps)],
                                                       np.zeros((21, 1)), sub,
                                                       brownian(3, ps, W2, sub)),),
    }


def _same_error(a, b):
    assert type(a) is type(b)
    assert str(a) == str(b)
    if isinstance(a, DivergenceError):
        assert (a.step_index, a.time) == (b.step_index, b.time)
        assert np.array_equal(a.last_state, b.last_state)


def _single_failures(kernel, paths):
    """{path: DivergenceError} of the paths whose one-path run diverges."""
    failed = {}
    for p in paths:
        try:
            kernel([p])
        except DivergenceError as exc:
            failed[p] = exc
    return failed


@pytest.mark.parametrize("name", ["coupled", "auxiliary", "frozen", "explosive",
                                  "per_column_zeta"])
def test_failing_batch_raises_its_earliest_failure(name):
    """A batch raises the one-path error of its earliest failing step, lowest column first.

    The auxiliary pass starts only once every true pair has completed.
    No floating-point warning escapes a diverging batch.
    """
    kernel = _golden_kernels()[name]
    paths = range(10)
    failed = _single_failures(kernel, paths)
    assert 0 < len(failed) < len(paths)
    first = min(failed, key=lambda p: ("auxiliary" in str(failed[p]),
                                       failed[p].step_index, p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            kernel(paths)
    _same_error(info.value, failed[first])


def test_sdde_batch_raises_the_earliest_step_not_the_lowest_column():
    """Of two diverging paths, the one that fails first in time is reported."""
    kernel = _golden_kernels()["explosive"]
    failed = _single_failures(kernel, range(10))
    early = min(failed, key=lambda p: failed[p].step_index)
    low = min(failed)
    assert failed[early].step_index < failed[low].step_index
    with pytest.raises(DivergenceError) as info:
        kernel(range(low, early + 1))
    _same_error(info.value, failed[early])


def test_divergence_names_the_lowest_column_slow_before_fast():
    """Within one step the lowest failing column is reported, its slow component first."""
    from twoscale.solver import _raise_divergence

    last = (np.arange(8.0).reshape(4, 2), -np.arange(8.0).reshape(4, 2))
    xn, yn = np.zeros((4, 2)), np.zeros((4, 2))
    xn[3, 0] = np.inf
    yn[1, 1] = np.nan
    yn[3, 1] = 2e12
    with pytest.raises(DivergenceError, match="fast part") as info:
        _raise_divergence(7, 0.5, (xn, yn), last, ("slow part", "fast part"))
    assert (info.value.step_index, info.value.time) == (7, 4.0)
    assert np.array_equal(info.value.last_state, [2.0, 3.0, -2.0, -3.0])
    xn[1, 0] = -2e12
    with pytest.raises(DivergenceError, match="slow part"):
        _raise_divergence(7, 0.5, (xn, yn), last, ("slow part", "fast part"))


def test_batch_without_failures_equals_its_singles():
    """Every column of a batch is bit-identical to that path's one-path run."""
    from test_frozen import switch_spec
    from twoscale.averaging import EstimatedDriftSource, simulate_auxiliary

    spec = linear_benchmark(BENCH)
    g = make_grid(T=0.25, h=0.0125, tau=1.0)
    xi, eta = _const(g, 1.0), _const(g, 0.0)
    sub = make_grid(T=2.0, h=0.05, tau=1.0)
    levels = [0.0, 0.5, -1.0, 0.9, 0.25]
    zetas = np.stack([constant_segment(1.0, 0.05, v) for v in levels], axis=1)
    budget = dict(burn_in=1.0, horizon=1.0, replicas=2)

    def auxiliary(ps):
        pair = simulate_auxiliary(spec, xi, eta, 0.25, 0.125, g,
                                  brownian(6, ps, W1, g), brownian(6, ps, W2, g))
        return pair.x, pair.y, pair.x_aux, pair.y_aux

    def estimated(ps):
        src = EstimatedDriftSource(spec, 3, h=0.05, **budget)
        return (simulate_averaged(spec, xi, src, g, brownian(6, ps, W1, g), 0, ps),)

    kernels = [
        lambda ps: simulate_coupled(spec, xi, eta, 0.25, g,
                                    brownian(6, ps, W1, g), brownian(6, ps, W2, g)),
        auxiliary,
        lambda ps: (simulate_frozen(switch_spec(1.0), zetas[:, list(ps)], np.zeros((21, 1)),
                                    sub, brownian(6, ps, W2, sub)),),
        estimated,
    ]
    paths = range(len(levels))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # burn_in below 5 tau
        for kernel in kernels:
            batch = kernel(paths)
            for p in paths:
                for a, b in zip(batch, kernel([p])):
                    assert not a.flags.writeable
                    assert np.array_equal(a[:, p], b[:, 0])


def test_map_error_propagates_from_the_kernel():
    """A map's TwoscaleError leaves the kernel as it is, for one path or a batch."""
    from twoscale.errors import DataError

    refusal = DataError("fast state above 1.5")

    def b2(chi, y, y_tau):
        if (y > 1.5).any():
            raise refusal
        return chi[-1] - y

    spec = SystemSpec(n=1, m=1, tau=0.5,
                      b1=lambda chi, phi: -chi[-1] + phi[-1],
                      sigma1=lambda chi: np.array([[0.3]]),
                      b2=b2, sigma2=lambda chi, y, y_tau: np.array([[0.9]]))
    g = make_grid(T=0.5, h=0.005, tau=0.5)

    def run(ps):
        return simulate_coupled(spec, _const(g, 0.0), _const(g, 0.0), 0.1, g,
                                brownian(8, ps, W1, g),
                                brownian(8, ps, W2, g))

    outcomes = []
    for p in range(8):
        try:
            run([p])
            outcomes.append(None)
        except DataError as exc:
            outcomes.append(exc)
    assert None in outcomes and refusal in outcomes
    assert all(e is None or e is refusal for e in outcomes)
    with pytest.raises(DataError) as info:
        run(range(8))
    assert info.value is refusal


def test_maps_must_return_batch_shapes():
    """A drift of shape (P,) or a diffusion of shape (m,) is a DataError naming the shapes."""
    from twoscale.errors import DataError

    g = make_grid(T=0.1, h=0.01, tau=0.1)
    xi = _const(g, 1.0)

    def ws(paths):
        return brownian(0, range(paths), W1, g)

    cases = [
        (lambda w: w[-1, :, 0], lambda w: np.eye(1), r"drift returned shape \({p},\), "
         r"expected \(paths, n\) = \({p}, 1\)"),
        (lambda w: -w[-1], lambda w: np.ones(1), r"diffusion returned shape \(1,\), "
         r"expected \(n, m\) = \(1, 1\) or \(paths, n, m\) = \({p}, 1, 1\)"),
    ]
    for drift, diffusion, message in cases:
        for paths in (3, 1):
            with pytest.raises(DataError, match=message.format(p=paths)):
                simulate_sdde(1, 1, drift, diffusion, xi, g, ws(paths))
    # A per-path diffusion (P, n, m) is the same as the shared (n, m) one.
    shared = simulate_sdde(1, 1, lambda w: -w[-1], lambda w: np.full((1, 1), 0.5),
                           xi, g, ws(3))
    per_path = simulate_sdde(1, 1, lambda w: -w[-1],
                             lambda w: np.full((w.shape[1], 1, 1), 0.5), xi, g, ws(3))
    assert np.array_equal(shared, per_path)


# Divergence guard and constant-diffusion noise.  The systems below are
# noise-free on h = 1/16, so every state is an exact multiple of h.  Each
# expected error is the one a check after every step raises, pinned from
# a kernel that made that check.
H = 1 / 16


def _zero_diffusion(*_):
    return np.zeros((1, 1))


def _climb(theta):
    """A drift of 1 that jumps out of range once its state tops theta."""
    return lambda state: np.where(state > theta, 1e14, 1.0)


def _assert_error(info, step, time, last_state, detail):
    err = info.value
    assert str(err) == f"state diverged at step {step} (t={time:.6g}): {detail}"
    assert (err.step_index, err.time) == (step, time)
    assert np.array_equal(err.last_state, last_state)


def test_auxiliary_fast_divergence_just_before_a_reset_is_raised():
    """The reset overwrites the diverged row; it must be checked before that.

    The slow state climbs by h per step, so within a block the frozen
    slow state lags the auxiliary fast one by (k - kb) h; the fast drift
    jumps out of range on the last step of the first block (step 4 of 5).
    The true pair never diverges.
    """
    spec = SystemSpec(n=1, m=1, tau=0.5,
                      b1=lambda chi, phi: np.ones_like(chi[-1]), sigma1=_zero_diffusion,
                      b2=lambda chi, y, y_tau: np.where(y - chi[-1] > 3.5 * H, 1e14, 1.0),
                      sigma2=_zero_diffusion)
    g = make_grid(T=2.0, h=H, tau=0.5)
    xi = np.zeros((g.tau_steps + 1, 1))
    with pytest.raises(DivergenceError) as info:
        simulate_auxiliary(spec, xi, xi, 1.0, 5 * H, g,
                           brownian(0, range(2), W1, g),
                           brownian(0, range(2), W2, g))
    _assert_error(info, 4, 0.3125, [0.25, 0.25], "auxiliary fast component diverged")


def test_map_raising_on_an_unchecked_divergence_gives_the_divergence():
    """A map that refuses a non-finite input, one step after an unchecked divergence."""
    from twoscale.errors import DataError

    def b1(chi, phi):
        if not np.isfinite(phi[-1]).all():
            raise DataError("b1 needs a finite fast state")
        return np.zeros_like(chi[-1])

    def drift(window):
        if not np.isfinite(window[-1]).all():
            raise DataError("drift needs a finite state")
        return np.where(window[-1] > 0.3, np.inf, 1.0)

    spec = SystemSpec(n=1, m=1, tau=0.5, b1=b1, sigma1=_zero_diffusion,
                      b2=lambda chi, y, y_tau: np.where(y > 0.3, np.inf, 1.0),
                      sigma2=_zero_diffusion)
    g = make_grid(T=2.0, h=H, tau=0.5)
    xi = np.zeros((g.tau_steps + 1, 1))
    with pytest.raises(DivergenceError) as info:
        simulate_coupled(spec, xi, xi, 1.0, g, brownian(0, [0], W1, g), brownian(0, [0], W2, g))
    _assert_error(info, 5, 0.375, [0.0, 0.3125], "fast component left the admissible range")
    with pytest.raises(DivergenceError) as info:
        simulate_sdde(1, 1, drift, _zero_diffusion, xi, g, brownian(0, [0], W1, g))
    _assert_error(info, 5, 0.375, [0.3125], "X left the admissible range")


@pytest.mark.parametrize("steps, step", [
    (37, 0),   # the first step
    (37, 36),  # the last step, inside the trailing partial block
    (37, 33),  # inside the trailing partial block
    (32, 31),  # the last step of the last full block
    (5, 3),    # a grid shorter than one block
])
def test_divergence_at_the_block_edges(steps, step):
    """Wherever the failing step falls against the guard's blocks, the error is the same."""
    assert GUARD_STEPS == 16
    g = make_grid(T=steps * H, h=H, tau=0.5)
    xi = np.zeros((g.tau_steps + 1, 1))
    climb = _climb((step - 0.5) * H)
    state = step * H  # the last state, before the failing step

    def ones(state):
        return np.ones_like(state)

    def run(slow_drift, fast_drift):
        spec = SystemSpec(n=1, m=1, tau=0.5,
                          b1=lambda chi, phi: slow_drift(chi[-1]), sigma1=_zero_diffusion,
                          b2=lambda chi, y, y_tau: fast_drift(y), sigma2=_zero_diffusion)
        simulate_coupled(spec, xi, xi, 1.0, g, brownian(0, range(3), W1, g),
                         brownian(0, range(3), W2, g))

    time = (step + 1) * H
    with pytest.raises(DivergenceError) as info:
        run(climb, ones)
    _assert_error(info, step, time, [state, state], "slow component left the admissible range")
    with pytest.raises(DivergenceError) as info:
        run(ones, climb)
    _assert_error(info, step, time, [state, state], "fast component left the admissible range")
    with pytest.raises(DivergenceError) as info:
        simulate_sdde(1, 1, lambda w: climb(w[-1]), _zero_diffusion, xi, g,
                      brownian(0, range(3), W1, g))
    _assert_error(info, step, time, [state], "X left the admissible range")


def _diffusions(values):
    """Diffusion maps of the given values, keyed by how they return them.

    "cached" returns one read-only array; "fresh" a new copy each call;
    "switching" the cached array while the window's first two rows are
    history and a fresh array of other values after; "switching_fresh"
    the same values as "switching", always as fresh copies.
    """
    cached = np.array(values, dtype=float)
    cached.setflags(write=False)
    other = 2.0 * cached

    def switching(chi):
        return cached if np.array_equal(chi[0], chi[1]) else other.copy()

    return {
        "cached": lambda chi, *_: cached,
        "fresh": lambda chi, *_: cached.copy(),
        "switching": lambda chi, *_: switching(chi),
        "switching_fresh": lambda chi, *_: (cached.copy() if np.array_equal(chi[0], chi[1])
                                           else other.copy()),
    }


@pytest.mark.parametrize("n", [1, 2])
def test_constant_diffusion_noise_is_bit_identical(n, monkeypatch):
    """A cached read-only diffusion takes the precomputed noise, with the same bits.

    A diffusion that returns its step-0 array only for a while falls back
    to the per-step sum and still matches.
    """
    from twoscale import solver

    calls = []  # dw.ndim of every noise sum: 3 for a whole run, 2 for one step
    noise = solver._noise

    def counted_noise(s, dw):
        calls.append(dw.ndim)
        return noise(s, dw)

    monkeypatch.setattr(solver, "_noise", counted_noise)
    p = 3
    g = make_grid(T=0.5, h=0.025, tau=0.25)
    xi = constant_segment(g.tau, g.h, [1.0, -0.5][:n])
    eta = constant_segment(g.tau, g.h, [0.0, 0.5][:n])
    a = np.array([[1.0, 0.5], [-0.25, 1.5]])[:n, :n]
    sig1 = _diffusions(np.array([[0.3, -0.2], [0.1, 0.4]])[:n, :n])
    sig2 = _diffusions(np.array([[0.5, 0.25], [-0.3, 0.2]])[:n, :n])
    def run(mode):
        spec = SystemSpec(n=n, m=n, tau=0.25,
                          b1=lambda chi, phi: -chi[-1] @ a.T + 0.5 * phi[-1], sigma1=sig1[mode],
                          b2=lambda chi, y, y_tau: chi[-1] - y + 0.25 * y_tau, sigma2=sig2[mode])
        calls.clear()
        pair = simulate_auxiliary(spec, xi, eta, 0.25, 0.125, g,
                                  brownian(9, range(p), W1, g, n),
                                  brownian(9, range(p), W2, g, n))
        path = simulate_sdde(n, n, lambda w: -w[-1] @ a.T, sig1[mode], xi, g,
                             brownian(9, range(p), W1, g, n))
        return (pair.x, pair.y, pair.x_aux, pair.y_aux, path), list(calls)

    fast, fast_calls = run("cached")
    slow, slow_calls = run("fresh")
    # Five diffusions (sigma1, sigma2 in each pass and the sdde's), each summed once.
    assert fast_calls == [3] * 5
    assert slow_calls.count(3) == 0
    for a_run, b_run in zip(fast, slow):
        assert np.array_equal(a_run, b_run)
    switched, switched_calls = run("switching")
    reference, _ = run("switching_fresh")
    assert switched_calls.count(3) == 5 and switched_calls.count(2) > 0
    for a_run, b_run in zip(switched, reference):
        assert np.array_equal(a_run, b_run)
