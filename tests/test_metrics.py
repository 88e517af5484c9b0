import numpy as np
import pytest

from twoscale.errors import DomainError, UsageError
from twoscale.metrics import p_moment, segment_displacement_moment, slope_fit, sup_distance
from twoscale.solver import make_grid


def _linear_path(grid, slope=1.0):
    return slope * grid.times()[:, None]


def test_sup_distance_zero_for_identical_paths():
    g = make_grid(T=1.0, h=0.25, tau=0.5)
    a = _linear_path(g)
    b = _linear_path(g)
    assert sup_distance(a, b, g) == 0.0


def test_sup_distance_hand_value_and_window():
    g = make_grid(T=1.0, h=0.25, tau=0.5)
    a = _linear_path(g, slope=1.0)
    b = _linear_path(g, slope=2.0)
    # Gap at time t is |t|; max over [0, 1] is 1.
    assert sup_distance(a, b, g) == 1.0
    # The window is [0, T]: the history gap of 0.5 at t = -0.5 is not read.
    short = make_grid(T=0.25, h=0.25, tau=0.5)
    assert sup_distance(_linear_path(short, 1.0), _linear_path(short, 2.0), short) == 0.25


def test_sup_distance_errors():
    g = make_grid(T=1.0, h=0.25, tau=0.5)
    a = _linear_path(g, slope=1.0)
    b = _linear_path(g, slope=-1.0)
    assert sup_distance(a, b, g) == 2.0
    other = make_grid(T=1.0, h=0.125, tau=0.5)
    with pytest.raises(UsageError):
        sup_distance(a, _linear_path(other), g)  # shapes differ
    with pytest.raises(UsageError):
        sup_distance(_linear_path(other), _linear_path(other), g)  # not this grid's length


def test_sup_distance_vector_rows_use_euclidean_norm():
    g = make_grid(T=0.5, h=0.25, tau=0.25)
    base = np.zeros((g.total, 2))
    offset = base.copy()
    offset[g.index_of(0.25)] = [3.0, 4.0]
    assert sup_distance(base, offset, g) == 5.0


def test_p_moment_hand_values():
    est = p_moment([0.0, 2.0], 2.0)
    assert est.value == 2.0
    assert est.std_error == 2.0  # std([0, 4], ddof=1)/sqrt(2)
    assert est.paths == 2
    est4 = p_moment([1.0, 1.0, 1.0, 1.0], 3.0)
    assert est4.value == 1.0
    assert est4.std_error == 0.0


def test_p_moment_matches_direct_computation():
    rng = np.random.default_rng(321)
    for p in (1.0, 2.0, 4.0):
        s = rng.uniform(0.0, 2.0, size=64)
        est = p_moment(s, p)
        assert est.value == pytest.approx((s ** p).mean(), rel=1e-14)
        assert est.std_error == pytest.approx(
            (s ** p).std(ddof=1) / np.sqrt(64), rel=1e-14)


def test_p_moment_validation():
    with pytest.raises(DomainError):
        p_moment([1.0, 2.0], 0.0)
    with pytest.raises(UsageError):
        p_moment([1.0], 2.0)
    with pytest.raises(UsageError):
        p_moment([1.0, -0.5], 2.0)
    with pytest.raises(UsageError):
        p_moment(np.ones((3, 2)), 2.0)


def test_slope_fit_recovers_exact_power_laws():
    xs = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
    for alpha in (0.5, 1.0, 2.0):
        fit = slope_fit(xs, 3.0 * xs ** alpha)
        assert abs(fit.slope - alpha) < 1e-10
        assert abs(fit.intercept - np.log(3.0)) < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.xs == pytest.approx(np.log(xs).tolist())


def test_slope_fit_validation():
    with pytest.raises(UsageError):
        slope_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UsageError):
        slope_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(UsageError):
        slope_fit([1.0, 3.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        slope_fit([1.0, 2.0, 3.0], [1.0, 2.0])


def test_displacement_moment_linear_path():
    """On x(t) = t the window shift gap is exactly t - t_delta."""
    g = make_grid(T=1.0, h=0.0625, tau=0.25)
    x = _linear_path(g)
    delta = 0.25
    # Mid-block samples: gaps 0.0625, 0.125, 0.1875 under delta = 0.25.
    times = [0.3125, 0.375, 0.4375]
    moment = segment_displacement_moment(x, g, delta, 2.0, times)
    expect = np.mean([(t - 0.25) ** 2 for t in times])
    assert moment == pytest.approx(expect, rel=1e-12)
    # A sample exactly on a block boundary contributes zero.
    assert segment_displacement_moment(x, g, delta, 2.0, [0.5]) == 0.0


def test_displacement_moment_validation():
    g = make_grid(T=1.0, h=0.0625, tau=0.25)
    x = _linear_path(g)
    with pytest.raises(UsageError):
        segment_displacement_moment(x, g, 0.3, 2.0, [0.5])  # delta off grid
    with pytest.raises(UsageError):
        segment_displacement_moment(x, g, 0.25, 2.0, [])
    with pytest.raises(UsageError):
        segment_displacement_moment(x, g, 0.25, 2.0, [1.5])  # past T
    with pytest.raises(UsageError):
        segment_displacement_moment(x, g, 0.25, 2.0, [0.0])  # not in (0, T]
    with pytest.raises(DomainError):
        segment_displacement_moment(x, g, 0.25, -1.0, [0.5])
