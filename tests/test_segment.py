import numpy as np
import pytest

from twoscale.errors import DataError, DomainError, UsageError
from twoscale.segment import (
    Segment,
    constant_segment,
    exact_steps,
    lipschitz_modulus,
    sup_norm,
)


def test_exact_steps_accepts_clean_ratios():
    assert exact_steps(1.0, 0.125) == 8
    assert exact_steps(0.5, 0.005) == 100
    # Accumulated float error within 1e-9 relative still snaps.
    h = 0.1
    span = sum([h] * 7)
    assert exact_steps(span, h) == 7


def test_exact_steps_rejects_misaligned_and_bad_inputs():
    with pytest.raises(DomainError):
        exact_steps(1.0, 0.3)
    with pytest.raises(DomainError):
        exact_steps(1.0, -0.1)
    with pytest.raises(DomainError):
        exact_steps(0.0, 0.1)
    with pytest.raises(DomainError):
        exact_steps(0.05, 0.1)  # ratio below 1
    with pytest.raises(DomainError):
        exact_steps(1.0, 5e-324)  # ratio overflows to inf


def test_segment_shape_validation():
    with pytest.raises(DataError):
        Segment(1.0, 0.5, np.zeros(4))  # needs 3 rows for tau/h = 2
    with pytest.raises(DataError):
        Segment(1.0, 0.5, np.zeros((3, 2, 2)))
    bad = np.zeros(3)
    bad[1] = np.nan
    with pytest.raises(DataError):
        Segment(1.0, 0.5, bad)


def test_segment_is_immutable():
    seg = constant_segment(1.0, 0.25, 2.0)
    with pytest.raises(ValueError):
        seg.values[0, 0] = 9.0


def test_sup_norm_hand_values():
    # Scalar window: plain max of |values|.
    assert sup_norm(np.array([[-1.0], [2.0], [-3.0]])) == 3.0
    # Vector window: Euclidean row norms, so (3, 4) scores 5.
    vals = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert sup_norm(vals) == 5.0


def test_sup_norm_axioms_randomized():
    """Seminorm checks on random windows: positivity, homogeneity, triangle."""
    rng = np.random.default_rng(20240817)
    tau, h = 1.0, 0.125
    steps = exact_steps(tau, h)
    for trial in range(200):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((steps + 1, n))
        b = rng.standard_normal((steps + 1, n))
        c = float(rng.uniform(-3.0, 3.0))
        assert sup_norm(a) >= 0.0
        assert np.isclose(sup_norm(c * a), abs(c) * sup_norm(a))
        assert sup_norm(a + b) <= sup_norm(a) + sup_norm(b) + 1e-12
    zero = constant_segment(tau, h, np.zeros(2))
    assert sup_norm(zero.values) == 0.0


def test_lipschitz_modulus_of_linear_ramp():
    # theta -> 2 theta has per-step slope exactly 2 everywhere.
    seg = Segment(1.0, 0.125, 2.0 * (np.arange(9) - 8) * 0.125)
    assert np.isclose(lipschitz_modulus(seg), 2.0)
    flat = constant_segment(1.0, 0.125, 5.0)
    assert lipschitz_modulus(flat) == 0.0


def test_lipschitz_modulus_picks_worst_step():
    vals = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    seg = Segment(1.0, 0.25, vals)
    assert np.isclose(lipschitz_modulus(seg), 4.0)


def test_constant_segment_dimensions():
    seg = constant_segment(1.0, 0.25, np.array([1.0, -2.0]), n=2)
    assert seg.n == 2
    assert seg.grid_steps == 4
    assert sup_norm(seg.values) == pytest.approx(np.sqrt(5.0))
    with pytest.raises(UsageError):
        constant_segment(1.0, 0.25, np.array([1.0]), n=2)
