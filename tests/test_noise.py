import numpy as np
import pytest
from numpy.random import Philox, SeedSequence

from twoscale.errors import DomainError, UsageError
from twoscale.noise import (
    W1,
    W2,
    NoiseStream,
    fast_increments,
    gaussian_increments,
)


def test_replay_is_bit_identical():
    """A stream is a pure function of (seed, path, tag): rebuild and redraw."""
    a = NoiseStream(123, 4, W1)
    b = NoiseStream(123, 4, W1)
    za = a.normals(257)
    zb = b.normals(257)
    assert np.array_equal(za, zb)
    assert np.array_equal(a.normals(3), b.normals(3))


@pytest.mark.parametrize("seed, path, tag", [(0, 0, W1), (123, 4, W2), (2 ** 40, 1000, W1),
                                             (12345, 63, W2)])
def test_stream_philox_is_keyed_as_from_its_seed_sequence(seed, path, tag):
    """Keying Philox from the SeedSequence gives the key and draws of keying it by hand."""
    ss = SeedSequence(seed, spawn_key=(path, {W1: 1, W2: 2}[tag]))
    by_key = Philox(key=ss.generate_state(2, np.uint64))
    stream = NoiseStream(seed, path, tag)
    state, expected = stream._bits.state["state"], by_key.state["state"]
    assert np.array_equal(state["key"], expected["key"])
    assert np.array_equal(state["counter"], expected["counter"])
    assert np.array_equal(stream._bits.random_raw(64), by_key.random_raw(64))


def test_split_draws_equal_one_draw():
    # 5 + 5 normals from one stream match 10 from a fresh copy.
    s1 = NoiseStream(9, 0, W2)
    s2 = NoiseStream(9, 0, W2)
    first = s1.normals(5)
    second = s1.normals(5)
    combined = s2.normals(10)
    assert np.array_equal(np.concatenate([first, second]), combined)


def test_distinct_addresses_differ():
    base = NoiseStream(1, 0, W1).normals(64)
    for other in (NoiseStream(1, 1, W1), NoiseStream(1, 0, W2),
                  NoiseStream(2, 0, W1)):
        assert not np.array_equal(base, other.normals(64))


def test_cross_stream_correlation_small():
    n = 20000
    a = NoiseStream(77, 0, W1).normals(n)
    b = NoiseStream(77, 0, W2).normals(n)
    c = NoiseStream(77, 1, W1).normals(n)
    for x, y in ((a, b), (a, c), (b, c)):
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 4.0 / np.sqrt(n)


def test_marginal_moments():
    z = NoiseStream(2024, 0, W1).normals(100_000)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    # Var(z^2) = 2 for a standard normal.
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    assert abs((z ** 3).mean()) < 4.0 * np.sqrt(15.0 / n)


def test_zero_and_negative_counts():
    s = NoiseStream(0, 0, W1)
    out = s.normals(0)
    assert out.shape == (0,)
    with pytest.raises(DomainError):
        s.normals(-1)
    # Neither call moved the stream.
    assert np.array_equal(s.normals(5), NoiseStream(0, 0, W1).normals(5))


def test_address_validation():
    with pytest.raises(UsageError):
        NoiseStream(0, 0, "W3")
    with pytest.raises(DomainError):
        NoiseStream(0, -1, W1)
    with pytest.raises(DomainError):
        NoiseStream(0, 0, W1, m=0)


def test_gaussian_increments_shape_and_scale():
    s = NoiseStream(5, 0, W1, m=3)
    dt = 0.01
    dw = gaussian_increments(s, 50, dt)
    assert dw.shape == (50, 3)
    ref = NoiseStream(5, 0, W1, m=3).normals(150).reshape(50, 3) * np.sqrt(dt)
    assert np.array_equal(dw, ref)
    with pytest.raises(DomainError):
        gaussian_increments(s, 5, 0.0)
    assert gaussian_increments(s, 0, dt).shape == (0, 3)


def test_fast_increments_quarter_epsilon_is_exactly_double():
    # 1/sqrt(0.25) = 2.0 exactly, so the scaled draw is bit-predictable.
    dt = 0.02
    base = gaussian_increments(NoiseStream(3, 2, W2), 40, dt)
    fast = fast_increments(NoiseStream(3, 2, W2), 40, dt, 0.25)
    assert np.array_equal(fast, base * 2.0)


def test_fast_increments_epsilon_one_is_identity():
    dt = 0.05
    base = gaussian_increments(NoiseStream(11, 0, W2), 33, dt)
    fast = fast_increments(NoiseStream(11, 0, W2), 33, dt, 1.0)
    assert np.array_equal(fast, base)


def test_fast_increments_variance_scaling():
    rng_checks = [(0.1, 64), (0.01, 65)]
    for eps, seed in rng_checks:
        dw = fast_increments(NoiseStream(seed, 0, W2), 40000, 0.001, eps)
        var = float(dw.var())
        expect = 0.001 / eps
        assert abs(var - expect) < 5.0 * expect * np.sqrt(2.0 / 40000)
    with pytest.raises(DomainError):
        fast_increments(NoiseStream(0, 0, W2), 1, 0.1, 0.0)


def test_partial_then_rebuild_replays_prefix():
    """Resuming means rebuilding and replaying the prefix, never seeking."""
    rng = np.random.default_rng(55)
    for _ in range(20):
        seed = int(rng.integers(0, 2**31))
        k = int(rng.integers(1, 40))
        total = k + int(rng.integers(1, 40))
        s = NoiseStream(seed, 0, W1)
        full = s.normals(total)
        fresh = NoiseStream(seed, 0, W1)
        assert np.array_equal(fresh.normals(k), full[:k])
        assert np.array_equal(fresh.normals(total - k), full[k:])
