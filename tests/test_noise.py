import ast
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox, SeedSequence

from twoscale.errors import DomainError, UsageError
from twoscale.noise import (
    W1,
    W2,
    NoiseStream,
    increments,
)
from twoscale.segment import constant_segment
from twoscale.solver import make_grid, simulate_coupled
from twoscale.systems import LinearBenchmarkParams, linear_benchmark

from conftest import brownian

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _reference():
    """bench/reference.py, loaded by path: a Philox and Box-Muller draw that shares no code
    with twoscale.noise, so a fault in _philox or _box_muller cannot cancel out."""
    spec = importlib.util.spec_from_file_location("bench_reference", BENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


reference = _reference()


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
    with pytest.raises(DomainError, match="seed"):
        NoiseStream(-1, 0, W1)
    # A fractional address is refused, not truncated onto stream 1.
    with pytest.raises(UsageError, match="seed"):
        NoiseStream(1.5, 0, W1)
    with pytest.raises(UsageError, match="path_index"):
        NoiseStream(0, 1.5, W1)
    # So is a fractional count, and a negative one is out of range.
    with pytest.raises(UsageError, match="count"):
        NoiseStream(0, 0, W1).normals(1.5)
    with pytest.raises(DomainError, match="count"):
        NoiseStream(0, 0, W1).normals(-1)


def test_increments_shape_scale_and_bits():
    """Column p is stream (seed, indices[p], tag) drawn step-major, times sqrt(dt)."""
    dt = 0.01
    dw = increments(5, [0, 7], W1, 3, 50, dt)
    assert dw.shape == (50, 2, 3)
    assert dw.flags.c_contiguous  # the kernels slice dw[k] on every step
    for p, path in enumerate([0, 7]):
        ref = reference.normals(5, path, reference.TAG_W1, 150).reshape(50, 3) * np.sqrt(dt)
        assert np.array_equal(dw[:, p], ref)
    with pytest.raises(DomainError):
        increments(5, [0], W1, 3, 5, 0.0)
    with pytest.raises(UsageError, match="got none"):
        increments(5, [], W1, 3, 5, dt)
    assert increments(5, range(2), W1, 3, 0, dt).shape == (0, 2, 3)
    for bad_dt in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="dt"):
            increments(5, [0], W1, 3, 5, bad_dt)
    with pytest.raises(DomainError, match="steps"):
        increments(1, [0], W1, 1, -1, 0.1)
    with pytest.raises(DomainError, match="noise dimension"):
        increments(1, [0], W1, 0, 5, 0.1)
    with pytest.raises(DomainError, match="seed"):
        increments(-1, [0], W1, 1, 5, 0.1)
    with pytest.raises(DomainError, match="seed"):
        increments([1, -1], [0, 1], W1, 1, 5, 0.1)
    with pytest.raises(DomainError, match="path index"):
        increments(1, [0, -1], W1, 1, 5, 0.1)
    # A fractional address is refused, not truncated onto stream 1.
    with pytest.raises(UsageError, match="seed"):
        increments(1.5, [0], W1, 1, 5, 0.1)
    with pytest.raises(UsageError, match="path index"):
        increments(1, [1.5], W1, 1, 5, 0.1)
    with pytest.raises(UsageError, match="2 seeds for 3 path indices"):
        increments([1, 2], range(3), W1, 1, 5, 0.1)
    with pytest.raises(UsageError, match="tag"):
        increments(1, [0], "W3", 1, 5, 0.1)


@pytest.mark.parametrize("paths, steps, m", [(24, 2000, 1), (3, 9000, 2), (4, 0, 1)])
def test_blocked_draw_equals_each_stream(paths, steps, m):
    """Per-column seeds, drawn in shared blocks or in pieces of one stream, replay each stream."""
    dt = 0.005
    seeds = [2 ** 63 + 17 * c for c in range(paths)]  # estimator sub-seeds reach 2^64
    indices = [c % 2 for c in range(paths)]
    dw = increments(seeds, indices, W2, m, steps, dt)
    assert dw.shape == (steps, paths, m) and dw.flags.c_contiguous
    for c in range(paths):
        ref = reference.normals(seeds[c], indices[c], reference.TAG_W2, steps * m)
        assert np.array_equal(dw[:, c], ref.reshape(steps, m) * np.sqrt(dt)), c


def test_increments_allocate_little_beyond_their_output():
    """The draw goes straight into the output: no per-path buffer or transposed copy."""
    tracemalloc.start()
    try:
        dw = increments(3, range(64), W1, 1, 20_000, 0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * dw.nbytes, (peak, dw.nbytes)


def test_increments_variance_scales_with_dt():
    for dt, seed in ((0.01, 64), (0.1, 65)):
        dw = increments(seed, [0], W2, 1, 40000, dt)
        assert abs(float(dw.var()) - dt) < 5.0 * dt * np.sqrt(2.0 / 40000)


def _fast_path_and_dw2(eps):
    """A pure-noise fast equation (no drift, s2 = 1): its path after the history and dw2."""
    with pytest.warns(UserWarning, match="contraction regime"):
        spec = linear_benchmark(LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                                      c1=0.0, c2=0.0, c3=0.0, s2=1.0))
    g = make_grid(T=0.5, h=0.025, tau=1.0)
    dw2 = brownian(3, range(2), W2, g)
    _, y = simulate_coupled(spec, constant_segment(g.tau, g.h, 1.0),
                            constant_segment(g.tau, g.h, 0.0), eps, g,
                            brownian(3, range(2), W1, g), dw2)
    return y[g.tau_steps + 1:], dw2


def test_fast_increments_quarter_epsilon_is_exactly_double():
    """The kernel scales the fast noise by epsilon ** -0.5: each step is 2 * dw2, bit for bit."""
    y, dw2 = _fast_path_and_dw2(0.25)
    assert np.array_equal(y, np.add.accumulate(2.0 * dw2, axis=0))


def test_fast_increments_epsilon_one_is_identity():
    """At epsilon = 1 each fast step is dw2 itself, bit for bit."""
    y, dw2 = _fast_path_and_dw2(1.0)
    assert np.array_equal(y, np.add.accumulate(dw2, axis=0))


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


SRC = Path(__file__).resolve().parents[1] / "src" / "twoscale"


def _imported(tree):
    """Every module name tree imports, relative imports resolved inside twoscale."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["twoscale" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def test_noise_crosses_the_kernel_boundary_as_arrays():
    """The kernels import nothing from noise; only noise.py builds a NoiseStream."""
    for name in ("solver.py", "averaging.py"):
        assert "twoscale.noise" not in set(_imported(ast.parse((SRC / name).read_text()))), name
    for path in sorted(SRC.glob("*.py")):
        if path.name == "noise.py":
            continue
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)}
        assert "NoiseStream" not in called, path.name
