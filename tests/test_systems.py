import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale.averaging import closed_form_drift
from twoscale.errors import ConfigError, DataError, DomainError, UsageError
from twoscale.segment import constant_segment, window
from twoscale.systems import (
    LinearBenchmarkParams,
    SystemSpec,
    build_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    check_initial_segment,
    linear_benchmark,
    random_points,
    random_segment_pairs,
    register_system,
    spot_check_purity,
)

import test_golden  # noqa: F401  (registers the n = 2 system "golden_plane")

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def test_benchmark_closed_forms():
    assert BENCH.dissipative
    assert BENCH.gain == pytest.approx(2.0 / 3.0)
    assert BENCH.kappa == pytest.approx(-1.0 / 3.0)


def test_benchmark_averaged_drift_reads_window_endpoint():
    chi = (2.0 + (np.arange(5) - 4) * 0.25)[:, None]
    out = closed_form_drift(linear_benchmark(BENCH))(chi)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(BENCH.kappa * 2.0)


def test_non_dissipative_params_warn():
    with pytest.warns(UserWarning, match="contraction regime"):
        bad = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                    c1=1.0, c2=0.5, c3=2.0, s2=0.3)
    assert not bad.dissipative


def test_benchmark_params_must_be_finite():
    with pytest.raises(DataError):
        LinearBenchmarkParams(a11=np.nan, a12=1.0, s1=0.3,
                              c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def test_linear_benchmark_coefficients():
    spec = linear_benchmark(BENCH, tau=1.0)
    assert (spec.n, spec.m, spec.tau) == (1, 1, 1.0)
    chi = constant_segment(1.0, 0.25, 2.0)
    phi = constant_segment(1.0, 0.25, -1.0)
    assert spec.b1(chi, phi)[0] == pytest.approx(-1.0 * 2.0 + 1.0 * -1.0)
    assert spec.sigma1(chi)[0, 0] == 0.3
    y = np.array([0.5])
    yt = np.array([0.25])
    # c1 x - c2 y + c3 y_tau with x = chi(0) = 2.
    assert spec.b2(chi, y, yt)[0] == pytest.approx(2.0 - 1.0 + 0.125)
    assert spec.sigma2(chi, y, yt)[0, 0] == 0.3


# Signed zeros, the smallest subnormal, a subnormal near the normal range
# and the largest magnitudes the products below keep finite.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e300, -1e300]
_INPUTS = st.one_of(st.sampled_from(_EDGES), st.floats(-1e300, 1e300))
_PARAMS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_PARAMS, min_size=7, max_size=7),
       st.lists(st.tuples(_INPUTS, _INPUTS, _INPUTS, _INPUTS), min_size=1, max_size=4))
def test_linear_benchmark_maps_match_float_formulas(values, points):
    """The maps give, bit for bit, the formulas evaluated in Python floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # parameters outside the contraction regime
        params = LinearBenchmarkParams(*values)
    spec = linear_benchmark(params)
    x, phi, y, y_tau = (np.array([[pt[i]] for pt in points]) for i in range(4))
    # Two-row windows whose rows before "now" hold a value the maps must not read.
    chi, phi = (np.stack([np.full_like(v, 7.0), v]) for v in (x, phi))
    b1 = [params.a11 * u + params.a12 * f for u, f, _, _ in points]
    b2 = [params.c1 * u - params.c2 * v + params.c3 * w for u, _, v, w in points]
    for got, want in ((spec.b1(chi, phi), b1), (spec.b2(chi, y, y_tau), b2)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want)[:, None].tobytes()


def test_spec_validates_dimensions():
    with pytest.raises(DomainError):
        SystemSpec(n=0, m=1, tau=1.0, b1=None, sigma1=None, b2=None, sigma2=None)
    with pytest.raises(DomainError):
        SystemSpec(n=1, m=1, tau=-1.0, b1=None, sigma1=None, b2=None, sigma2=None)


def _benchmark_check(c2, c3, trials, seed, c1=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # c2 <= c3 is outside the contraction regime
        params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=c1, c2=c2, c3=c3, s2=0.3)
    points = random_points(np.random.default_rng(seed), trials, 1.0, 0.5, 1)
    return check_dissipativity(linear_benchmark(params), *points)


def test_dissipativity_fit_finds_contraction_pair():
    spec = linear_benchmark(BENCH)
    rep = check_dissipativity(spec, *random_points(np.random.default_rng(3), 800, 1.0, 0.25, 1))
    assert rep.passed
    assert rep.lambda1 > rep.lambda2 > 0.0
    # The pair (2 c2 - c3, c3) satisfies every sample, so the largest
    # certified gap is at least its gap 2 (c2 - c3).
    gap = rep.lambda1 - rep.lambda2
    assert gap >= 2.0 * (BENCH.c2 - BENCH.c3) * (1.0 - 1e-9)
    assert abs(rep.worst_violation) < 1e-12


def test_dissipativity_random_contractive_family():
    """Every (c2, c3) with c2 > c3 > 0 passes with at least its Young gap."""
    rng = np.random.default_rng(606)
    for _ in range(20):
        c3 = float(rng.uniform(0.05, 2.0))
        c2 = c3 + float(rng.uniform(0.05, 2.0))
        c1 = float(rng.uniform(-2, 2))
        rep = _benchmark_check(c2, c3, 200, int(rng.integers(0, 1 << 30)), c1=c1)
        assert rep.passed, (c2, c3, rep)
        assert rep.lambda1 - rep.lambda2 >= 2.0 * (c2 - c3) * (1.0 - 1e-9), (c2, c3, rep)


def test_dissipativity_expanding_fast_map_fails_fit():
    # c3 > c2 admits no valid pair: along dx parallel to dy the required
    # lambda2 exceeds any lambda1 <= 2 c2.
    with pytest.warns(UserWarning):
        params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                       c1=1.0, c2=0.5, c3=2.0, s2=0.3)
    spec = linear_benchmark(params)
    rep = check_dissipativity(spec, *random_points(np.random.default_rng(17), 800, 1.0, 0.5, 1))
    assert not rep.passed


@pytest.mark.parametrize("c2, c3", [(4e-6, 1e-6), (4e-5, 1e-5), (2.0, 0.5), (4e5, 1e5),
                                    (2.0, 1.9), (2.0, 1.99), (2.0, 0.0)])
def test_dissipativity_certificate_is_scale_free(c2, c3):
    """Contracting benchmarks pass at 2,000 samples, from slow to fast and near c2 = c3."""
    for seed in range(20):
        rep = _benchmark_check(c2, c3, 2000, seed)
        assert rep.passed, (seed, rep)
        assert rep.lambda1 - rep.lambda2 >= 2.0 * (c2 - c3) * (1.0 - 1e-9), (seed, rep)


def test_dissipativity_pair_scales_with_the_system():
    # Scaling b2 by s scales every Q by s, so the pair scales by s and the
    # relative floor gives the same verdict at every time unit.
    for seed in range(20):
        ref = _benchmark_check(2.0, 0.5, 2000, seed)
        for s in (2e-6, 2e-5, 2e5):
            rep = _benchmark_check(2.0 * s, 0.5 * s, 2000, seed)
            assert rep.lambda1 == pytest.approx(ref.lambda1 * s, rel=1e-9), (seed, s)
            assert rep.lambda2 == pytest.approx(ref.lambda2 * s, rel=1e-9), (seed, s)


@pytest.mark.parametrize("c2, c3", [(2.0, 2.0), (0.5, 2.0), (4e-6, 4e-6)])
def test_dissipativity_fails_without_contraction(c2, c3):
    for seed in range(20):
        rep = _benchmark_check(c2, c3, 2000, seed)
        assert not rep.passed, (seed, rep)
        assert rep.lambda1 - rep.lambda2 <= 5e-4 * rep.lambda1


def test_dissipativity_zero_delay_coupling_passes_at_lambda2_zero():
    # c3 = 0: the optimum is lambda2 = 0 (up to the rounding of the
    # intercepts a_i = 2 c2).  Every slope b_i is >= 0, so the same lambda1
    # also holds for every small lambda2 > 0.
    rep = _benchmark_check(2.0, 0.0, 2000, 4)
    assert rep.passed and 0.0 <= rep.lambda2 <= 1e-12
    assert rep.lambda1 >= 4.0 * (1.0 - 1e-9)


def _points(rows):
    """n = 1 sample arrays (chi, x, x', y, y') from rows of (x, x', y, y')."""
    return (np.zeros((3, len(rows), 1)), *np.array(rows, dtype=float).T[:, :, None])


def test_dissipativity_sample_with_equal_fast_states():
    # With x = x' a sample reads Q <= lambda2 |dy|^2 only.  The benchmark's
    # Q is 0 there, which leaves the pair as it was.
    spec = linear_benchmark(BENCH)
    base = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.5, -0.5), (2.0, -1.0, 0.3, 0.2)]
    plain = check_dissipativity(spec, *_points(base))
    same = check_dissipativity(spec, *_points(base + [(0.7, 0.7, 1.0, -1.0)]))
    assert same.passed and (same.lambda1, same.lambda2) == (plain.lambda1, plain.lambda2)
    # A diffusion that reads the delayed state makes Q = |dy|^2 > 0 at
    # x = x', a lower bound lambda2 >= 1; the other sample has
    # Q = -8 |dx|^2 and dy = 0, so lambda1 <= 8.
    noisy = SystemSpec(n=1, m=1, tau=1.0, b1=None, sigma1=None,
                       b2=lambda chi, x, y: -4.0 * x + 0.5 * y,
                       sigma2=lambda chi, x, y: y[:, :, None])
    rep = check_dissipativity(noisy, *_points([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]))
    assert (rep.lambda1, rep.lambda2, rep.worst_violation) == (8.0, 1.0, 0.0)
    assert rep.passed
    # With dy = 0 as well, Q > 0 admits no pair.  Only a map that is not
    # pure gives that: this sigma2 returns 0 on its first call, 1 after.
    calls = []

    def stateful(chi, x, y):
        calls.append(1)
        return np.array([[float(len(calls) > 1)]])

    kicked = SystemSpec(n=1, m=1, tau=1.0, b1=None, sigma1=None,
                        b2=lambda chi, x, y: -4.0 * x, sigma2=stateful)
    rep = check_dissipativity(kicked, *_points([(1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0)]))
    assert not rep.passed
    assert np.isnan([rep.lambda1, rep.lambda2, rep.worst_violation]).all()


def test_dissipativity_unbounded_gap_fails():
    # Every sample has |dy| > |dx|: lambda1 <= a_i + b_i lambda2 with all
    # b_i > 1, so the gap grows without bound and certifies nothing.
    spec = linear_benchmark(BENCH)
    rows = [(1.0, 0.0, 3.0, 0.0), (0.0, 0.5, -1.0, 1.0), (2.0, 1.5, 0.0, 4.0)]
    rep = check_dissipativity(spec, *_points(rows))
    assert not rep.passed
    assert np.isnan(rep.lambda1) and np.isnan(rep.lambda2)
    # Samples with x = x' alone do not pin lambda1 either.
    rep = check_dissipativity(spec, *_points([(0.5, 0.5, 1.0, 0.0)]))
    assert not rep.passed


def test_checkers_count_samples_and_refuse_none():
    spec = linear_benchmark(BENCH)
    points = random_points(np.random.default_rng(0), 50, 1.0, 0.5, 1)
    assert check_dissipativity(spec, *points).sample_count == 50
    for check, sample in ((check_dissipativity, random_points),
                          (check_growth_and_lipschitz, random_segment_pairs)):
        with pytest.raises(DataError, match=r"must have shape \(M \+ 1, samples >= 1, n\)"):
            check(spec, *sample(np.random.default_rng(0), 0, 1.0, 0.5, 1))


def test_growth_check_passes_linear_system():
    spec = linear_benchmark(BENCH)
    pairs = random_segment_pairs(np.random.default_rng(5), 400, 1.0, 0.25, 1)
    rep = check_growth_and_lipschitz(spec, *pairs)
    assert rep.passed
    assert np.isfinite(rep.L_estimate)
    parts = {w["part"] for w in rep.max_ratio_points}
    assert "b1_growth" in parts


def test_growth_check_flags_superlinear_drift():
    """Cubic slow drift: growth ratio ~ x^2 climbs with the sample amplitude."""
    steps = 4

    def b1(chi, phi):
        return chi[-1] ** 3

    def sigma1(chi):
        return np.array([[0.3]])

    spec = SystemSpec(n=1, m=1, tau=1.0, b1=b1, sigma1=sigma1,
                      b2=lambda c, y, yt: -y, sigma2=lambda c, y, yt: np.array([[0.1]]))
    # Geometric amplitude ramp over the samples: the cubic ratio ~ amp^2
    # then grows fast enough that the last quartile dwarfs the earlier maximum.
    amp = 0.5 * 1.15 ** np.arange(1, 65)
    chi = np.tile(amp[None, :, None], (steps + 1, 1, 1))
    phi = np.random.default_rng(0).standard_normal((64, steps + 1, 1)).swapaxes(0, 1)
    rep = check_growth_and_lipschitz(spec, chi, phi)
    assert not rep.passed


def test_initial_segment_slope_cap():
    ramp = window(1.0, 0.125, 2.0 * (np.arange(9) - 8) * 0.125)
    assert check_initial_segment(ramp, 0.125, 10.0)
    assert check_initial_segment(ramp, 0.125, 2.0)
    assert not check_initial_segment(ramp, 0.125, 1.0)
    with pytest.raises(DomainError):
        check_initial_segment(ramp, 0.125, -1.0)


def test_purity_spot_check():
    assert spot_check_purity(linear_benchmark(BENCH), 0.125, 2)

    hits = {"n": 0}

    def impure_b1(chi, phi):
        hits["n"] += 1
        return np.array([float(hits["n"])])

    spec = SystemSpec(n=1, m=1, tau=1.0, b1=impure_b1,
                      sigma1=lambda c: np.array([[1.0]]),
                      b2=lambda c, y, yt: -y,
                      sigma2=lambda c, y, yt: np.array([[1.0]]))
    assert not spot_check_purity(spec, 0.125, 2)


def test_registry_round_trip():
    register_system("unit_test_linear", lambda: linear_benchmark(BENCH), replace=True)
    spec = build_system({"kind": "registered", "name": "unit_test_linear"})
    assert spec.benchmark is BENCH
    with pytest.raises(UsageError):
        register_system("unit_test_linear", lambda: linear_benchmark(BENCH))
    with pytest.raises(ConfigError):
        build_system({"kind": "registered", "name": "missing_system"})
    with pytest.raises(UsageError, match="non-empty string"):
        register_system("", lambda: linear_benchmark(BENCH))
    with pytest.raises(UsageError, match="must be callable"):
        register_system("unit_test_not_callable", linear_benchmark(BENCH))
    register_system("unit_test_returns_42", lambda: 42, replace=True)
    with pytest.raises(ConfigError, match="did not return a SystemSpec"):
        build_system({"kind": "registered", "name": "unit_test_returns_42"})


def test_build_system_validation():
    cfg = {"kind": "linear_benchmark",
           "params": {"a11": -1.0, "a12": 1.0, "s1": 0.3,
                      "c1": 1.0, "c2": 2.0, "c3": 0.5, "s2": 0.3},
           "tau": 2.0}
    spec = build_system(cfg)
    assert spec.tau == 2.0
    assert spec.benchmark.kappa == pytest.approx(-1.0 / 3.0)
    with pytest.raises(ConfigError):
        build_system({"kind": "linear_benchmark"})
    with pytest.raises(ConfigError):
        build_system({"kind": "linear_benchmark", "params": {"a11": -1.0}})
    with pytest.raises(ConfigError):
        build_system({"kind": "mystery"})
    with pytest.raises(ConfigError):
        build_system("not a dict")


@pytest.mark.parametrize("cfg, unread", [
    ({"kind": "linear_benchmark", "params": {}, "note": 1}, "note"),
    ({"kind": "linear_benchmark", "params": {}, "name": "unit_test_linear"}, "name"),
    ({"kind": "registered", "name": "unit_test_linear", "params": {}}, "params"),
    ({"kind": "registered", "name": "unit_test_linear", "note": [[[1]]]}, "note"),
])
def test_build_system_refuses_keys_its_kind_does_not_read(cfg, unread):
    """Each kind reads kind, tau and its own params or name; any other key is named."""
    register_system("unit_test_linear", lambda: linear_benchmark(BENCH), replace=True)
    with pytest.raises(ConfigError, match=rf"does not read keys \['{unread}'\]"):
        build_system(cfg)


def test_registered_system_tau_must_match_its_factory():
    register_system("unit_test_linear", lambda: linear_benchmark(BENCH), replace=True)
    cfg = {"kind": "registered", "name": "unit_test_linear"}
    assert build_system(dict(cfg, tau=1.0)).tau == 1.0
    with pytest.raises(ConfigError, match="has tau=1.0, config declares 2.0"):
        build_system(dict(cfg, tau=2.0))
    with pytest.raises(ConfigError, match="system tau must be a number"):
        build_system(dict(cfg, tau="1"))


def test_samplers_produce_wellformed_tuples():
    """Sample i is column i of the window batches and row i of the points, drawn in turn."""
    chi, *points = random_points(np.random.default_rng(1), 7, 1.0, 0.25, 2)
    assert chi.shape == (5, 7, 2) and chi.flags.c_contiguous
    assert [v.shape for v in points] == [(7, 2)] * 4
    ref = np.random.default_rng(1)
    for i in range(7):
        assert np.array_equal(chi[:, i], 3.0 * ref.standard_normal((5, 2)))
        assert np.array_equal(np.stack([v[i] for v in points]), 3.0 * ref.standard_normal((4, 2)))
    chi, phi = random_segment_pairs(np.random.default_rng(1), 6, 1.0, 0.25, 3)
    assert chi.shape == phi.shape == (5, 6, 3)
    assert chi.flags.c_contiguous and phi.flags.c_contiguous
    ref = np.random.default_rng(1)
    for i in range(6):
        amp = 3.0 * ref.uniform(0.2, 1.0)
        assert np.array_equal(chi[:, i], amp * ref.standard_normal((5, 3)))
        assert np.array_equal(phi[:, i], amp * ref.standard_normal((5, 3)))


def test_checkers_name_the_first_bad_sample():
    """The samples are checked as whole arrays, yet a non-finite one is named by its index."""
    spec = linear_benchmark(BENCH)
    arrays = random_points(np.random.default_rng(4), 6, 1.0, 0.5, 1)

    def with_entry(slot, i, value):
        # Sample i is column i of chi (slot 0) and row i of the points.
        out = [a.copy() for a in arrays]
        out[slot][..., i, :] = value
        return out

    cases = [
        ([arrays[0], np.zeros((6, 2)), *arrays[2:]], r"x has shape \(6, 2\), expected \(6, 1\)"),
        ([*arrays[:4], arrays[4][:5]], r"y' has shape \(5, 1\), expected \(6, 1\)"),
        ([arrays[0][:, :, 0], *arrays[1:]], r"must have shape \(M \+ 1, samples >= 1, n\)"),
        (with_entry(3, 4, np.nan), "non-finite y on sample 4"),
        (with_entry(4, 2, -np.inf), "non-finite y' on sample 2"),
        (with_entry(0, 1, np.inf), "non-finite chi on sample 1"),
    ]
    for samples, message in cases:
        with pytest.raises(DataError, match=message):
            check_dissipativity(spec, *samples)

    # A map that returns a non-finite value on one sample of the batch.
    spiky = SystemSpec(
        n=1, m=1, tau=1.0, b1=lambda chi, phi: np.where(chi[-1] > 50.0, np.inf, 0.0),
        sigma1=lambda chi: np.array([[0.3]]), b2=lambda c, y, yt: -y,
        sigma2=lambda c, y, yt: np.where(y[:, :, None] > 50.0, np.nan, 0.1))
    chi = np.tile(np.array([1.0, 2.0, 99.0, 1.0])[None, :, None], (3, 1, 1))
    with pytest.raises(DataError, match="non-finite b1 value on sample 2"):
        check_growth_and_lipschitz(spiky, chi, np.zeros((3, 4, 1)))
    with pytest.raises(DataError, match=r"phi has shape \(4, 4, 1\), expected \(3, 4, 1\)"):
        check_growth_and_lipschitz(spiky, chi, np.zeros((4, 4, 1)))
    hot = with_entry(1, 5, 99.0)  # x is the fast state the maps read as y
    with pytest.raises(DataError, match="non-finite sigma2 value on sample 5"):
        check_dissipativity(spiky, *hot)


def _one_sample_terms(spec, point):
    """Q, |dx|^2 and |dy|^2 of one sample, from one-sample map calls."""
    chi, x, xp, y, yp = point
    chi = chi[:, None]
    b, bp = (np.asarray(spec.b2(chi, u[None], v[None]))[0] for u, v in ((x, y), (xp, yp)))
    s, sp = (np.asarray(spec.sigma2(chi, u[None], v[None])) for u, v in ((x, y), (xp, yp)))
    dx, dy = x - xp, y - yp
    q = 2.0 * float(dx @ (b - bp)) + float(((s - sp) ** 2).sum())
    return q, float(dx @ dx), float(dy @ dy)


def _brute_force_gap(q, dx2, dy2):
    """max of min_i(a_i + b_i l2) - l2 over l2 >= lo, tried at lo and at every pair's crossing."""
    moved = dx2 > 0.0
    lo = max([0.0] + [qi / d for qi, d in zip(q[~moved], dy2[~moved]) if d > 0.0])
    a, b = -q[moved] / dx2[moved], dy2[moved] / dx2[moved]
    tries = [np.array([lo])]
    for ai, bi in zip(a, b):
        apart = b != bi
        cross = (a[apart] - ai) / (bi - b[apart])
        tries.append(cross[cross >= lo])
    lam2 = np.concatenate(tries)
    gaps = np.array([(a + b * lam).min() - lam for lam in lam2])
    best = int(gaps.argmax())
    return gaps[best] + lam2[best], lam2[best]


def test_checkers_match_their_one_sample_results():
    """The batched certificate is the largest gap of an O(N^2) search over one-sample terms."""
    rng = np.random.default_rng(8)
    for spec, n in ((build_system({"kind": "registered", "name": "golden_plane"}), 2),
                    (linear_benchmark(BENCH), 1)):
        arrays = random_points(rng, 200, 1.0, 0.25, n)
        points = [(arrays[0][:, i], *(v[i] for v in arrays[1:])) for i in range(200)]
        q, dx2, dy2 = (np.array(v) for v in zip(*(_one_sample_terms(spec, pt) for pt in points)))
        lam1, lam2 = _brute_force_gap(q, dx2, dy2)
        rep = check_dissipativity(spec, *arrays)
        assert rep.passed
        assert rep.lambda1 == pytest.approx(lam1, rel=1e-12, abs=0.0)
        assert rep.lambda2 == pytest.approx(lam2, rel=1e-12, abs=0.0)
        assert rep.lambda1 - rep.lambda2 == pytest.approx(lam1 - lam2, rel=1e-12, abs=0.0)
        assert rep.worst_violation == pytest.approx((q + lam1 * dx2 - lam2 * dy2).max(),
                                                    abs=1e-12 * lam1)
    spec = build_system({"kind": "registered", "name": "golden_plane"})
    chi, phi = random_segment_pairs(rng, 40, 1.0, 0.25, 2)
    estimate = max(check_growth_and_lipschitz(spec, chi[:, i:i + 1], phi[:, i:i + 1]).L_estimate
                   for i in range(40))
    assert check_growth_and_lipschitz(spec, chi, phi).L_estimate == estimate
