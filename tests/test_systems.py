import numpy as np
import pytest

from twoscale.errors import ConfigError, DataError, DomainError, UsageError
from twoscale.segment import Segment, constant_segment
from twoscale.systems import (
    LinearBenchmarkParams,
    SystemSpec,
    build_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    check_initial_segment,
    linear_benchmark,
    random_point_sampler,
    random_segment_pair_sampler,
    register_system,
    spot_check_purity,
)

import test_golden  # noqa: F401  (registers the n = 2 system "golden_plane")

BENCH = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3, c1=1.0, c2=2.0, c3=0.5, s2=0.3)


def test_benchmark_closed_forms():
    assert BENCH.dissipative
    assert BENCH.gain == pytest.approx(2.0 / 3.0)
    assert BENCH.kappa == pytest.approx(-1.0 / 3.0)
    assert BENCH.lambda_pair == (3.5, 0.5)


def test_benchmark_averaged_drift_reads_window_endpoint():
    chi = (2.0 + (np.arange(5) - 4) * 0.25)[:, None]
    out = BENCH.averaged_drift(chi)
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
    chi = constant_segment(1.0, 0.25, 2.0).values
    phi = constant_segment(1.0, 0.25, -1.0).values
    assert spec.b1(chi, phi)[0] == pytest.approx(-1.0 * 2.0 + 1.0 * -1.0)
    assert spec.sigma1(chi)[0, 0] == 0.3
    y = np.array([0.5])
    yt = np.array([0.25])
    # c1 x - c2 y + c3 y_tau with x = chi(0) = 2.
    assert spec.b2(chi, y, yt)[0] == pytest.approx(2.0 - 1.0 + 0.125)
    assert spec.sigma2(chi, y, yt)[0, 0] == 0.3


def test_spec_validates_dimensions():
    with pytest.raises(DomainError):
        SystemSpec(n=0, m=1, tau=1.0, b1=None, sigma1=None, b2=None, sigma2=None)
    with pytest.raises(DomainError):
        SystemSpec(n=1, m=1, tau=-1.0, b1=None, sigma1=None, b2=None, sigma2=None)


def test_dissipativity_candidate_pass_and_fail():
    spec = linear_benchmark(BENCH)
    sampler = random_point_sampler(1.0, 0.25, 1)
    good = check_dissipativity(spec, sampler, 500, candidate=BENCH.lambda_pair,
                               rng_seed=11)
    assert good.passed
    assert good.worst_violation <= 1e-9
    assert good.sample_count == 500
    # lambda1 too aggressive: the inequality fails on sampled points.
    bad = check_dissipativity(spec, sampler, 500, candidate=(50.0, 0.5), rng_seed=11)
    assert not bad.passed
    assert bad.worst_violation > 0.0
    # Ordering l1 > l2 > 0 is part of the verdict even if no violation.
    disordered = check_dissipativity(spec, sampler, 100, candidate=(0.4, 0.5),
                                     rng_seed=11)
    assert not disordered.passed


def test_dissipativity_fit_finds_contraction_pair():
    spec = linear_benchmark(BENCH)
    sampler = random_point_sampler(1.0, 0.25, 1)
    rep = check_dissipativity(spec, sampler, 800, rng_seed=3)
    assert rep.passed
    assert rep.lambda1 > rep.lambda2 > 0.0
    # Certified pair is (2 c2 - c3, c3); the fitted gap should not beat
    # the true spectral bound 2(c2 - c3) by much nor collapse below it.
    gap = rep.lambda1 - rep.lambda2
    assert gap > 0.5 * (2.0 * (BENCH.c2 - BENCH.c3))


def test_dissipativity_random_contractive_family():
    """Every (c2, c3) with c2 > c3 > 0 passes at its certified pair."""
    rng = np.random.default_rng(606)
    for _ in range(20):
        c3 = float(rng.uniform(0.05, 2.0))
        c2 = c3 + float(rng.uniform(0.05, 2.0))
        params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                       c1=float(rng.uniform(-2, 2)),
                                       c2=c2, c3=c3, s2=0.3)
        spec = linear_benchmark(params)
        sampler = random_point_sampler(1.0, 0.5, 1)
        rep = check_dissipativity(spec, sampler, 200, candidate=params.lambda_pair,
                                  rng_seed=int(rng.integers(0, 1 << 30)))
        assert rep.passed, (c2, c3, rep.worst_violation)


def test_dissipativity_expanding_fast_map_fails_fit():
    # c3 > c2 admits no valid pair: along dx parallel to dy the required
    # lambda2 exceeds any lambda1 <= 2 c2.
    with pytest.warns(UserWarning):
        params = LinearBenchmarkParams(a11=-1.0, a12=1.0, s1=0.3,
                                       c1=1.0, c2=0.5, c3=2.0, s2=0.3)
    spec = linear_benchmark(params)
    sampler = random_point_sampler(1.0, 0.5, 1)
    rep = check_dissipativity(spec, sampler, 800, rng_seed=17)
    assert not rep.passed


def test_dissipativity_accepts_prebuilt_sample_list():
    spec = linear_benchmark(BENCH)
    sampler = random_point_sampler(1.0, 0.5, 1)
    rng = np.random.default_rng(0)
    samples = [sampler(rng) for _ in range(50)]
    rep = check_dissipativity(spec, samples, 0, candidate=BENCH.lambda_pair)
    assert rep.sample_count == 50
    with pytest.raises(UsageError):
        check_dissipativity(spec, [], 0, candidate=BENCH.lambda_pair)


def test_growth_check_passes_linear_system():
    spec = linear_benchmark(BENCH)
    sampler = random_segment_pair_sampler(1.0, 0.25, 1)
    rep = check_growth_and_lipschitz(spec, sampler, 400, rng_seed=5)
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
    state = {"i": 0}

    def ramped(rng):
        # Geometric amplitude ramp: the cubic ratio ~ amp^2 then grows
        # fast enough that the last quartile dwarfs the earlier maximum.
        state["i"] += 1
        amp = 0.5 * 1.15 ** state["i"]
        chi = amp * np.ones((steps + 1, 1))
        phi = rng.standard_normal((steps + 1, 1))
        return chi, phi

    rep = check_growth_and_lipschitz(spec, ramped, 64, rng_seed=0)
    assert not rep.passed


def test_initial_segment_slope_cap():
    ramp = Segment(1.0, 0.125, 2.0 * (np.arange(9) - 8) * 0.125)
    assert check_initial_segment(ramp, 10.0)
    assert check_initial_segment(ramp, 2.0)
    assert not check_initial_segment(ramp, 1.0)
    with pytest.raises(DomainError):
        check_initial_segment(ramp, -1.0)


def test_purity_spot_check():
    assert spot_check_purity(linear_benchmark(BENCH), rng_seed=2)

    hits = {"n": 0}

    def impure_b1(chi, phi):
        hits["n"] += 1
        return np.array([float(hits["n"])])

    spec = SystemSpec(n=1, m=1, tau=1.0, b1=impure_b1,
                      sigma1=lambda c: np.array([[1.0]]),
                      b2=lambda c, y, yt: -y,
                      sigma2=lambda c, y, yt: np.array([[1.0]]))
    assert not spot_check_purity(spec, rng_seed=2)


def test_registry_round_trip():
    register_system("unit_test_linear", lambda: linear_benchmark(BENCH), replace=True)
    spec = build_system({"kind": "registered", "name": "unit_test_linear"})
    assert spec.benchmark is BENCH
    with pytest.raises(UsageError):
        register_system("unit_test_linear", lambda: linear_benchmark(BENCH))
    with pytest.raises(ConfigError):
        build_system({"kind": "registered", "name": "missing_system"})


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
    rng = np.random.default_rng(1)
    pt = random_point_sampler(1.0, 0.25, 2)(rng)
    chi, x, xp, y, yp = pt
    assert chi.shape == (5, 2)
    for v in (x, xp, y, yp):
        assert v.shape == (2,)
    chi2, phi2 = random_segment_pair_sampler(1.0, 0.25, 3)(rng)
    assert chi2.shape == phi2.shape == (5, 3)


def test_checkers_name_the_first_bad_sample():
    """Samples are stacked into one batch, yet a bad one is still named by its index."""
    spec = linear_benchmark(BENCH)
    rng = np.random.default_rng(4)
    points = [random_point_sampler(1.0, 0.5, 1)(rng) for _ in range(6)]

    def with_point(i, slot, value):
        out = list(points)
        out[i] = tuple(value if j == slot else v for j, v in enumerate(points[i]))
        return out

    cases = [
        (with_point(3, 1, np.zeros(2)), r"x of sample 3 is not a float array of shape \(1,\)"),
        (with_point(2, 4, 0.5), r"y' of sample 2 is not a float array of shape \(1,\)"),
        (with_point(5, 2, ["abc"]), r"x' of sample 5 is not a float array of shape \(1,\)"),
        (with_point(1, 2, {}), r"x' of sample 1 is not a float array of shape \(1,\)"),
        (with_point(4, 3, np.array([np.nan])), "non-finite y on sample 4"),
        (with_point(1, 0, np.full((3, 1), np.inf)), "non-finite chi on sample 1"),
    ]
    for samples, message in cases:
        with pytest.raises(DataError, match=message):
            check_dissipativity(spec, samples, 0, candidate=BENCH.lambda_pair)

    # A map that returns a non-finite value on one sample of the batch.
    spiky = SystemSpec(
        n=1, m=1, tau=1.0, b1=lambda chi, phi: np.where(chi[-1] > 50.0, np.inf, 0.0),
        sigma1=lambda chi: np.array([[0.3]]), b2=lambda c, y, yt: -y,
        sigma2=lambda c, y, yt: np.where(y[:, :, None] > 50.0, np.nan, 0.1))
    pairs = [(np.full((3, 1), v), np.zeros((3, 1))) for v in (1.0, 2.0, 99.0, 1.0)]
    with pytest.raises(DataError, match="non-finite b1 value on sample 2"):
        check_growth_and_lipschitz(spiky, pairs, 0)
    with pytest.raises(DataError, match=r"phi of sample 1 is not a float array of shape \(3, 1\)"):
        check_growth_and_lipschitz(spiky, [pairs[0], (pairs[1][0], np.zeros((4, 1)))], 0)
    hot = with_point(5, 1, np.array([99.0]))  # x is the fast state the maps read as y
    with pytest.raises(DataError, match="non-finite sigma2 value on sample 5"):
        check_dissipativity(spiky, hot, 0)


def test_checkers_match_their_one_sample_results():
    """A batched check of many samples equals the checks of each sample on its own."""
    spec = build_system({"kind": "registered", "name": "golden_plane"})
    rng = np.random.default_rng(8)
    points = [random_point_sampler(1.0, 0.25, 2)(rng) for _ in range(40)]
    pairs = [random_segment_pair_sampler(1.0, 0.25, 2)(rng) for _ in range(40)]
    worst = max(check_dissipativity(spec, [pt], 0, candidate=(2.0, 0.5)).worst_violation
                for pt in points)
    assert check_dissipativity(spec, points, 0, candidate=(2.0, 0.5)).worst_violation == worst
    estimate = max(check_growth_and_lipschitz(spec, [pair], 0).L_estimate for pair in pairs)
    assert check_growth_and_lipschitz(spec, pairs, 0).L_estimate == estimate
