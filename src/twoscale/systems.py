"""Coefficient models and sampling-based structure checks.

A SystemSpec bundles the four coefficient maps of a slow/fast pair with
delay: the slow drift b1(chi, phi) and diffusion sigma1(chi) read whole
history windows, while the fast drift b2(chi, y, y_tau) and diffusion
sigma2(chi, y, y_tau) read the slow window plus the fast state now and
one delay ago.  Windows are float64 arrays of shape (M + 1, n) with row
M = tau / h being "now" (chi[-1] is the current slow state); y and y_tau
have shape (n,).  Maps must be pure and finite-valued; the checkers in
this module probe the structural conditions the averaging experiments
rely on (one-sided contraction of the fast pair, linear growth and
Lipschitz behaviour of the slow pair, a Lipschitz start window).

The built-in scalar linear family has closed-form stationary and
averaged quantities, which the test harness uses as ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, DomainError, UsageError
from .segment import Segment, _node_norms, exact_steps, lipschitz_modulus, sup_norm

_VIOLATION_TOL = 1e-9


def _number(raw, what: str) -> float:
    """raw as a finite float; ConfigError for anything else, bools and strings included."""
    try:
        if isinstance(raw, (bool, str)):
            raise TypeError
        val = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {val}")
    return val


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Dimensions, delay, and the four coefficient maps."""

    n: int
    m: int
    tau: float
    b1: Callable
    sigma1: Callable
    b2: Callable
    sigma2: Callable
    benchmark: Optional["LinearBenchmarkParams"] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError(f"dimensions must be >= 1, got n={self.n}, m={self.m}")
        if self.tau <= 0.0:
            raise DomainError(f"delay tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class LinearBenchmarkParams:
    """Scalar linear slow/fast pair with known closed forms.

    Slow: dX = (a11 X(t) + a12 Y(t)) dt + s1 dW1.
    Fast: dY has drift c1 X(t) - c2 Y(t) + c3 Y(t - tau) and diffusion s2.
    The contraction regime is c2 > c3 > 0.
    """

    a11: float
    a12: float
    s1: float
    c1: float
    c2: float
    c3: float
    s2: float

    def __post_init__(self):
        vals = [self.a11, self.a12, self.s1, self.c1, self.c2, self.c3, self.s2]
        if not np.isfinite(vals).all():
            raise DataError(f"benchmark parameters must be finite, got {vals}")
        if not self.dissipative:
            warnings.warn(
                f"benchmark with c2={self.c2}, c3={self.c3} is outside the "
                "contraction regime c2 > c3 > 0; averaging results do not apply",
                stacklevel=3,
            )

    @property
    def dissipative(self) -> bool:
        return self.c2 > self.c3 > 0.0

    @property
    def lambda_pair(self) -> tuple[float, float]:
        """Contraction pair (2 c2 - c3, c3) certified by Young's inequality."""
        return (2.0 * self.c2 - self.c3, self.c3)

    @property
    def gain(self) -> float:
        """Stationary response c1 / (c2 - c3) of the fast mean per unit of X."""
        if self.c2 == self.c3:
            raise DomainError("c2 == c3: stationary gain undefined")
        return self.c1 / (self.c2 - self.c3)

    @property
    def kappa(self) -> float:
        """Rate of the scalar averaged equation: a11 + a12 * gain."""
        return self.a11 + self.a12 * self.gain

    def averaged_drift(self, chi: np.ndarray) -> np.ndarray:
        """Closed-form averaged slow drift kappa * chi(0)."""
        return self.kappa * chi[-1]


def linear_benchmark(params: LinearBenchmarkParams, tau: float = 1.0) -> SystemSpec:
    """Build the scalar linear SystemSpec for the given parameters."""
    a11, a12 = params.a11, params.a12
    c1, c2, c3 = params.c1, params.c2, params.c3
    s1_mat = np.array([[params.s1]])
    s1_mat.setflags(write=False)
    s2_mat = np.array([[params.s2]])
    s2_mat.setflags(write=False)

    def b1(chi: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return a11 * chi[-1] + a12 * phi[-1]

    def sigma1(chi: np.ndarray) -> np.ndarray:
        return s1_mat

    def b2(chi: np.ndarray, y: np.ndarray, y_tau: np.ndarray) -> np.ndarray:
        return c1 * chi[-1] - c2 * y + c3 * y_tau

    def sigma2(chi: np.ndarray, y: np.ndarray, y_tau: np.ndarray) -> np.ndarray:
        return s2_mat

    return SystemSpec(
        n=1, m=1, tau=tau,
        b1=b1, sigma1=sigma1, b2=b2, sigma2=sigma2,
        benchmark=params, name="linear_benchmark",
    )


@dataclass(frozen=True)
class DissipativityReport:
    lambda1: float
    lambda2: float
    worst_violation: float
    sample_count: int
    verdict: str  # "pass" | "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class GrowthReport:
    L_estimate: float
    max_ratio_points: list = field(default_factory=list)
    verdict: str = "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _as_vec(value, n: int, what: str, sample_index: int) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = out[None]
    if out.shape != (n,):
        raise DataError(f"{what} returned shape {out.shape}, expected ({n},)")
    if not np.isfinite(out).all():
        raise DataError(f"{what} returned non-finite value {out!r} on sample {sample_index}")
    return out


def _as_mat(value, n: int, m: int, what: str, sample_index: int) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape != (n, m):
        raise DataError(f"{what} returned shape {out.shape}, expected ({n}, {m})")
    if not np.isfinite(out).all():
        raise DataError(f"{what} returned non-finite value on sample {sample_index}")
    return out


def _materialize(sampler, trials: int, rng_seed: int) -> list:
    """Accept either a callable sampler(rng) or a pre-built sequence."""
    if callable(sampler):
        if trials < 1:
            raise UsageError(f"trials must be >= 1, got {trials}")
        rng = np.random.default_rng(rng_seed)
        return [sampler(rng) for _ in range(trials)]
    samples = list(sampler)
    if not samples:
        raise UsageError("sampler sequence is empty")
    return samples


def check_dissipativity(
    spec: SystemSpec,
    point_sampler,
    trials: int,
    candidate: tuple[float, float] | None = None,
    *,
    rng_seed: int = 0,
    tol: float = _VIOLATION_TOL,
) -> DissipativityReport:
    """Probe the one-sided contraction inequality of the fast coefficients.

    For sampled (chi, x, x', y, y') this computes
        Q = 2 <x - x', b2(chi, x, y) - b2(chi, x', y')>
            + ||sigma2(chi, x, y) - sigma2(chi, x', y')||_F^2
    and checks Q <= -lambda1 |x - x'|^2 + lambda2 |y - y'|^2.  With a
    candidate pair the worst sampled violation decides the verdict; with
    none, a log-grid search (refined twice) looks for a feasible pair with
    lambda1 > lambda2 > 0, preferring the largest gap lambda1 - lambda2
    since that gap controls the contraction rate.
    """
    samples = _materialize(point_sampler, trials, rng_seed)
    count = len(samples)
    q = np.empty(count)
    dx2 = np.empty(count)
    dy2 = np.empty(count)
    for i, (chi, x, xp, y, yp) in enumerate(samples):
        x = _as_vec(x, spec.n, "sample x", i)
        xp = _as_vec(xp, spec.n, "sample x'", i)
        y = _as_vec(y, spec.n, "sample y", i)
        yp = _as_vec(yp, spec.n, "sample y'", i)
        b = _as_vec(spec.b2(chi, x, y), spec.n, "b2", i)
        bp = _as_vec(spec.b2(chi, xp, yp), spec.n, "b2", i)
        s = _as_mat(spec.sigma2(chi, x, y), spec.n, spec.m, "sigma2", i)
        sp = _as_mat(spec.sigma2(chi, xp, yp), spec.n, spec.m, "sigma2", i)
        dx = x - xp
        dy = y - yp
        q[i] = 2.0 * float(dx @ (b - bp)) + float(((s - sp) ** 2).sum())
        dx2[i] = float(dx @ dx)
        dy2[i] = float(dy @ dy)

    def worst_for(l1: float, l2: float) -> float:
        return float((q + l1 * dx2 - l2 * dy2).max())

    if candidate is not None:
        l1, l2 = float(candidate[0]), float(candidate[1])
        worst = worst_for(l1, l2)
        ok = worst <= tol and l1 > l2 > 0.0
        return DissipativityReport(l1, l2, worst, count, "pass" if ok else "fail")

    best = None  # (feasible, score, l1, l2, worst)
    lo, hi = -3.0, 3.0
    center1 = center2 = None
    for refinement in range(3):
        if center1 is None:
            grid1 = np.logspace(lo, hi, 25)
            grid2 = np.logspace(lo, hi, 25)
        else:
            span = 0.5 / (2.0 ** refinement)
            grid1 = np.logspace(np.log10(center1) - span, np.log10(center1) + span, 15)
            grid2 = np.logspace(np.log10(center2) - span, np.log10(center2) + span, 15)
        for l2 in grid2:
            base = q - l2 * dy2
            for l1 in grid1:
                if not l1 > l2:
                    continue
                worst = float((base + l1 * dx2).max())
                feasible = worst <= tol
                score = (l1 - l2) if feasible else -worst
                key = (feasible, score)
                if best is None or key > (best[0], best[1]):
                    best = (feasible, score, l1, l2, worst)
        if best is None:
            # Entire grid violated l1 > l2; fall back to a token infeasible pair.
            best = (False, -worst_for(1.0, 0.5), 1.0, 0.5, worst_for(1.0, 0.5))
        center1, center2 = best[2], best[3]

    feasible, _, l1, l2, worst = best
    ok = feasible and l1 > l2 > 0.0
    return DissipativityReport(l1, l2, worst, count, "pass" if ok else "fail")


def _ratio_series_stable(ratios: list[float]) -> bool:
    # Drift detector: the last quartile of the sampled ratios must not blow
    # past the maximum seen over the first three quarters.
    r = np.asarray(ratios, dtype=float)
    if r.size < 8:
        return bool(np.isfinite(r).all()) if r.size else True
    if not np.isfinite(r).all():
        return False
    cut = (3 * r.size) // 4
    head = float(r[:cut].max())
    tail = float(r[cut:].max())
    if head <= 0.0:
        return tail <= 0.0
    return tail <= 2.0 * head


def check_growth_and_lipschitz(
    spec: SystemSpec,
    segment_sampler,
    trials: int,
    *,
    rng_seed: int = 0,
) -> GrowthReport:
    """Estimate the slow pair's growth/Lipschitz constant by sampling.

    Ratios |b1(chi, phi)| / (1 + sup_norm(chi)) and
    ||sigma1(phi) - sigma1(chi)||_F / sup-gap(phi, chi) are collected over
    sampled window pairs; coincident pairs are skipped for the second.
    The verdict fails when either series is non-finite or its last
    quartile drifts above twice the earlier maximum.
    """
    samples = _materialize(segment_sampler, trials, rng_seed)
    growth: list[float] = []
    lip: list[float] = []
    growth_witness = None
    lip_witness = None
    for i, (chi, phi) in enumerate(samples):
        b = _as_vec(spec.b1(chi, phi), spec.n, "b1", i)
        g = float(np.linalg.norm(b)) / (1.0 + sup_norm(chi))
        if growth_witness is None or g > growth_witness["ratio"]:
            growth_witness = {
                "part": "b1_growth", "ratio": g,
                "chi_sup": sup_norm(chi), "phi_sup": sup_norm(phi),
            }
        growth.append(g)
        s_chi = _as_mat(spec.sigma1(chi), spec.n, spec.m, "sigma1", i)
        s_phi = _as_mat(spec.sigma1(phi), spec.n, spec.m, "sigma1", i)
        gap = float(_node_norms(phi - chi).max())
        if gap > 0.0:
            ell = float(np.linalg.norm(s_phi - s_chi)) / gap
            if lip_witness is None or ell > lip_witness["ratio"]:
                lip_witness = {
                    "part": "sigma1_lipschitz", "ratio": ell,
                    "chi_sup": sup_norm(chi), "phi_sup": sup_norm(phi),
                }
            lip.append(ell)

    l_est = max(max(growth, default=0.0), max(lip, default=0.0))
    stable = _ratio_series_stable(growth) and _ratio_series_stable(lip)
    verdict = "pass" if (np.isfinite(l_est) and stable) else "fail"
    witnesses = [w for w in (growth_witness, lip_witness) if w is not None]
    return GrowthReport(L_estimate=float(l_est), max_ratio_points=witnesses, verdict=verdict)


def check_initial_segment(seg: Segment, lambda3_cap: float) -> bool:
    """True when the window's discrete slope stays within lambda3_cap."""
    if lambda3_cap < 0.0:
        raise DomainError(f"lambda3_cap must be >= 0, got {lambda3_cap}")
    return lipschitz_modulus(seg) <= lambda3_cap * (1.0 + 1e-6) + 1e-12


def spot_check_purity(spec: SystemSpec, *, h: float | None = None, rng_seed: int = 0) -> bool:
    """Call every coefficient map twice on one input; compare bit-exactly."""
    if h is None:
        h = spec.tau / 8.0
    steps = exact_steps(spec.tau, h, "tau")
    rng = np.random.default_rng(rng_seed)
    chi = rng.standard_normal((steps + 1, spec.n))
    phi = rng.standard_normal((steps + 1, spec.n))
    y = rng.standard_normal(spec.n)
    y_tau = rng.standard_normal(spec.n)
    pairs = [
        (spec.b1(chi, phi), spec.b1(chi, phi)),
        (spec.sigma1(chi), spec.sigma1(chi)),
        (spec.b2(chi, y, y_tau), spec.b2(chi, y, y_tau)),
        (spec.sigma2(chi, y, y_tau), spec.sigma2(chi, y, y_tau)),
    ]
    return all(np.array_equal(np.asarray(a, float), np.asarray(b, float)) for a, b in pairs)


def random_point_sampler(tau: float, h: float, n: int, amplitude: float = 3.0):
    """Sampler of (chi, x, x', y, y') tuples for check_dissipativity; chi is a window array."""
    steps = exact_steps(tau, h, "tau")

    def sample(rng: np.random.Generator):
        chi = amplitude * rng.standard_normal((steps + 1, n))
        pts = amplitude * rng.standard_normal((4, n))
        return (chi, pts[0], pts[1], pts[2], pts[3])

    return sample


def random_segment_pair_sampler(tau: float, h: float, n: int, amplitude: float = 3.0):
    """Sampler of (chi, phi) window-array pairs with comparable amplitudes."""
    steps = exact_steps(tau, h, "tau")

    def sample(rng: np.random.Generator):
        amp = amplitude * rng.uniform(0.2, 1.0)
        chi = amp * rng.standard_normal((steps + 1, n))
        phi = amp * rng.standard_normal((steps + 1, n))
        return chi, phi

    return sample


_REGISTRY: dict[str, Callable[[], SystemSpec]] = {}


def register_system(name: str, factory: Callable[[], SystemSpec], *, replace: bool = False):
    """Expose a SystemSpec factory to scenario configs under a string name."""
    if not isinstance(name, str) or not name:
        raise UsageError("system name must be a non-empty string")
    if not callable(factory):
        raise UsageError("factory must be callable")
    if name in _REGISTRY and not replace:
        raise UsageError(f"system {name!r} already registered")
    _REGISTRY[name] = factory


def build_system(config: dict) -> SystemSpec:
    """Instantiate a SystemSpec from scenario-config JSON."""
    if not isinstance(config, dict):
        raise ConfigError(f"system config must be an object, got {type(config).__name__}")
    kind = config.get("kind")
    if kind == "linear_benchmark":
        params = config.get("params")
        if not isinstance(params, dict):
            raise ConfigError("linear_benchmark config needs a params object")
        tau = float(config.get("tau", 1.0))
        values = {k: _number(v, f"linear_benchmark params {k}") for k, v in params.items()}
        try:
            bench = LinearBenchmarkParams(**values)
        except TypeError as exc:
            raise ConfigError(f"bad linear_benchmark params: {exc}") from exc
        return linear_benchmark(bench, tau=tau)
    if kind == "registered":
        name = config.get("name")
        if not isinstance(name, str) or name not in _REGISTRY:
            raise ConfigError(f"unknown registered system {name!r}")
        spec = _REGISTRY[name]()
        if not isinstance(spec, SystemSpec):
            raise ConfigError(f"factory for {name!r} did not return a SystemSpec")
        return spec
    raise ConfigError(f"unknown system kind {kind!r}")
