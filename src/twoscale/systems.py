"""Coefficient models and sampling-based structure checks.

A SystemSpec bundles the four coefficient maps of a slow/fast pair with
delay: the slow drift b1(chi, phi) and diffusion sigma1(chi) read whole
history windows, while the fast drift b2(chi, y, y_tau) and diffusion
sigma2(chi, y, y_tau) read the slow window plus the fast state now and
one delay ago.  Maps see a batch of P paths at once: windows are float64
arrays of shape (M + 1, P, n) with row M = tau / h being "now" (chi[-1]
is the (P, n) current slow state), and y and y_tau have shape (P, n).
Maps act on the last axis and return a drift of shape (P, n) and a
diffusion of shape (n, m), shared by the batch, or (P, n, m); returning
the same read-only array, owning its data, every call makes a diffusion
constant.  Maps must be pure, finite-valued and act on each path on its
own; kernels check for divergence every 16 steps, so a map may see a
diverged state.  The checkers call each map once on all their samples as
one batch and probe the structural conditions the averaging experiments
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
from .segment import Segment, _node_norms, _row_dots, exact_steps, lipschitz_modulus

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


def _drift(value, p: int, n: int, name: str) -> np.ndarray:
    """A drift map's value as a (p, n) array; DataError for any other shape."""
    out = np.asarray(value, dtype=float)
    if out.shape != (p, n):
        raise DataError(f"{name} returned shape {out.shape}, expected (paths, n) = ({p}, {n})")
    return out


def _diffusion(value, p: int, n: int, m: int, name: str) -> np.ndarray:
    """A diffusion map's value, (n, m) or (p, n, m); DataError for any other shape."""
    out = np.asarray(value, dtype=float)
    if out.shape != (n, m) and out.shape != (p, n, m):
        raise DataError(
            f"{name} returned shape {out.shape}, expected (n, m) = ({n}, {m}) "
            f"or (paths, n, m) = ({p}, {n}, {m})"
        )
    return out


def _finite(value: np.ndarray, size: int, what: str) -> np.ndarray:
    """value, checked finite in blocks of size entries: one per sample, or one for all."""
    bad = ~np.isfinite(value.reshape(-1, size)).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite {what} on sample {int(bad.argmax())}")
    return value


def _fits(value, shape: tuple) -> bool:
    try:
        return np.asarray(value, dtype=float).shape == shape
    except (TypeError, ValueError):
        return False


def _stacked(values, shape: tuple, what: str) -> np.ndarray:
    """Sampled arrays as one finite (count, *shape) array; DataError names the first bad one."""
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape[1:] != shape:
        i = next(i for i, v in enumerate(values) if not _fits(v, shape))
        raise DataError(f"{what} of sample {i} is not a float array of shape {shape}")
    return _finite(out, max(1, out[0].size), what)


def _windows(values, shape: tuple, what: str) -> np.ndarray:
    """Sampled (M + 1, n) windows as one contiguous (M + 1, count, n) batch."""
    return np.ascontiguousarray(_stacked(values, shape, what).swapaxes(0, 1))


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
    count, n, m = len(samples), spec.n, spec.m
    chis, *points = zip(*samples)
    chi = _windows(chis, np.shape(chis[0]), "chi")
    x, xp, y, yp = (_stacked(v, (n,), what) for v, what in zip(points, ("x", "x'", "y", "y'")))
    b, bp = (_finite(_drift(spec.b2(chi, u, v), count, n, "b2"), n, "b2 value")
             for u, v in ((x, y), (xp, yp)))
    s, sp = (_finite(_diffusion(spec.sigma2(chi, u, v), count, n, m, "sigma2"), n * m,
                     "sigma2 value") for u, v in ((x, y), (xp, yp)))
    dx = x - xp
    dy = y - yp
    # The Frobenius term sums each sample's own (n, m) block.
    q = 2.0 * _row_dots(dx, b - bp) + ((s - sp) ** 2).reshape(-1, n * m).sum(axis=1)
    dx2 = _row_dots(dx, dx)
    dy2 = _row_dots(dy, dy)

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


def _ratio_series_stable(ratios: np.ndarray) -> bool:
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
    count, n, m = len(samples), spec.n, spec.m
    chis, phis = zip(*samples)
    chi, phi = (_windows(v, np.shape(chis[0]), what) for v, what in ((chis, "chi"), (phis, "phi")))
    chi_sup = _node_norms(chi).max(axis=0)
    phi_sup = _node_norms(phi).max(axis=0)

    def witness(part, ratios, at):
        i = at[int(np.argmax(ratios))]
        return {"part": part, "ratio": float(ratios.max()),
                "chi_sup": float(chi_sup[i]), "phi_sup": float(phi_sup[i])}

    b = _finite(_drift(spec.b1(chi, phi), count, n, "b1"), n, "b1 value")
    growth = np.sqrt(_row_dots(b, b)) / (1.0 + chi_sup)
    s_chi, s_phi = (_finite(_diffusion(spec.sigma1(w), count, n, m, "sigma1"), n * m,
                            "sigma1 value") for w in (chi, phi))
    gap = _node_norms(phi - chi).max(axis=0)
    # Coincident pairs have no Lipschitz ratio; the Frobenius norm of each
    # pair's (n, m) difference is the norm of its flattened block.
    moved = np.flatnonzero(gap > 0.0)
    diff = np.broadcast_to(s_phi - s_chi, (count, n, m)).reshape(count, n * m)[moved]
    lip = np.sqrt(_row_dots(diff, diff)) / gap[moved]

    l_est = max(float(growth.max()), float(lip.max(initial=0.0)))
    stable = _ratio_series_stable(growth) and _ratio_series_stable(lip)
    verdict = "pass" if (np.isfinite(l_est) and stable) else "fail"
    witnesses = [witness("b1_growth", growth, np.arange(count))]
    if moved.size:
        witnesses.append(witness("sigma1_lipschitz", lip, moved))
    return GrowthReport(L_estimate=l_est, max_ratio_points=witnesses, verdict=verdict)


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
    # One-path batches: windows (M + 1, 1, n), states (1, n).
    chi = rng.standard_normal((steps + 1, 1, spec.n))
    phi = rng.standard_normal((steps + 1, 1, spec.n))
    y = rng.standard_normal((1, spec.n))
    y_tau = rng.standard_normal((1, spec.n))
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


# The keys build_system reads for each system kind.  Any other key would
# move the scenario digest without moving a result.
_SYSTEM_KEYS = {"linear_benchmark": ("kind", "params", "tau"),
                "registered": ("kind", "name", "tau")}


def system_kind(config: dict) -> str:
    """The kind of a system config object; ConfigError for an unknown kind or an unread key."""
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _SYSTEM_KEYS:
        raise ConfigError(f"system kind must be one of {tuple(_SYSTEM_KEYS)}, got {kind!r}")
    unread = set(config) - set(_SYSTEM_KEYS[kind])
    if unread:
        raise ConfigError(f"system kind {kind!r} does not read keys {sorted(unread)}")
    return kind


def build_system(config: dict) -> SystemSpec:
    """Instantiate a SystemSpec from scenario-config JSON."""
    if not isinstance(config, dict):
        raise ConfigError(f"system config must be an object, got {type(config).__name__}")
    if system_kind(config) == "linear_benchmark":
        params = config.get("params")
        if not isinstance(params, dict):
            raise ConfigError("linear_benchmark config needs a params object")
        tau = _number(config.get("tau", 1.0), "system tau")
        values = {k: _number(v, f"linear_benchmark params {k}") for k, v in params.items()}
        try:
            bench = LinearBenchmarkParams(**values)
        except TypeError as exc:
            raise ConfigError(f"bad linear_benchmark params: {exc}") from exc
        return linear_benchmark(bench, tau=tau)
    name = config.get("name")
    if not isinstance(name, str) or name not in _REGISTRY:
        raise ConfigError(f"unknown registered system {name!r}")
    spec = _REGISTRY[name]()
    if not isinstance(spec, SystemSpec):
        raise ConfigError(f"factory for {name!r} did not return a SystemSpec")
    tau = _number(config.get("tau", spec.tau), "system tau")
    if abs(spec.tau - tau) > 1e-12 * tau:
        raise ConfigError(f"registered system {name!r} has tau={spec.tau}, config declares {tau}")
    return spec
