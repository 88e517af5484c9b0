"""Coefficient models and sampling-based structure checks.

A SystemSpec bundles the four coefficient maps of a slow/fast pair with
delay: the slow drift b1(chi, phi) and diffusion sigma1(chi) read whole
history windows, while the fast drift b2(chi, y, y_tau) and diffusion
sigma2(chi, y, y_tau) read the slow window plus the fast state now and
one delay ago.  Maps see a batch of P paths at once (b1, in the frozen
time average, the steps of one path): windows are float64 arrays of
shape (M + 1, P, n) with row M = tau / h being "now" (chi[-1] is the
(P, n) current slow state), and y and y_tau have shape (P, n).
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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, DomainError, UsageError
from .segment import _node_norms, _row_dots, _whole, exact_steps, lipschitz_modulus

# The relative gap (lambda1 - lambda2) / lambda1 that check_dissipativity
# must exceed; no finite sample certifies lambda1 = lambda2 (see README).
_GAP_FLOOR = 5e-4

# The scale of the states the samplers draw.
_AMPLITUDE = 3.0


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

    def __post_init__(self):
        _whole(self.n, "dimension n", 1)
        _whole(self.m, "noise dimension m", 1)
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
    def gain(self) -> float:
        """Stationary response c1 / (c2 - c3) of the fast mean per unit of X."""
        if self.c2 == self.c3:
            raise DomainError("c2 == c3: stationary gain undefined")
        return self.c1 / (self.c2 - self.c3)

    @property
    def kappa(self) -> float:
        """Rate of the scalar averaged equation: a11 + a12 * gain."""
        return self.a11 + self.a12 * self.gain


def linear_benchmark(params: LinearBenchmarkParams, tau: float = 1.0) -> SystemSpec:
    """Build the scalar linear SystemSpec for the given parameters."""
    # 0-d float64 arrays give the Python floats' products, with less numpy overhead
    a11, a12, c1, c2, c3 = (np.array(v) for v in
                            (params.a11, params.a12, params.c1, params.c2, params.c3))
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
        benchmark=params,
    )


@dataclass(frozen=True)
class DissipativityReport:
    lambda1: float
    lambda2: float
    worst_violation: float
    sample_count: int
    passed: bool


@dataclass(frozen=True)
class GrowthReport:
    L_estimate: float
    max_ratio_points: list
    passed: bool


def _floats(value, name: str) -> np.ndarray:
    """A map's value as a float array; DataError, naming the map, if numpy cannot read it so."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{name} returned a value of type {type(value).__name__} that numpy "
                        "cannot read as floats") from None


def _drift(value, p: int, n: int, name: str) -> np.ndarray:
    """A drift map's value as a (p, n) array; DataError for any other shape."""
    out = _floats(value, name)
    if out.shape != (p, n):
        raise DataError(f"{name} returned shape {out.shape}, expected (paths, n) = ({p}, {n})")
    return out


def _diffusion(value, p: int, n: int, m: int, name: str) -> np.ndarray:
    """A diffusion map's value, (n, m) or (p, n, m); DataError for any other shape."""
    out = _floats(value, name)
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


def _sampled(n: int, windows: dict, points: dict) -> list:
    """Contiguous float arrays: the windows (M + 1, N, n), the points (N, n).

    M + 1 and N >= 1 are read off the first window batch.  DataError for
    any other shape, or naming the first sample with a non-finite entry.
    """
    shape = np.shape(next(iter(windows.values())))
    if len(shape) != 3 or shape[1] < 1:
        raise DataError(f"window batches must have shape (M + 1, samples >= 1, n), got {shape}")
    arrays = []
    for what, value in [*windows.items(), *points.items()]:
        want = (shape[0], shape[1], n) if what in windows else (shape[1], n)
        arr = np.ascontiguousarray(value, dtype=float)
        if arr.shape != want:
            raise DataError(f"{what} has shape {arr.shape}, expected {want}")
        _finite(np.moveaxis(arr, -2, 0), arr.size // shape[1], what)  # one sample a row
        arrays.append(arr)
    return arrays


def _largest_gap(q: np.ndarray, dx2: np.ndarray, dy2: np.ndarray):
    """The pair (lambda1, lambda2 >= 0) of largest gap with q + lambda1 dx2 <= lambda2 dy2.

    Samples with dx2 > 0 read lambda1 <= a + b lambda2, b >= 0; the others
    bound lambda2 from below.  The concave gap min(a + b lambda2) - lambda2
    peaks where the lowest line's slope drops to 1.  None if no pair fits
    or the gap is unbounded.
    """
    moved, still = dx2 > 0.0, (dx2 == 0.0) & (dy2 > 0.0)
    if not moved.any() or (q[~moved & ~still] > 0.0).any():
        return None
    lo = float((q[still] / dy2[still]).max(initial=0.0))
    a, b = -q[moved] / dx2[moved], dy2[moved] / dx2[moved]

    def lowest(lam):  # the index of the line lowest just right of lam
        v = a + b * lam
        tied = np.flatnonzero(v == v.min())
        return tied[b[tied].argmin()]

    lam2 = lo
    if b[lowest(lo)] > 1.0:
        if b.min() > 1.0:
            return None
        # Past its last crossing the least steep line m is lowest, so the peak
        # is in [lo, hi].  Bisect on their bit patterns, which nonnegative
        # doubles share the order of: at most 64 steps at any scale.
        m = np.lexsort((a, b))[0]
        up = b > b[m]
        ends = np.array([lo, 2.0 * ((a[m] - a[up]) / (b[up] - b[m])).max()])
        bits = ends.view(np.int64).tolist()
        while bits[1] - bits[0] > 1:
            mid = (bits[0] + bits[1]) // 2
            past_peak = b[lowest(np.array(mid).view(np.float64))] <= 1.0
            bits[int(past_peak)] = mid
        ends = np.array(bits).view(np.float64)
        j, k = lowest(ends[0]), lowest(ends[1])  # the peak is where they cross
        lam2 = float(np.clip((a[k] - a[j]) / (b[j] - b[k]), *ends))
    return float((a + b * lam2).min()), lam2


def check_dissipativity(spec: SystemSpec, chi, x, x_prime, y, y_prime) -> DissipativityReport:
    """Certify the one-sided contraction inequality of the fast coefficients.

    Sample i is the window chi[:, i] of the (M + 1, N, n) batch chi and
    row i of each (N, n) point array.  For each sample this computes
        Q = 2 <x - x', b2(chi, x, y) - b2(chi, x', y')>
            + ||sigma2(chi, x, y) - sigma2(chi, x', y')||_F^2
    and solves exactly for the pair with Q <= -lambda1 |x - x'|^2 +
    lambda2 |y - y'|^2 on every sample, lambda2 >= 0, of largest gap
    lambda1 - lambda2, the gap that controls the contraction rate.  It
    passes when the gap exceeds _GAP_FLOOR * lambda1.  With no such pair,
    or an unbounded gap, it fails and reports NaN.
    """
    n, m = spec.n, spec.m
    chi, x, xp, y, yp = _sampled(n, {"chi": chi}, {"x": x, "x'": x_prime, "y": y, "y'": y_prime})
    count = chi.shape[1]
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
    l1, l2 = _largest_gap(q, dx2, dy2) or (math.nan, math.nan)
    worst = float((q + l1 * dx2 - l2 * dy2).max())
    return DissipativityReport(l1, l2, worst, count, l1 - l2 > _GAP_FLOOR * l1)


def _ratio_series_stable(r: np.ndarray) -> bool:
    # Drift detector: the last quartile of the sampled ratios must not blow
    # past the maximum seen over the first three quarters.
    if not np.isfinite(r).all():
        return False
    if r.size < 8:
        return True
    cut = (3 * r.size) // 4
    head = float(r[:cut].max())
    tail = float(r[cut:].max())
    if head <= 0.0:
        return tail <= 0.0
    return tail <= 2.0 * head


def check_growth_and_lipschitz(spec: SystemSpec, chi, phi) -> GrowthReport:
    """Estimate the slow pair's growth/Lipschitz constant by sampling.

    Sample i is the window pair chi[:, i], phi[:, i] of two (M + 1, N, n)
    batches.  Ratios |b1(chi, phi)| / (1 + sup norm of chi) and
    ||sigma1(phi) - sigma1(chi)||_F / sup-gap(phi, chi) are collected over
    the samples; coincident pairs are skipped for the second.  The check
    fails when either series is non-finite or its last quartile drifts
    above twice the earlier maximum.
    """
    n, m = spec.n, spec.m
    chi, phi = _sampled(n, {"chi": chi, "phi": phi}, {})
    count = chi.shape[1]
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
    witnesses = [witness("b1_growth", growth, np.arange(count))]
    if moved.size:
        witnesses.append(witness("sigma1_lipschitz", lip, moved))
    return GrowthReport(l_est, witnesses, bool(np.isfinite(l_est) and stable))


def check_initial_segment(values: np.ndarray, h: float, lambda3_cap: float) -> bool:
    """True when the window's discrete slope stays within lambda3_cap."""
    if lambda3_cap < 0.0:
        raise DomainError(f"lambda3_cap must be >= 0, got {lambda3_cap}")
    return lipschitz_modulus(values, h) <= lambda3_cap * (1.0 + 1e-6) + 1e-12


def spot_check_purity(spec: SystemSpec, h: float, rng_seed: int) -> bool:
    """Call every coefficient map twice on one input; compare bit-exactly."""
    steps = exact_steps(spec.tau, h, "tau")
    rng = np.random.default_rng(rng_seed)
    # One-path batches: windows (M + 1, 1, n), states (1, n).
    chi = rng.standard_normal((steps + 1, 1, spec.n))
    phi = rng.standard_normal((steps + 1, 1, spec.n))
    y = rng.standard_normal((1, spec.n))
    y_tau = rng.standard_normal((1, spec.n))
    pairs = [
        ("b1", spec.b1(chi, phi), spec.b1(chi, phi)),
        ("sigma1", spec.sigma1(chi), spec.sigma1(chi)),
        ("b2", spec.b2(chi, y, y_tau), spec.b2(chi, y, y_tau)),
        ("sigma2", spec.sigma2(chi, y, y_tau), spec.sigma2(chi, y, y_tau)),
    ]
    return all(np.array_equal(_floats(a, name), _floats(b, name)) for name, a, b in pairs)


def random_points(rng: np.random.Generator, trials: int, tau: float, h: float, n: int):
    """(chi, x, x', y, y') sample arrays for check_dissipativity.

    Each sample draws its window's M + 1 rows, then its four points.
    """
    steps = exact_steps(tau, h, "tau")
    draw = _AMPLITUDE * rng.standard_normal((trials, steps + 5, n))
    chi = np.ascontiguousarray(draw[:, :steps + 1].swapaxes(0, 1))
    return (chi, *(draw[:, steps + k] for k in range(1, 5)))


def random_segment_pairs(rng: np.random.Generator, trials: int, tau: float, h: float, n: int):
    """(chi, phi) window batches for check_growth_and_lipschitz.

    Each sample draws an amplitude, then its two windows at that amplitude.
    """
    steps = exact_steps(tau, h, "tau")
    pairs = np.empty((2, steps + 1, trials, n))
    for i in range(trials):
        amp = _AMPLITUDE * rng.uniform(0.2, 1.0)
        pairs[0, :, i] = amp * rng.standard_normal((steps + 1, n))
        pairs[1, :, i] = amp * rng.standard_normal((steps + 1, n))
    return pairs[0], pairs[1]


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
