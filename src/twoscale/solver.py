"""Explicit Euler-Maruyama integration on uniform grids with delay.

Two kernels live here.  simulate_coupled advances the slow/fast pair
    X_{k+1} = X_k + b1(Xseg_k, Yseg_k) h + sigma1(Xseg_k) dW1_k
    Y_{k+1} = Y_k + (1/eps) b2(Xseg_k, Y_k, Y(t_k - tau)) h
                  + sigma2(Xseg_k, Y_k, Y(t_k - tau)) dWfast_k
where dWfast comes from fast_increments (already carrying the 1/sqrt(eps)
scale).  The same recursion, with the slow window frozen per block and
the fast state reset, runs the auxiliary pair of averaging.py.
simulate_sdde advances a single equation whose drift and diffusion are
arbitrary functionals of the trailing window; the frozen and averaged
equations are both built on it.

Delay arithmetic is pure index bookkeeping: h divides tau exactly, so
Y(t_k - tau) is the array entry tau_steps rows back and no float time
comparison ever happens in the hot loop.  The explicit scheme needs
h / eps bounded for the contractive linear part of the fast drift, so
simulate_coupled enforces h <= kappa_stab * eps (default 0.1).

Any state coordinate going non-finite or past DIVERGENCE_CAP aborts with
DivergenceError carrying the step index and the last finite state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError, DomainError, UsageError
from .noise import NoiseStream, fast_increments, gaussian_increments
from .segment import Segment, _integer_ratio, exact_steps
from .systems import SystemSpec

DIVERGENCE_CAP = 1e12

DEFAULT_KAPPA_STAB = 0.1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid covering [-tau, T] with step h."""

    T: float
    h: float
    steps: int
    tau_steps: int

    @property
    def tau(self) -> float:
        return self.tau_steps * self.h

    @property
    def total(self) -> int:
        """Number of stored nodes: history plus steps plus the start."""
        return self.steps + self.tau_steps + 1

    def times(self) -> np.ndarray:
        return (np.arange(self.total) - self.tau_steps) * self.h

    def index_of(self, t: float) -> int:
        """Absolute array index of grid time t in [-tau, T]."""
        k = _integer_ratio(t / self.h)
        if k is None:
            raise UsageError(f"t={t} does not lie on the grid (h={self.h})")
        idx = k + self.tau_steps
        if idx < 0 or idx >= self.total:
            raise DomainError(f"t={t} outside [-tau, T] = [{-self.tau}, {self.T}]")
        return idx


def make_grid(T: float, h: float, tau: float) -> TimeGrid:
    steps = exact_steps(T, h, "T")
    tau_steps = exact_steps(tau, h, "tau")
    return TimeGrid(T=float(T), h=float(h), steps=steps, tau_steps=tau_steps)


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    """Sampled paths on a grid, including the history window."""

    grid: TimeGrid
    slow_path: np.ndarray | None
    fast_path: np.ndarray | None
    epsilon: float | None
    labels: tuple[str, ...]

    def path(self, which: str = "slow") -> np.ndarray:
        arr = self.slow_path if which == "slow" else self.fast_path
        if arr is None:
            raise UsageError(f"bundle {self.labels} has no {which} path")
        return arr

    def endpoint(self, which: str = "slow") -> np.ndarray:
        return self.path(which)[-1]


def _check_streams(spec: SystemSpec, *streams: NoiseStream):
    for s in streams:
        if s.m != spec.m:
            raise UsageError(f"stream dimension m={s.m} does not match spec m={spec.m}")


def _check_segment(seg: Segment, grid: TimeGrid, n: int, name: str):
    if not isinstance(seg, Segment):
        raise UsageError(f"{name} must be a Segment, got {type(seg).__name__}")
    if seg.grid_steps != grid.tau_steps or abs(seg.h - grid.h) > 1e-12 * grid.h:
        raise UsageError(
            f"{name} grid (tau={seg.tau}, h={seg.h}) incompatible with "
            f"simulation grid (tau={grid.tau}, h={grid.h})"
        )
    if seg.n != n:
        raise UsageError(f"{name} has dimension {seg.n}, system needs {n}")


def _blowup(step: int, h: float, state_rows, detail: str):
    last = np.concatenate([np.asarray(r, float).ravel() for r in state_rows])
    return DivergenceError(step, (step + 1) * h, last, detail)


def _coef(value, shape: tuple, name: str) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise DataError(f"{name} returned shape {out.shape}, expected {shape}")
    return out


def _pair_increments(spec, xi, eta, epsilon, grid, w1, w2, kappa_stab):
    """Validate the inputs of a pair run and draw its (dW1, fast dW2) increments."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    if grid.h > kappa_stab * epsilon * (1.0 + 1e-12):
        raise DomainError(
            f"step h={grid.h} violates the stability cap {kappa_stab}*epsilon="
            f"{kappa_stab * epsilon:.3g}; refine h or raise kappa_stab"
        )
    if exact_steps(spec.tau, grid.h, "tau") != grid.tau_steps:
        raise UsageError(f"grid was built for a different delay than spec.tau={spec.tau}")
    _check_segment(xi, grid, spec.n, "xi")
    _check_segment(eta, grid, spec.n, "eta")
    _check_streams(spec, w1, w2)
    return (gaussian_increments(w1, grid.steps, grid.h),
            fast_increments(w2, grid.steps, grid.h, epsilon))


def _pair_bundle(grid: TimeGrid, x, y, epsilon: float, labels) -> TrajectoryBundle:
    x.setflags(write=False)
    y.setflags(write=False)
    return TrajectoryBundle(grid=grid, slow_path=x, fast_path=y,
                            epsilon=float(epsilon), labels=labels)


def simulate_coupled(
    spec: SystemSpec,
    xi: Segment,
    eta: Segment,
    epsilon: float,
    grid: TimeGrid,
    w1: NoiseStream,
    w2: NoiseStream,
    *,
    kappa_stab: float = DEFAULT_KAPPA_STAB,
) -> TrajectoryBundle:
    """Integrate the coupled slow/fast pair; returns paths labelled (X, Y)."""
    dw1, dwf = _pair_increments(spec, xi, eta, epsilon, grid, w1, w2, kappa_stab)
    x, y, _ = _coupled_core(spec, xi, eta, epsilon, grid, dw1, dwf)
    return _pair_bundle(grid, x, y, epsilon, ("X", "Y"))


def fast_lag_steps(epsilon: float, grid: TimeGrid) -> int:
    """Grid offset of the fast process's delayed read, snapped to a node.

    The fast memory lives on the fast clock: the delayed argument is
    Y(t - eps*tau), which the time change s = t/eps carries onto the
    frozen equation's delay tau.  A delay of tau in slow time would not
    rescale and the averaged limit would not be attained.  At eps = 1
    the offset is exactly tau_steps, so the single-scale identity is
    bit-exact.
    """
    return max(1, round(epsilon * grid.tau_steps))


def _coupled_core(spec, xi, eta, epsilon, grid, dw1, dwf, freeze=None):
    """Euler recursion of the pair; returns (x, y, block-start indices).

    freeze=(x_true, y_true, delta_steps) runs the block-frozen auxiliary
    pair instead: every delta_steps steps the slow window the
    coefficients read is frozen to x_true's, sigma1 is evaluated once for
    the block, and the fast state restarts from y_true (bit-exact).  The
    pair's own slow state still integrates, driven by the frozen
    coefficients; block starts are returned for the reset audit.
    """
    n, m = spec.n, spec.m
    vec, mat = (n,), (n, m)
    h = grid.h
    ts = grid.tau_steps
    tau = grid.tau
    h_over_eps = h / epsilon
    lag = fast_lag_steps(epsilon, grid)
    b1, sigma1, b2, sigma2 = spec.b1, spec.sigma1, spec.b2, spec.sigma2
    wrap = Segment._wrap
    if freeze is None:
        slow_msg = "slow component left the admissible range"
        fast_msg = "fast component left the admissible range"
    else:
        x_true, y_true, delta_steps = freeze
        slow_msg = "auxiliary slow component diverged"
        fast_msg = "auxiliary fast component diverged"

    x = np.empty((grid.total, n))
    y = np.empty((grid.total, n))
    x[: ts + 1] = xi.values
    y[: ts + 1] = eta.values
    resets = []

    for k in range(grid.steps):
        i = ts + k
        if freeze is None:
            xseg = wrap(tau, h, x[k: i + 1])
        elif k % delta_steps == 0:
            xseg = wrap(tau, h, x_true[k: i + 1])
            sx = _coef(sigma1(xseg), mat, "sigma1")
            y[i] = y_true[i]
            resets.append(i)
        yseg = wrap(tau, h, y[k: i + 1])
        yk = y[i]
        ytau = y[i - lag]

        bx = _coef(b1(xseg, yseg), vec, "b1")
        if freeze is None:
            sx = _coef(sigma1(xseg), mat, "sigma1")
        by = _coef(b2(xseg, yk, ytau), vec, "b2")
        sy = _coef(sigma2(xseg, yk, ytau), mat, "sigma2")

        x[i + 1] = x[i] + bx * h + sx @ dw1[k]
        y[i + 1] = yk + by * h_over_eps + sy @ dwf[k]

        if not (np.abs(x[i + 1]).max() <= DIVERGENCE_CAP):
            raise _blowup(k, h, (x[i], y[i]), slow_msg)
        if not (np.abs(y[i + 1]).max() <= DIVERGENCE_CAP):
            raise _blowup(k, h, (x[i], y[i]), fast_msg)
    return x, y, resets


def simulate_sdde(
    n: int,
    m: int,
    drift,
    diffusion,
    xi: Segment,
    grid: TimeGrid,
    w: NoiseStream,
    *,
    role: str = "slow",
    label: str = "X",
) -> TrajectoryBundle:
    """Integrate one delay equation with window-functional coefficients.

    drift(seg) -> R^n and diffusion(seg) -> R^{n x m} see the trailing
    window of the path being built.  role picks whether the result is
    stored as the bundle's slow or fast path.
    """
    if role not in ("slow", "fast"):
        raise UsageError(f"role must be 'slow' or 'fast', got {role!r}")
    _check_segment(xi, grid, n, "xi")
    if w.m != m:
        raise UsageError(f"stream dimension m={w.m} does not match m={m}")

    h = grid.h
    ts = grid.tau_steps
    tau = grid.tau
    wrap = Segment._wrap
    dw = gaussian_increments(w, grid.steps, h)

    path = np.empty((grid.total, n))
    path[: ts + 1] = xi.values

    for k in range(grid.steps):
        i = ts + k
        seg = wrap(tau, h, path[k: i + 1])
        b = _coef(drift(seg), (n,), "drift")
        s = _coef(diffusion(seg), (n, m), "diffusion")
        path[i + 1] = path[i] + b * h + s @ dw[k]
        if not (np.abs(path[i + 1]).max() <= DIVERGENCE_CAP):
            raise _blowup(k, h, (path[i],), f"{label} left the admissible range")

    path.setflags(write=False)
    if role == "slow":
        return TrajectoryBundle(grid=grid, slow_path=path, fast_path=None,
                                epsilon=None, labels=(label,))
    return TrajectoryBundle(grid=grid, slow_path=None, fast_path=path,
                            epsilon=None, labels=(label,))
