"""Explicit Euler-Maruyama integration on uniform grids with delay.

Two kernels live here.  simulate_coupled advances the slow/fast pair
    X_{k+1} = X_k + b1(Xseg_k, Yseg_k) h + sigma1(Xseg_k) dW1_k
    Y_{k+1} = Y_k + (1/eps) b2(Xseg_k, Y_k, Y(t_k - tau)) h
                  + sigma2(Xseg_k, Y_k, Y(t_k - tau)) dW2_k / sqrt(eps)
on the Brownian increment arrays dW1 and dW2 of noise.increments.  The
same recursion, with the slow window frozen per block and the fast state
reset, runs the auxiliary pair of averaging.py.
simulate_sdde advances a single equation whose drift and diffusion are
arbitrary functionals of the trailing window; the frozen and averaged
equations are both built on it, the frozen one calling b2 and sigma2
on its pinned slow window directly.

Both kernels step a batch of P paths at once, time-major.  A path array
has shape (grid.total, P, n) and starts with the (tau_steps + 1, n)
history window; a coefficient map receives each window as the
(tau_steps + 1, P, n) slice of the array being built, row tau_steps being
"now" (chi[-1] is the (P, n) current state).  Maps act on the last axis:
a drift returns (P, n), a diffusion (n, m) for the whole batch or
(P, n, m).  Path p reads column p of the (grid.steps, P, m) increment
arrays and every operation is elementwise over the batch axis (sigma @ dW
is an ordered sum over the m noise components), so a path's numbers do
not depend on its batch.  A diffusion is constant while it returns the
read-only, data-owning array it returned at step 0; its noise is then
summed for all steps at once.

Delay arithmetic is pure index bookkeeping: h divides tau exactly, so
Y(t_k - tau) is the array entry tau_steps rows back and no float time
comparison ever happens in the hot loop.  The kernels do not bound the
fast step h / eps; harness.Scenario._step_fault holds h <= h_factor * eps.

A path whose state goes non-finite or past DIVERGENCE_CAP fails with a
DivergenceError carrying the step index and the last finite state; a
TwoscaleError raised by a coefficient map propagates as it is.  A kernel
raises the first failure of its batch: the earliest step, then the
lowest column, its slow component before its fast one; at P = 1, the
path's own error.  Rows are checked every GUARD_STEPS = 16 steps, and a
failed block (or one cut short by a map's error) is rescanned step by
step.  Kernels do not isolate failed paths; harness._chunk_results reruns
a failed chunk path by path, so each path gets its one-path run's error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, UsageError
from .segment import exact_steps
from .systems import SystemSpec, _diffusion, _drift

DIVERGENCE_CAP = 1e12
GUARD_STEPS = 16  # steps between checks of the rows written since the last

# max over all entries, NaN-propagating, without ndarray.max's Python wrapper
_amax = np.maximum.reduce
_VARYING = object()  # the "constant" diffusion value of a map that has none

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


def make_grid(T: float, h: float, tau: float) -> TimeGrid:
    steps = exact_steps(T, h, "T")
    tau_steps = exact_steps(tau, h, "tau")
    return TimeGrid(T=float(T), h=float(h), steps=steps, tau_steps=tau_steps)


def _history(start, grid: TimeGrid, n: int, name: str) -> np.ndarray:
    arr = np.asarray(start, dtype=float)
    if arr.shape != (grid.tau_steps + 1, n):
        raise UsageError(
            f"{name} has shape {arr.shape}; the grid and system need ({grid.tau_steps + 1}, {n})"
        )
    return arr


def _increments(dw, grid: TimeGrid, m: int) -> np.ndarray:
    """dw checked as the (grid.steps, P >= 1, m) increments of a batch of P paths."""
    dw = np.asarray(dw, dtype=float)
    if dw.ndim != 3 or dw.shape[0] != grid.steps or dw.shape[1] < 1 or dw.shape[2] != m:
        raise UsageError(
            f"increments have shape {dw.shape}; the grid and system need "
            f"({grid.steps}, P >= 1, {m})"
        )
    return dw


def _start(history: np.ndarray, grid: TimeGrid, paths: int) -> np.ndarray:
    """A (grid.total, paths, n) path array whose first rows hold the history window."""
    out = np.empty((grid.total, paths, history.shape[1]))
    out[: grid.tau_steps + 1] = history[:, None]
    return out


def _noise(s: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """s @ dW for every path of the (..., P, m) increments, summed over m in order."""
    inc = s[..., 0] * dw[..., :1]
    for j in range(1, dw.shape[-1]):
        inc = inc + s[..., j] * dw[..., j: j + 1]
    return inc


def _checked_noise(raw, k, dw, p, n, m, name):
    """(s, const, rows): raw checked as a diffusion; rows[k] is _noise(s, dw[k]) if constant."""
    s = _diffusion(raw, p, n, m, name)
    if k == 0 and s.flags.owndata and not s.flags.writeable:
        return s, s, _noise(s, dw)
    return s, _VARYING, None


def _raise_divergence(k: int, h: float, new, last, messages):
    """Raise the DivergenceError of the lowest column whose new state left the range.

    Called once the batch check failed.  Within that column new[c] is
    checked before new[c + 1] and its failure is named by messages[c];
    last holds the columns' previous states, concatenated into last_state.
    """
    bad = [~(np.abs(a).max(axis=1) <= DIVERGENCE_CAP) for a in new]
    j = np.flatnonzero(np.logical_or.reduce(bad))[0]
    detail = next(msg for b, msg in zip(bad, messages) if b[j])
    last_state = np.concatenate([s[j] for s in last])
    raise DivergenceError(k, (k + 1) * h, last_state, detail)


def _guard(paths, k0, k1, ts, h, messages):
    """Check steps k0 <= k < k1 (rows ts + k + 1) in one max; rescan a failed block by step."""
    block = [a[ts + k0 + 1: ts + k1 + 1] for a in paths]
    if not all(_amax(np.absolute(b), axis=None, initial=0.0) <= DIVERGENCE_CAP for b in block):
        for k in range(k0, k1):
            new = [a[ts + k + 1] for a in paths]
            if not all(np.absolute(b).max() <= DIVERGENCE_CAP for b in new):
                _raise_divergence(k, h, new, [a[ts + k] for a in paths], messages)
    return k1


def _check_delay(spec, grid: TimeGrid) -> None:
    """Refuse a grid built for a delay other than spec.tau."""
    if exact_steps(spec.tau, grid.h, "tau") != grid.tau_steps:
        raise UsageError(f"grid was built for a different delay than spec.tau={spec.tau}")


def _pair_increments(spec, xi, eta, epsilon, grid, dw1, dw2):
    """Validate a batch of pair runs: (xi, eta, dW1, fast dW2 = dW2 / sqrt(eps))."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    _check_delay(spec, grid)
    xi = _history(xi, grid, spec.n, "xi")
    eta = _history(eta, grid, spec.n, "eta")
    dw1, dw2 = _increments(dw1, grid, spec.m), _increments(dw2, grid, spec.m)
    if dw1.shape != dw2.shape:
        raise UsageError(f"dW1 has shape {dw1.shape} but dW2 has shape {dw2.shape}")
    return xi, eta, dw1, dw2 * (epsilon ** -0.5)


def simulate_coupled(
    spec: SystemSpec,
    xi: np.ndarray,
    eta: np.ndarray,
    epsilon: float,
    grid: TimeGrid,
    dw1: np.ndarray,
    dw2: np.ndarray,
):
    """Integrate a batch of coupled slow/fast pairs from the (M + 1, n) starts xi, eta.

    dw1 and dw2 are the (grid.steps, P, m) increments of W1 and W2 on
    the slow clock; the fast equation reads dw2 / sqrt(epsilon).  Returns
    the read-only (grid.total, P, n) paths (x, y); the first failure of
    any path is raised (see the module docstring).
    """
    # Rebinding dw2 to the fast increments: this frame does not hold the unscaled array.
    xi, eta, dw1, dw2 = _pair_increments(spec, xi, eta, epsilon, grid, dw1, dw2)
    return _coupled_core(spec, xi, eta, epsilon, grid, dw1, dw2)


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
    """Euler recursion of a batch of pairs; returns the read-only paths (x, y).

    x and y are (grid.total, P, n) arrays, P = dw1.shape[1].  The maps
    read the windows x[k:i+1] and y[k:i+1] in place, row tau_steps being
    "now".  The first failure of any path is raised: the earliest step,
    then the lowest column, its slow component before its fast one.

    freeze=(x_true, y_true, delta_steps) runs the block-frozen auxiliary
    pairs of the same paths instead: every delta_steps steps the slow
    window the coefficients read is frozen to x_true's and the fast
    state restarts from y_true (bit-exact); nothing else changes.  The
    pair's own slow state still integrates, driven by the frozen
    coefficients.
    """
    n, m = spec.n, spec.m
    h = grid.h
    ts = grid.tau_steps
    # 0-d arrays: the same IEEE products without a Python float's conversion per call
    h_dt, h_over_eps = np.array(h), np.array(h / epsilon)
    lag = fast_lag_steps(epsilon, grid)
    b1, sigma1, b2, sigma2 = spec.b1, spec.sigma1, spec.b2, spec.sigma2
    p = dw1.shape[1]
    x = _start(xi, grid, p)
    y = _start(eta, grid, p)
    if freeze is None:
        messages = ("slow component left the admissible range",
                    "fast component left the admissible range")
    else:
        xt, yt, delta_steps = freeze
        messages = ("auxiliary slow component diverged", "auxiliary fast component diverged")
    c1, c2, done = _VARYING, _VARYING, 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(grid.steps):
                i = ts + k
                if freeze is None:
                    xseg = x[k: i + 1]
                else:
                    kb = k - k % delta_steps
                    xseg = xt[kb: kb + ts + 1]
                    if k == kb:
                        done = _guard((x, y), done, k, ts, h, messages)  # before row i is reset
                        y[i] = yt[i]
                yk, ytau = y[i], y[i - lag]
                bx = _drift(b1(xseg, y[k: i + 1]), p, n, "b1")
                if (sx := sigma1(xseg)) is not c1:
                    sx, c1, n1 = _checked_noise(sx, k, dw1, p, n, m, "sigma1")
                by = _drift(b2(xseg, yk, ytau), p, n, "b2")
                if (sy := sigma2(xseg, yk, ytau)) is not c2:
                    sy, c2, n2 = _checked_noise(sy, k, dwf, p, n, m, "sigma2")
                xn, yn = x[i + 1], y[i + 1]
                np.add(x[i], bx * h_dt, out=xn)
                xn += n1[k] if sx is c1 else _noise(sx, dw1[k])
                np.add(y[i], by * h_over_eps, out=yn)
                yn += n2[k] if sy is c2 else _noise(sy, dwf[k])
                if k + 1 - done == GUARD_STEPS or k + 1 == grid.steps:
                    done = _guard((x, y), done, k + 1, ts, h, messages)
        except Exception:  # a map may raise on a state that diverged unseen: check first
            _guard((x, y), done, k, ts, h, messages)
            raise
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def simulate_sdde(
    n: int,
    m: int,
    drift,
    diffusion,
    xi: np.ndarray,
    grid: TimeGrid,
    dw: np.ndarray,
    *,
    detail: str = "X left the admissible range",
    chi: np.ndarray | None = None,
):
    """Integrate a batch of one delay equation with window-functional coefficients.

    drift(window) -> (P, n) and diffusion(window) -> (n, m) or (P, n, m)
    see the trailing (tau_steps + 1, P, n) window of the paths being
    built, row tau_steps being "now".  With a pinned slow window chi, an
    (M + 1, P, n) array whose column p path p reads, they are instead a
    fast pair's b2 and sigma2, called as f(chi, y, y_tau) on chi itself
    and the rows "now" and one delay ago.
    xi is the (M + 1, n) start window and dw the (grid.steps, P, m)
    Brownian increments.  Returns the read-only (grid.total, P, n) paths.
    The first failure of any path is raised: the earliest step, then the
    lowest column; a divergence is a DivergenceError whose detail is `detail`.
    """
    xi = _history(xi, grid, n, "xi")
    h = grid.h
    h_dt = np.array(h)  # as in _coupled_core
    ts = grid.tau_steps
    dw = _increments(dw, grid, m)
    p = dw.shape[1]
    if chi is not None and (chi.ndim != 3 or chi.shape[1:] != (p, n)):
        raise UsageError(f"chi has shape {chi.shape}; {p} path(s) of a system with n={n} "
                         f"need (M + 1, {p}, {n})")
    path = _start(xi, grid, p)
    c, done = _VARYING, 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(grid.steps):
                i = ts + k
                args = (path[k: i + 1],) if chi is None else (chi, path[i], path[k])
                b = _drift(drift(*args), p, n, "drift")
                if (s := diffusion(*args)) is not c:
                    s, c, rows = _checked_noise(s, k, dw, p, n, m, "diffusion")
                new = path[i + 1]
                np.add(path[i], b * h_dt, out=new)
                new += rows[k] if s is c else _noise(s, dw[k])
                if k + 1 - done == GUARD_STEPS or k + 1 == grid.steps:
                    done = _guard((path,), done, k + 1, ts, h, (detail,))
        except Exception:
            _guard((path,), done, k, ts, h, (detail,))
            raise
    path.setflags(write=False)
    return path
