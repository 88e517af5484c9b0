"""Independent reference for the linear benchmark pair.

Integrates the scalar slow/fast pair

    dX = (a11 X + a12 Y) dt + s1 dW1
    dY = (c1 X - c2 Y + c3 Y(t - eps*tau)) dt/eps + s2 dW2/sqrt(eps),

its averaged equation dXbar = kappa Xbar dt + s1 dW1, with
kappa = a11 + a12 c1 / (c2 - c3), and the block-frozen auxiliary pair,
as plain numpy Euler recursions that advance every path at once.  It
follows the package's documented conventions (README "Numerical
conventions", solver.py):

- the fast lag is max(1, round(eps * tau / h)) grid steps;
- W1 and W2 of path p are Philox streams keyed by
  SeedSequence(seed, spawn_key=(p, tag)) with tag 1 for W1 and 2 for W2,
  mapped to normals by Box-Muller on the top 53 bits of two raw words.

Nothing here imports twoscale, so the benchmark can check the package's
numbers against a second implementation rather than against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox, SeedSequence

TAG_W1 = 1
TAG_W2 = 2

_U53 = 2.0 ** -53


@dataclass(frozen=True)
class LinearPair:
    a11: float
    a12: float
    s1: float
    c1: float
    c2: float
    c3: float
    s2: float

    @property
    def kappa(self) -> float:
        return self.a11 + self.a12 * (self.c1 / (self.c2 - self.c3))


def normals(seed: int, path: int, tag: int, count: int) -> np.ndarray:
    """count standard normals of the (seed, path, tag) stream."""
    ss = SeedSequence(seed, spawn_key=(path, tag))
    raw = Philox(key=ss.generate_state(2, np.uint64)).random_raw(2 * count)
    u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _U53
    u2 = ((raw[1::2] >> np.uint64(11)) + np.uint64(1)) * _U53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _steps(span: float, h: float) -> int:
    k = round(span / h)
    if k < 1 or abs(span / h - k) > 1e-9 * max(1.0, span / h):
        raise ValueError(f"{span} is not a multiple of h={h}")
    return k


def _setup(seed: int, paths: int, epsilon: float, h: float, T: float, tau: float):
    """Grid sizes and the (steps, paths) W1 and fast increments."""
    steps = _steps(T, h)
    ts = _steps(tau, h)
    sq = math.sqrt(h)
    dw1 = np.stack([normals(seed, p, TAG_W1, steps) * sq for p in range(paths)], axis=1)
    dwf = np.stack([normals(seed, p, TAG_W2, steps) * sq * (epsilon ** -0.5)
                    for p in range(paths)], axis=1)
    return steps, ts, dw1, dwf


def _coupled(pair: LinearPair, dw1, dwf, epsilon: float, h: float, ts: int,
             xi: float, eta: float):
    """Slow and fast paths, shape (ts + 1 + steps, paths), from constant windows."""
    steps, paths = dw1.shape
    lag = max(1, round(epsilon * ts))
    x = np.empty((ts + 1 + steps, paths))
    y = np.empty_like(x)
    x[: ts + 1] = xi
    y[: ts + 1] = eta
    a11, a12, s1 = pair.a11, pair.a12, pair.s1
    c1, c2, c3, s2 = pair.c1, pair.c2, pair.c3, pair.s2
    h_over_eps = h / epsilon
    for k in range(steps):
        i = ts + k
        x[i + 1] = x[i] + (a11 * x[i] + a12 * y[i]) * h + s1 * dw1[k]
        y[i + 1] = y[i] + (c1 * x[i] - c2 * y[i] + c3 * y[i - lag]) * h_over_eps + s2 * dwf[k]
    return x, y


def sup_gaps(pair: LinearPair, seed: int, paths: int, epsilon: float, h: float,
             T: float, tau: float = 1.0, xi: float = 1.0, eta: float = 0.0) -> np.ndarray:
    """Per-path max over grid nodes of [0, T] of |X^eps - Xbar|.

    The coupled pair and the averaged equation read the same W1
    increments; constant initial windows xi (slow) and eta (fast).
    """
    steps, ts, dw1, dwf = _setup(seed, paths, epsilon, h, T, tau)
    x, _ = _coupled(pair, dw1, dwf, epsilon, h, ts, xi, eta)
    xb = np.empty_like(x)
    xb[: ts + 1] = xi
    kappa, s1 = pair.kappa, pair.s1
    for k in range(steps):
        i = ts + k
        xb[i + 1] = xb[i] + (kappa * xb[i]) * h + s1 * dw1[k]
    return np.abs(x[ts:] - xb[ts:]).max(axis=0)


def aux_sup_gaps(pair: LinearPair, seed: int, paths: int, epsilon: float, h: float,
                 T: float, delta: float, tau: float = 1.0, xi: float = 1.0,
                 eta: float = 0.0) -> np.ndarray:
    """Per-path max over grid nodes of [0, T] of |X^eps - Xtilde|.

    Xtilde is the block-frozen auxiliary slow process: on each block of
    length delta its drift reads the true slow value at the block start,
    and the auxiliary fast process restarts there from the true fast
    value.  Both replay the coupled pair's increments.
    """
    steps, ts, dw1, dwf = _setup(seed, paths, epsilon, h, T, tau)
    x, y = _coupled(pair, dw1, dwf, epsilon, h, ts, xi, eta)
    block = _steps(min(delta, T), h)
    lag = max(1, round(epsilon * ts))
    xt = np.empty_like(x)
    yt = np.empty_like(y)
    xt[: ts + 1] = xi
    yt[: ts + 1] = eta
    a11, a12, s1 = pair.a11, pair.a12, pair.s1
    c1, c2, c3, s2 = pair.c1, pair.c2, pair.c3, pair.s2
    h_over_eps = h / epsilon
    for k in range(steps):
        i = ts + k
        if k % block == 0:
            x_frozen = x[i]
            yt[i] = y[i]
        xt[i + 1] = xt[i] + (a11 * x_frozen + a12 * yt[i]) * h + s1 * dw1[k]
        yt[i + 1] = (yt[i] + (c1 * x_frozen - c2 * yt[i] + c3 * yt[i - lag]) * h_over_eps
                     + s2 * dwf[k])
    return np.abs(x[ts:] - xt[ts:]).max(axis=0)


def moment(gaps: np.ndarray, p: float) -> float:
    """Mean of gaps**p over paths."""
    return float((gaps ** p).mean())
