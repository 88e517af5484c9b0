"""Ensemble statistics over path arrays.

Paths come as the (grid.total, P, n) batches the kernels return, and the
path metrics give one value per path, shape (P,).  Sup distances are
taken over grid nodes (consistent with the segment module's node-max
convention), moments carry plain standard errors, and scaling exponents
come from least squares on log-log data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .segment import _node_norms, _whole


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    paths: int


@dataclass(frozen=True)
class SlopeFit:
    xs: list  # ln x
    slope: float
    intercept: float
    r_squared: float


def sup_distance(a: np.ndarray, b: np.ndarray, grid) -> np.ndarray:
    """Largest gap between path p of a and of b over the nodes of [0, T], shape (P,)."""
    if a.shape != b.shape or a.ndim != 3 or a.shape[0] != grid.total:
        raise UsageError(f"paths of shapes {a.shape} and {b.shape} are not both "
                         f"(grid.total, P, n) batches on the grid's {grid.total} nodes")
    ts = grid.tau_steps
    return _node_norms(a[ts:] - b[ts:]).max(axis=0)


def _float_pow(values: np.ndarray, p: float) -> np.ndarray:
    # values ** p by the C library's pow, as Python floats compute it:
    # numpy's vectorized power (and its x * x for p = 2) can round the
    # last bit differently, which would move the reported moments.
    return (values.astype(object) ** p).astype(float)


def p_moment(samples, p: float) -> MomentEstimate:
    """Monte Carlo estimate of E[s^p] with its standard error."""
    s = np.asarray(samples, dtype=float)
    if p <= 0.0:
        raise DomainError(f"moment order p must be positive, got {p}")
    if s.ndim != 1 or s.size < 2:
        raise UsageError(f"need at least 2 scalar samples, got shape {s.shape}")
    if (s < 0.0).any():
        raise UsageError("samples must be nonnegative")
    powered = s ** p
    value = float(powered.mean())
    std_error = float(powered.std(ddof=1) / np.sqrt(s.size))
    return MomentEstimate(value=value, std_error=std_error, paths=int(s.size))


def segment_displacement_moment(
    paths: np.ndarray,
    grid,
    delta_steps: int,
    p: float,
    steps,
) -> np.ndarray:
    """Average of ||window(k) - window(kd)||_sup^p over the sample steps k, shape (P,).

    Path p sums its terms in sample order.  Step k is time k * h, and kd
    the start of the block of delta_steps steps holding it, so a sample
    exactly on a block boundary contributes 0.
    """
    if p <= 0.0:
        raise DomainError(f"moment order p must be positive, got {p}")
    if paths.ndim != 3 or paths.shape[0] != grid.total:
        raise UsageError(f"paths of shape {paths.shape} are not a (grid.total, P, n) batch "
                         f"on the grid's {grid.total} nodes")
    delta_steps = _whole(delta_steps, "delta_steps", 1)
    ks = [_whole(k, "sample step") for k in steps]
    if not ks or not all(1 <= k <= grid.steps for k in ks):
        raise UsageError(f"sample steps {ks} must be a non-empty list in 1 ... {grid.steps}")

    ts = grid.tau_steps
    acc = np.zeros(paths.shape[1])
    for k in ks:
        kd = (k // delta_steps) * delta_steps
        diff = paths[k: ts + k + 1] - paths[kd: ts + kd + 1]
        acc += _float_pow(_node_norms(diff).max(axis=0), p)
    return acc / len(ks)


def slope_fit(xs, ys) -> SlopeFit:
    """Least-squares slope of ln y against ln x."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3 or y.size != x.size:
        raise UsageError(f"need >= 3 matched points, got {x.size} and {y.size}")
    if (x <= 0.0).any() or (y <= 0.0).any():
        raise UsageError("slope_fit needs strictly positive data")
    if not (np.diff(x) > 0.0).all():
        raise UsageError("xs must be strictly increasing")
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept, r2 = _log_linear_fit(lx, ly)
    return SlopeFit(xs=lx.tolist(), slope=slope, intercept=intercept, r_squared=r2)


def _log_linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept with its r^2 (clipped at 0)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), float(r2)
