"""Ensemble statistics over path arrays.

Paths are the (grid.total, n) arrays the kernels return.  Sup distances
are taken over grid nodes (consistent with the segment module's node-max
convention), moments carry plain standard errors, and scaling exponents
come from least squares on log-log data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .segment import _node_norms, exact_steps


@dataclass(frozen=True)
class MomentEstimate:
    p: float
    value: float
    std_error: float
    paths: int


@dataclass(frozen=True)
class SlopeFit:
    xs: list  # ln x
    ys: list  # ln y
    slope: float
    intercept: float
    r_squared: float


def sup_distance(a: np.ndarray, b: np.ndarray, grid) -> float:
    """Largest pointwise gap between two paths over the nodes of [0, T]."""
    if a.shape != b.shape or a.shape[0] != grid.total:
        raise UsageError(
            f"paths of shapes {a.shape} and {b.shape} do not both span "
            f"the grid's {grid.total} nodes"
        )
    ts = grid.tau_steps
    return float(_node_norms(a[ts:] - b[ts:]).max())


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
    return MomentEstimate(p=float(p), value=value, std_error=std_error, paths=int(s.size))


def segment_displacement_moment(
    path: np.ndarray,
    grid,
    delta: float,
    p: float,
    sample_times,
) -> float:
    """Average of ||window(t) - window(t_delta)||_sup^p over the sample times.

    Windows are taken from the (grid.total, n) path.  t_delta is the block
    start preceding t, computed in index space so a t exactly on a
    boundary contributes 0.  delta must be a grid multiple.
    """
    if p <= 0.0:
        raise DomainError(f"moment order p must be positive, got {p}")
    try:
        delta_steps = exact_steps(delta, grid.h, "delta")
    except DomainError as exc:
        raise UsageError(f"delta={delta} is not aligned with the grid: {exc}") from exc
    ts = grid.tau_steps
    times = list(sample_times)
    if not times:
        raise UsageError("sample_times must be non-empty")
    ks = []
    for t in times:
        try:
            k = grid.index_of(t) - ts
        except DomainError as exc:
            raise UsageError(f"sample time {t} outside (0, T]: {exc}") from exc
        if k < 1 or k > grid.steps:
            raise UsageError(f"sample time {t} outside (0, T]")
        ks.append(k)

    acc = 0.0
    for k in ks:
        kd = (k // delta_steps) * delta_steps
        i, id_ = ts + k, ts + kd
        diff = path[i - ts: i + 1] - path[id_ - ts: id_ + 1]
        acc += float(_node_norms(diff).max()) ** p
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
    return SlopeFit(xs=lx.tolist(), ys=ly.tolist(), slope=slope,
                    intercept=intercept, r_squared=r2)


def _log_linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept with its r^2 (clipped at 0)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), float(r2)
