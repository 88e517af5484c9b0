"""Ensemble statistics over trajectory bundles.

Sup distances are taken over grid nodes (consistent with the segment
module's node-max convention), moments carry plain standard errors, and
scaling exponents come from least squares on log-log data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .segment import _node_norms, exact_steps
from .solver import TrajectoryBundle


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


def _same_grid(a: TrajectoryBundle, b: TrajectoryBundle):
    ga, gb = a.grid, b.grid
    if (ga.steps, ga.tau_steps) != (gb.steps, gb.tau_steps) or abs(ga.h - gb.h) > 1e-12 * ga.h:
        raise UsageError("bundles live on different grids")


def sup_distance(
    a: TrajectoryBundle,
    b: TrajectoryBundle,
    window: tuple[float, float] | None = None,
) -> float:
    """Largest pointwise gap between two bundles' slow paths over a time window.

    The window defaults to the grid times of [0, T].
    """
    _same_grid(a, b)
    g = a.grid
    t0, t1 = window if window is not None else (0.0, g.T)
    if t1 < t0:
        raise UsageError(f"empty window ({t0}, {t1})")
    i0 = g.index_of(t0)
    i1 = g.index_of(t1)
    diff = a.path("slow")[i0: i1 + 1] - b.path("slow")[i0: i1 + 1]
    return float(_node_norms(diff).max())


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
    bundle: TrajectoryBundle,
    delta: float,
    p: float,
    sample_times,
) -> float:
    """Average of ||window(t) - window(t_delta)||_sup^p over the sample times.

    Windows are taken from the bundle's slow path.  t_delta is the block
    start preceding t, computed in index space so a t exactly on a
    boundary contributes 0.  delta must be a grid multiple.
    """
    g = bundle.grid
    if p <= 0.0:
        raise DomainError(f"moment order p must be positive, got {p}")
    try:
        delta_steps = exact_steps(delta, g.h, "delta")
    except DomainError as exc:
        raise UsageError(f"delta={delta} is not aligned with the grid: {exc}") from exc
    ts = g.tau_steps
    times = list(sample_times)
    if not times:
        raise UsageError("sample_times must be non-empty")
    ks = []
    for t in times:
        try:
            k = g.index_of(t) - ts
        except DomainError as exc:
            raise UsageError(f"sample time {t} outside (0, T]: {exc}") from exc
        if k < 1 or k > g.steps:
            raise UsageError(f"sample time {t} outside (0, T]")
        ks.append(k)

    path = bundle.path("slow")
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
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(xs=lx.tolist(), ys=ly.tolist(), slope=float(slope),
                    intercept=float(intercept), r_squared=float(r2))
