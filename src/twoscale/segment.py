"""History windows on a uniform grid.

A window is the last tau units of a path sampled every h units: an array
of shape (M + 1, n) with M = tau / h, whose row i is the state at offset
-tau + i * h.  Row M is "now" (offset 0), row 0 is the oldest point.
Coefficient maps receive windows as plain slices of the path array being
built; a Segment is the validated, immutable start window of a run.

All delay bookkeeping in the package is done in index space on top of
these windows, so tau / h (and later delta / h) must be an exact integer
ratio.  _integer_ratio is the single place that ratio is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, UsageError

# Relative slack when deciding whether a float ratio is an integer.
_DIV_RTOL = 1e-9


def _integer_ratio(ratio: float) -> int | None:
    """round(ratio) if ratio is a finite integer within _DIV_RTOL, else None."""
    if not math.isfinite(ratio):
        return None
    k = int(round(ratio))
    return k if abs(ratio - k) <= _DIV_RTOL * max(1.0, abs(ratio)) else None


def exact_steps(span: float, h: float, what: str = "span") -> int:
    """Return span / h as an int, requiring the division to be exact.

    The snapped integer is returned so downstream code never touches the
    float ratio again.
    """
    if h <= 0.0:
        raise DomainError(f"step h={h} must be positive")
    if span <= 0.0:
        raise DomainError(f"{what}={span} must be positive")
    ratio = span / h
    steps = _integer_ratio(ratio)
    if steps is None or steps < 1:
        raise DomainError(
            f"{what}={span!r} is not an integer multiple of h={h!r} (ratio {ratio!r})"
        )
    return steps


@dataclass(frozen=True, eq=False)
class Segment:
    """Immutable sampled history over [-tau, 0]."""

    tau: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        steps = exact_steps(self.tau, self.h, "tau")
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DataError(f"segment values must be 1-d or 2-d, got shape {arr.shape}")
        if arr.shape[0] != steps + 1:
            raise DataError(
                f"segment needs {steps + 1} rows for tau={self.tau}, h={self.h}; "
                f"got {arr.shape[0]}"
            )
        if not np.isfinite(arr).all():
            raise DataError("segment values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def grid_steps(self) -> int:
        return self.values.shape[0] - 1


def _node_norms(arr: np.ndarray) -> np.ndarray:
    # Euclidean length of each row; exact |.| in the scalar case so that
    # sup_norm of a 1-d segment is free of sqrt(x*x) rounding.
    if arr.shape[1] == 1:
        return np.abs(arr[:, 0])
    return np.sqrt(np.einsum("ij,ij->i", arr, arr))


def sup_norm(window: np.ndarray) -> float:
    """Largest Euclidean node norm over an (M + 1, n) window array."""
    return float(_node_norms(window).max())


def lipschitz_modulus(seg: Segment) -> float:
    """Largest per-step slope |v[i+1] - v[i]| / h over the window."""
    if seg.grid_steps == 0:
        return 0.0
    diffs = np.diff(seg.values, axis=0)
    return float(_node_norms(diffs).max() / seg.h)


def constant_segment(tau: float, h: float, value, n: int | None = None) -> Segment:
    """Window that sits at a single state for all offsets."""
    row = np.asarray(value, dtype=float)
    if row.ndim == 0:
        row = row[None]
    if row.ndim != 1:
        raise DataError(f"constant value must be scalar or 1-d, got shape {row.shape}")
    if n is not None and row.shape[0] != n:
        raise UsageError(f"constant value has dimension {row.shape[0]}, expected {n}")
    steps = exact_steps(tau, h, "tau")
    values = np.tile(row, (steps + 1, 1))
    return Segment(tau, h, values)
