"""History windows on a uniform grid.

A window is the last tau units of a path sampled every h units: an array
of shape (M + 1, n) with M = tau / h, whose row i is the state at offset
-tau + i * h.  Row M is "now" (offset 0), row 0 is the oldest point.
Coefficient maps receive a batch of windows, (M + 1, P, n), as plain
slices of the path array being built; window() validates the start
window of a run and returns it read-only, and the kernels take it as is.

All delay bookkeeping in the package is done in index space on top of
these windows, so tau / h (and later delta / h) must be an exact integer
ratio.  _integer_ratio is the single place that ratio is checked.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DataError, DomainError, UsageError

# Relative slack when deciding whether a float ratio is an integer.
_DIV_RTOL = 1e-9


def _integer_ratio(ratio: float) -> int | None:
    """round(ratio) if ratio is a finite integer within _DIV_RTOL, else None.

    From 2**53 up every float is an integer, so no ratio there shows that
    a step divides a span.
    """
    if not abs(ratio) < 2.0 ** 53:
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


def _whole(value, name: str, least: int = 0) -> int:
    """value as an int >= least, the one whole-count check: a float, even 1.0, is refused."""
    try:
        k = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if k < least:
        raise DomainError(f"{name} must be >= {least}, got {k}")
    return k


def window(tau: float, h: float, values) -> np.ndarray:
    """values as a validated, read-only (M + 1, n) start window; 1-d values are n = 1."""
    steps = exact_steps(tau, h, "tau")
    arr = np.array(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DataError(f"segment values must be 1-d or 2-d, got shape {arr.shape}")
    if arr.shape[0] != steps + 1:
        raise DataError(
            f"segment needs {steps + 1} rows for tau={tau}, h={h}; "
            f"got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise DataError("segment values must be finite")
    arr.setflags(write=False)
    return arr


def _node_norms(arr: np.ndarray) -> np.ndarray:
    # Euclidean length along the last axis; exact |.| in the scalar case
    # so that the sup norm of a 1-d window is free of sqrt(x*x) rounding.
    if arr.shape[-1] == 1:
        return np.abs(arr[..., 0])
    return np.sqrt(np.einsum("...i,...i->...", arr, arr))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[i] @ b[i] for each row of two (count, k) arrays.  Stacked (1, k) @
    # (k, 1) products run numpy's 1-d dot kernel, so each row keeps the
    # bits of its own a[i] @ b[i] (and np.sqrt of it those of
    # np.linalg.norm(a[i])); an einsum can round the sum differently.
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def lipschitz_modulus(values: np.ndarray, h: float) -> float:
    """Largest per-step slope |v[i+1] - v[i]| / h over the window."""
    diffs = np.diff(values, axis=0)
    return float(_node_norms(diffs).max() / h)


def constant_segment(tau: float, h: float, value, n: int | None = None) -> np.ndarray:
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
    return window(tau, h, values)
