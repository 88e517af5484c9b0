"""Frozen fast dynamics: stationary sampling and ergodicity diagnostics.

Holding the slow window fixed at zeta turns the fast equation into an
autonomous delay SDE
    dY = b2(zeta, Y(t), Y(t - tau)) dt + sigma2(zeta, Y(t), Y(t - tau)) dW2.
Under the one-sided contraction condition (see systems.check_dissipativity)
this process forgets its start exponentially fast and has a unique
stationary law; the averaged slow drift is the stationary average of
b1(zeta, .).  This module estimates that average by long-run time
averaging and measures the forgetting rate through synchronously coupled
pairs.  The coupled gap also bounds the distance between the frozen laws
from two starts: in the truncated sup metric, W2^2 <= E[sup gap^2].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateFitError,
    DivergenceError,
    DomainError,
    UsageError,
)
from .noise import W2, increments
from .metrics import _float_pow, _log_linear_fit
from .segment import _node_norms, exact_steps
from .solver import TimeGrid, _check_delay, make_grid, simulate_sdde
from .systems import SystemSpec, _drift

GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class AveragedDriftEstimate:
    value: np.ndarray
    std_error: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    times: list
    log_gaps: list
    fitted_rate: float
    r_squared: float


def simulate_frozen(
    spec: SystemSpec,
    zeta: np.ndarray,
    eta: np.ndarray,
    grid: TimeGrid,
    dw2: np.ndarray,
):
    """Integrate a batch of the fast equation with the slow window pinned at zeta.

    zeta is an (M + 1, P, n) array whose column p path p (increments
    dw2[:, p]) reads; paths that share one window read an np.broadcast_to
    view.  eta is the (M + 1, n) start window.  Returns the read-only
    (grid.total, P, n) paths and raises the first failure of any path,
    as simulate_sdde does, a divergence as "frozen trajectory diverged;
    run check_dissipativity ..."; a grid built for another delay is refused.
    """
    _check_delay(spec, grid)
    try:
        return simulate_sdde(spec.n, spec.m, spec.b2, spec.sigma2, eta, grid, dw2, chi=zeta)
    except DivergenceError as exc:
        raise DivergenceError(exc.step_index, exc.time, exc.last_state, "frozen trajectory "
                              "diverged; run check_dissipativity on this system") from exc


def _budget(tau: float, burn_in: float, horizon: float, replicas: int, h: float):
    """The step-h grid of [-tau, burn_in + horizon] and the steps of burn_in and horizon:
    the one budget check that the parser, the estimator source and every drift call share."""
    if not isinstance(replicas, Integral) or replicas < 1:
        raise UsageError(f"replicas must be an integer >= 1, got {replicas!r}")
    if horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if burn_in < 0.0:
        raise DomainError(f"burn_in must be >= 0, got {burn_in}")
    exact_steps(tau, h, "tau")
    k_len = exact_steps(horizon, h, "horizon")
    k_burn = 0 if burn_in == 0.0 else exact_steps(burn_in, h, "burn_in")
    return make_grid(burn_in + horizon, h, tau), k_burn, k_len


def estimate_averaged_drift(
    spec: SystemSpec,
    zeta: np.ndarray,
    burn_in: float,
    horizon: float,
    replicas: int,
    h: float,
    seeds,
    *,
    eta: np.ndarray | None = None,
) -> AveragedDriftEstimate:
    """Time-average b1(zeta, Y-window) along frozen trajectories.

    zeta is a batch of P pinned slow windows, (M + 1, P, n), with a
    sequence of P seeds; a single window is the batch of one.  b1 reads
    zeta, like the fast window, on the step-h grid: a node on a row of
    zeta takes that row, any other the line between its two neighbours.
    All P x R replicas run as one frozen sub-simulation, column p * R + r
    being replica r of window p, driven by stream (seeds[p], r, W2) and
    started from the window eta (zero by default) on the step-h grid of
    [-tau, burn_in + horizon].  Each drops [0, burn_in], then averages b1
    over every grid step of [burn_in, burn_in + horizon], summed in time
    order; b1 sees one column's steps as its batch, or one step's columns
    if there are more columns than steps.  Window p's value[p] is its
    replica mean and std_error[p] its replica scatter / sqrt(R), both of
    shape (P, n).
    If any replica fails, the batch's first failure is raised: the
    earliest step, then the lowest column, so of two failing replicas the
    one that fails first in time is reported, not the lower-numbered one.
    The start bias decays exponentially, so burn_in of a few multiples of
    1/rate suffices; below 5 tau a warning is emitted.
    """
    if len(seeds) == 0:
        raise UsageError("need at least one window and its seed, got none")
    if zeta.ndim != 3 or zeta.shape[1:] != (len(seeds), spec.n):
        raise UsageError(
            f"zeta has shape {zeta.shape}; {len(seeds)} seeds of a system "
            f"with n={spec.n} need (M + 1, {len(seeds)}, {spec.n})"
        )
    grid, k_burn, k_len = _budget(spec.tau, burn_in, horizon, replicas, h)
    if burn_in < 5.0 * grid.tau:
        warnings.warn(
            f"burn_in={burn_in} is below 5*tau={5 * grid.tau}; the stationary "
            "average may still carry start bias",
            stacklevel=2,
        )
    ts = grid.tau_steps
    if eta is None:
        eta = np.zeros((ts + 1, spec.n))

    q, r = divmod(np.arange(ts + 1) * (len(zeta) - 1), ts)
    nodes = zeta[q]
    off = r > 0
    nodes[off] += (zeta[q[off] + 1] - nodes[off]) * (r[off] / ts)[:, None, None]
    chi = np.repeat(nodes, replicas, axis=1)
    dw2 = increments([s for s in seeds for _ in range(replicas)],
                     [r for _ in seeds for r in range(replicas)], W2, spec.m, grid.steps, grid.h)
    y = simulate_frozen(spec, chi, eta, grid, dw2)
    b1, (rows, cols, n), steps = spec.b1, chi.shape, k_len + 1
    # Zero-copy (window row, step, column, n) views of the pinned and the
    # fast windows.  b1 sees one column's steps or one step's columns as
    # its batch, whichever makes fewer calls.
    chis = np.broadcast_to(chi[:, None], (rows, steps, cols, n))
    fast = y[k_burn: k_burn + k_len + ts + 1]
    phis = np.moveaxis(sliding_window_view(fast, ts + 1, axis=0), -1, 0)
    vals = np.zeros((steps + 1, cols, n))  # a zero row, then b1 in time order
    out = vals[1:]
    if cols <= steps:
        chis, phis, out = chis.swapaxes(1, 2), phis.swapaxes(1, 2), out.swapaxes(0, 1)
    for i, batch in enumerate(out):
        batch[...] = _drift(b1(chis[:, i], phis[:, i]), *batch.shape, "b1")
    # The running sum keeps the order and the sign of zero of adding step by
    # step; window p's statistics reduce its own (R, n) block, as a batch of one does.
    blocks = (np.add.accumulate(vals)[-1] / steps).reshape(len(seeds), replicas, n)
    std_error = np.zeros((len(seeds), n))
    if replicas >= 2:
        std_error = blocks.std(axis=1, ddof=1) / np.sqrt(replicas)
    return AveragedDriftEstimate(value=blocks.mean(axis=1), std_error=std_error)


def mixing_decay(
    spec: SystemSpec,
    zeta: np.ndarray,
    eta: np.ndarray,
    eta_prime: np.ndarray,
    h: float,
    checkpoints: int,
    replicas: int,
    seed: int,
) -> DecayFit:
    """Fit the contraction rate of synchronously coupled frozen pairs.

    Two batches of trajectories started from the (M + 1, n) windows eta
    and eta_prime run on one array of W2 increments, so their gap is
    driven purely by the dynamics; all read the slow window zeta on the
    step-h grid of [-tau, checkpoints * tau], checkpoints >= 3.
    g(t) = replica mean of the squared window sup gap is recorded at
    t = tau, 2 tau, ..., checkpoints * tau and log g is fitted by least
    squares over the checkpoints with g above GAP_FLOOR; fitted_rate = -slope.
    Fewer than 3 usable checkpoints raise DegenerateFitError (gaps that
    hit the floor that fast are themselves strong evidence of mixing).
    A failed trajectory raises the eta batch's first failure before any
    of the eta_prime batch's.
    """
    if not isinstance(replicas, Integral) or replicas < 8:
        raise UsageError(f"mixing_decay needs an integer replicas >= 8, got {replicas!r}")
    if not isinstance(checkpoints, Integral) or checkpoints < 3:
        raise UsageError(f"mixing_decay needs an integer checkpoints >= 3, got {checkpoints!r}")
    grid = make_grid(checkpoints * spec.tau, h, spec.tau)
    ts = grid.tau_steps

    zeta = np.broadcast_to(zeta[:, None], (zeta.shape[0], replicas) + zeta.shape[1:])
    dw2 = increments(seed, range(replicas), W2, spec.m, grid.steps, grid.h)
    ya = simulate_frozen(spec, zeta, eta, grid, dw2)
    yb = simulate_frozen(spec, zeta, eta_prime, grid, dw2)
    node = _node_norms(ya - yb)
    # Squared window sup gaps (checkpoint, replica), summed in replica order.
    squares = np.stack([_float_pow(node[a - ts: a + 1].max(axis=0), 2)
                        for a in range(2 * ts, ts + checkpoints * ts + 1, ts)])
    gaps = np.add.accumulate(squares, axis=1)[:, -1] / replicas

    times = [(j + 1) * grid.tau for j in range(checkpoints)]
    usable = [(t, g) for t, g in zip(times, gaps) if g > GAP_FLOOR]
    if len(usable) < 3:
        raise DegenerateFitError(
            f"only {len(usable)} checkpoints above the gap floor {GAP_FLOOR}; "
            "the coupled gap contracts too fast to fit (mixing itself is not in doubt)"
        )
    ts_fit = np.array([t for t, _ in usable])
    logs = np.log(np.array([g for _, g in usable]))
    slope, _, r2 = _log_linear_fit(ts_fit, logs)
    return DecayFit(
        times=ts_fit.tolist(),
        log_gaps=logs.tolist(),
        fitted_rate=-slope,
        r_squared=r2,
    )
