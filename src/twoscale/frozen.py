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

import numpy as np

from .errors import (
    DegenerateFitError,
    DivergenceError,
    DomainError,
    UsageError,
)
from .noise import W2, NoiseStream, StreamFactory
from .segment import Segment, _node_norms, constant_segment, exact_steps
from .solver import TimeGrid, TrajectoryBundle, simulate_sdde
from .systems import SystemSpec

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


@dataclass(frozen=True)
class DriftEstimatorBudget:
    """Sub-simulation sizes for estimator-backed averaged drift."""

    burn_in: float
    horizon: float
    replicas: int


def simulate_frozen(
    spec: SystemSpec,
    zeta: Segment,
    eta: Segment,
    grid: TimeGrid,
    w2: NoiseStream,
) -> TrajectoryBundle:
    """Integrate the fast equation with the slow window pinned at zeta."""
    if zeta.n != spec.n:
        raise UsageError(f"zeta has dimension {zeta.n}, system needs {spec.n}")
    b2, sigma2 = spec.b2, spec.sigma2

    def drift(seg: Segment) -> np.ndarray:
        return b2(zeta, seg.values[-1], seg.values[0])

    def diffusion(seg: Segment) -> np.ndarray:
        return sigma2(zeta, seg.values[-1], seg.values[0])

    return simulate_sdde(spec.n, spec.m, drift, diffusion, eta, grid, w2,
                         role="fast", label="Yzeta")


def _default_eta(spec: SystemSpec, grid: TimeGrid) -> Segment:
    return constant_segment(grid.tau, grid.h, np.zeros(spec.n))


def estimate_averaged_drift(
    spec: SystemSpec,
    zeta: Segment,
    burn_in: float,
    horizon: float,
    replicas: int,
    grid: TimeGrid,
    streams: StreamFactory,
    *,
    eta: Segment | None = None,
) -> AveragedDriftEstimate:
    """Time-average b1(zeta, Y-window) along frozen trajectories.

    Each replica runs one trajectory, drops [0, burn_in], then averages
    b1 over every grid step of [burn_in, burn_in + horizon]; the reported
    value is the replica mean and std_error the replica scatter / sqrt(R).
    The start bias decays exponentially, so burn_in of a few multiples of
    1/rate suffices; below 5 tau a warning is emitted.
    """
    if replicas < 1:
        raise UsageError(f"replicas must be >= 1, got {replicas}")
    if horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if burn_in < 0.0:
        raise DomainError(f"burn_in must be >= 0, got {burn_in}")
    if burn_in < 5.0 * grid.tau:
        warnings.warn(
            f"burn_in={burn_in} is below 5*tau={5 * grid.tau}; the stationary "
            "average may still carry start bias",
            stacklevel=2,
        )
    k_burn = 0 if burn_in == 0.0 else exact_steps(burn_in, grid.h, "burn_in")
    k_len = exact_steps(horizon, grid.h, "horizon")
    if k_burn + k_len > grid.steps:
        raise UsageError(
            f"grid horizon T={grid.T} shorter than burn_in + horizon = {burn_in + horizon}"
        )
    if eta is None:
        eta = _default_eta(spec, grid)

    ts = grid.tau_steps
    b1 = spec.b1
    wrap = Segment._wrap
    tau, h = grid.tau, grid.h
    replica_means = np.empty((replicas, spec.n))
    for r in range(replicas):
        w2 = streams.stream(r, W2)
        try:
            bundle = simulate_frozen(spec, zeta, eta, grid, w2)
        except DivergenceError as exc:
            raise DivergenceError(
                exc.step_index, exc.time, exc.last_state,
                "frozen trajectory diverged; run check_dissipativity on this system",
            ) from exc
        y = bundle.path("fast")
        acc = np.zeros(spec.n)
        for k in range(k_burn, k_burn + k_len + 1):
            i = ts + k
            seg = wrap(tau, h, y[k: i + 1])
            acc += np.asarray(b1(zeta, seg), dtype=float)
        replica_means[r] = acc / (k_len + 1)

    value = replica_means.mean(axis=0)
    if replicas >= 2:
        std_error = replica_means.std(axis=0, ddof=1) / np.sqrt(replicas)
    else:
        std_error = np.zeros(spec.n)
    return AveragedDriftEstimate(value=value, std_error=std_error)


def mixing_decay(
    spec: SystemSpec,
    zeta: Segment,
    eta: Segment,
    eta_prime: Segment,
    grid: TimeGrid,
    replicas: int,
    streams: StreamFactory,
) -> DecayFit:
    """Fit the contraction rate of synchronously coupled frozen pairs.

    Two trajectories started from eta and eta_prime replay the identical
    W2 stream per replica, so their gap is driven purely by the dynamics.
    g(t) = replica mean of the squared window sup gap is recorded at
    checkpoints t = tau, 2 tau, ... and log g is fitted by least squares
    over the checkpoints with g above GAP_FLOOR; fitted_rate = -slope.
    Fewer than 3 usable checkpoints raise DegenerateFitError (gaps that
    hit the floor that fast are themselves strong evidence of mixing).
    """
    if replicas < 8:
        raise UsageError(f"mixing_decay needs replicas >= 8, got {replicas}")
    ts = grid.tau_steps
    n_checks = grid.steps // ts
    if n_checks < 3:
        raise UsageError(f"grid covers only {n_checks} delay spans; need >= 3")

    gaps = np.zeros(n_checks)
    for r in range(replicas):
        # Same stream address twice: bit-identical driving increments.
        ya = simulate_frozen(spec, zeta, eta, grid, streams.stream(r, W2)).path("fast")
        yb = simulate_frozen(spec, zeta, eta_prime, grid, streams.stream(r, W2)).path("fast")
        node = _node_norms(ya - yb)
        for j in range(1, n_checks + 1):
            a = ts + j * ts
            gaps[j - 1] += node[a - ts: a + 1].max() ** 2
    gaps /= replicas

    times = [(j + 1) * grid.tau for j in range(n_checks)]
    usable = [(t, g) for t, g in zip(times, gaps) if g > GAP_FLOOR]
    if len(usable) < 3:
        raise DegenerateFitError(
            f"only {len(usable)} checkpoints above the gap floor {GAP_FLOOR}; "
            "the coupled gap contracts too fast to fit (mixing itself is not in doubt)"
        )
    ts_fit = np.array([t for t, _ in usable])
    logs = np.log(np.array([g for _, g in usable]))
    slope, intercept = np.polyfit(ts_fit, logs, 1)
    pred = slope * ts_fit + intercept
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(
        times=ts_fit.tolist(),
        log_gaps=logs.tolist(),
        fitted_rate=float(-slope),
        r_squared=float(r2),
    )
