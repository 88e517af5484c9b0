"""Block-frozen auxiliary construction and the averaged slow equation.

The averaging argument runs through an auxiliary pair: partition [0, T]
into blocks of length delta, freeze the slow window at its value at each
block start t_delta, and restart the auxiliary fast process from the
true fast state at every block boundary.  The block length follows the
schedule delta = eps * sqrt(-ln eps) (valid for eps < 1/e, where
eps/delta < 1), snapped to tau / N so block boundaries land on delay
multiples and on the grid.

The averaged equation replaces the fast dependence of the slow drift by
the stationary average bbar1; simulate_averaged integrates it with the
same W1 stream as the coupled system it is compared against, which is
what makes pathwise sup-distance comparisons meaningful.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .frozen import DriftEstimatorBudget, estimate_averaged_drift
from .noise import NoiseStream, StreamFactory
from .segment import Segment, exact_steps
from .solver import (
    DEFAULT_KAPPA_STAB,
    TimeGrid,
    _coupled_core,
    _pair_increments,
    make_grid,
    simulate_sdde,
)
from .systems import SystemSpec

_INV_E = math.exp(-1.0)

# Sub-seed resolution of EstimatedDriftSource: windows that round to the
# same multiples of this share their sub-simulation streams.
_SEED_QUANT = 1e-4


@dataclass(frozen=True)
class DeltaSchedule:
    """Block length for one epsilon: raw value and its tau/N snap."""

    epsilon: float
    delta_raw: float
    delta: float
    N_delta: int


def khasminskii_delta(epsilon: float, tau: float) -> DeltaSchedule:
    """Block schedule delta_raw = eps * sqrt(-ln eps), snapped to tau / N.

    Requires 0 < eps < 1/e so that eps / delta_raw = (-ln eps)^{-1/2}
    stays below 1.  N = ceil(tau / delta_raw), hence delta <= delta_raw
    and delta divides tau exactly.
    """
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= _INV_E:
        raise DomainError(
            f"epsilon={epsilon} >= 1/e; the schedule needs eps/delta < 1, "
            "i.e. -ln(eps) > 1"
        )
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    delta_raw = epsilon * math.sqrt(-math.log(epsilon))
    n = max(1, math.ceil(tau / delta_raw))
    return DeltaSchedule(
        epsilon=float(epsilon),
        delta_raw=delta_raw,
        delta=tau / n,
        N_delta=n,
    )


@dataclass(frozen=True, eq=False)
class AuxiliaryPair:
    """Coupled pair (x, y) plus its block-frozen auxiliary pair (x_aux, y_aux).

    All four are read-only (grid.total, n) path arrays.
    """

    x: np.ndarray
    y: np.ndarray
    x_aux: np.ndarray
    y_aux: np.ndarray
    reset_indices: np.ndarray  # absolute array indices of block starts


def simulate_auxiliary(
    spec: SystemSpec,
    xi: Segment,
    eta: Segment,
    epsilon: float,
    schedule: DeltaSchedule,
    grid: TimeGrid,
    w1: NoiseStream,
    w2: NoiseStream,
    *,
    kappa_stab: float = DEFAULT_KAPPA_STAB,
) -> AuxiliaryPair:
    """Run the true pair and the block-frozen auxiliary pair on shared noise.

    Both members run the one coupled recursion of solver._coupled_core on
    the same increments drawn from (w1, w2).  The first pass is the true
    pair (X, Y), bit-identical to simulate_coupled.  The second reruns
    the recursion with block freezing and resets: at each block start
    the coefficients' slow window is frozen to the true slow window
    (sigma1 evaluated once per block) and the auxiliary fast process
    restarts from the true fast state (bit-exact reset, audited by
    callers).
    """
    dw1, dwf = _pair_increments(spec, xi, eta, epsilon, grid, w1, w2, kappa_stab)
    delta_steps = exact_steps(min(schedule.delta, grid.T), grid.h, "delta")
    x, y, _ = _coupled_core(spec, xi, eta, epsilon, grid, dw1, dwf)
    x_aux, y_aux, resets = _coupled_core(spec, xi, eta, epsilon, grid, dw1, dwf,
                                         freeze=(x, y, delta_steps))
    return AuxiliaryPair(x, y, x_aux, y_aux, np.asarray(resets, dtype=int))


def closed_form_drift(spec: SystemSpec):
    """Averaged drift callable from the benchmark's closed form."""
    if spec.benchmark is None:
        raise UsageError("spec has no benchmark closed form; use an estimator source")
    return spec.benchmark.averaged_drift


def simulate_averaged(
    spec: SystemSpec,
    xi: Segment,
    drift_source,
    grid: TimeGrid,
    w1: NoiseStream,
) -> np.ndarray:
    """Integrate dXbar = bbar1(Xbar_t) dt + sigma1(Xbar_t) dW1; returns the path.

    drift_source(window) supplies bbar1 on the (M + 1, n) window array:
    either a closed form or an EstimatedDriftSource.  Pass a stream with
    the same address as the coupled run's W1 to realize the shared-noise
    comparison.
    """
    if not callable(drift_source):
        raise UsageError("drift_source must be callable on a window array")
    return simulate_sdde(spec.n, spec.m, drift_source, spec.sigma1, xi, grid, w1,
                         label="Xbar")


class EstimatedDriftSource:
    """Averaged drift evaluated by on-demand frozen sub-simulation.

    Every call runs a fresh estimate_averaged_drift whose streams are
    seeded from a digest of the window rounded to _SEED_QUANT, so the
    evaluator is a pure function of (window, seed, budget).  Nothing is
    memoized: a diffusing path does not revisit a window.
    """

    def __init__(self, spec: SystemSpec, budget: DriftEstimatorBudget, sub_h: float, seed: int):
        self.spec = spec
        self.budget = budget
        self.seed = int(seed)
        self.sub_grid = make_grid(budget.burn_in + budget.horizon, sub_h, spec.tau)
        self.calls = 0
        self.max_std_error = 0.0

    @property
    def cache_misses(self) -> int:
        # Sub-simulations run: one per call.
        return self.calls

    def __call__(self, window: np.ndarray) -> np.ndarray:
        self.calls += 1
        key = np.round(window / _SEED_QUANT).astype(np.int64).tobytes()
        digest = hashlib.blake2b(key + b"|" + str(self.seed).encode(), digest_size=8)
        sub_seed = int.from_bytes(digest.digest(), "big")
        est = estimate_averaged_drift(
            self.spec, window, self.budget.burn_in, self.budget.horizon,
            self.budget.replicas, self.sub_grid, StreamFactory(sub_seed, self.spec.m),
        )
        se = float(np.max(est.std_error)) if est.std_error.size else 0.0
        if se > self.max_std_error:
            self.max_std_error = se
        return est.value
