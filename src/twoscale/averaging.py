"""Block-frozen auxiliary construction and the averaged slow equation.

The averaging argument runs through an auxiliary pair: partition [0, T]
into blocks of length delta, freeze the slow window at its value at each
block start t_delta, and restart the auxiliary fast process from the
true fast state at every block boundary.  The block length follows the
schedule delta = eps * sqrt(-ln eps) (valid for eps < 1/e, where
eps/delta < 1), snapped to tau / N so block boundaries land on delay
multiples and on the grid.

The averaged equation replaces the fast dependence of the slow drift by
the stationary average bbar1; simulate_averaged integrates it on the
same W1 increments as the coupled system it is compared against, which
is what makes pathwise sup-distance comparisons meaningful.  Estimated
bbar1 draws from streams addressed by (seed, row, path, macro step).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence

from .errors import DomainError, UsageError
from .frozen import estimate_averaged_drift
from .segment import exact_steps
from .solver import (TimeGrid, _check_delay, _coupled_core, _pair_increments, make_grid,
                     simulate_sdde)
from .systems import SystemSpec

_INV_E = math.exp(-1.0)


def khasminskii_delta(epsilon: float, tau: float) -> int:
    """Block count N of the schedule delta_raw = eps * sqrt(-ln eps) snapped to tau / N.

    Requires 0 < eps < 1/e so that eps / delta_raw = (-ln eps)^{-1/2}
    stays below 1.  N = ceil(tau / delta_raw), hence the block length
    delta = tau / N is at most delta_raw and divides tau exactly.
    """
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= _INV_E:
        raise DomainError(
            f"epsilon={epsilon} >= 1/e; the schedule needs eps/delta < 1, "
            "i.e. -ln(eps) > 1"
        )
    if not 0.0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")
    delta_raw = epsilon * math.sqrt(-math.log(epsilon))
    return max(1, math.ceil(tau / delta_raw))


@dataclass(frozen=True, eq=False)
class AuxiliaryPair:
    """Coupled pairs (x, y) plus their block-frozen auxiliary pairs (x_aux, y_aux).

    All four are read-only (grid.total, P, n) path arrays.
    """

    x: np.ndarray
    y: np.ndarray
    x_aux: np.ndarray
    y_aux: np.ndarray
    reset_indices: np.ndarray  # absolute array indices of block starts


def simulate_auxiliary(
    spec: SystemSpec,
    xi: np.ndarray,
    eta: np.ndarray,
    epsilon: float,
    delta: float,
    grid: TimeGrid,
    dw1: np.ndarray,
    dw2: np.ndarray,
) -> AuxiliaryPair:
    """Run a batch of true pairs and block-frozen auxiliary pairs on shared noise.

    Both passes run the one coupled recursion of solver._coupled_core on
    the same increments dw1 and dw2, taken as simulate_coupled takes
    them.  The first pass is the true pair (X, Y), bit-identical to
    simulate_coupled.  The second reruns the recursion with block
    freezing and resets: at each start of a block of length delta (a
    multiple of h, cut at grid.T) the coefficients' slow
    window is frozen to the true slow window (sigma1 evaluated once per
    block) and the auxiliary fast process restarts from the true fast
    state (bit-exact reset, audited by callers).  The first failure of
    the true pass is raised before the auxiliary pass starts, then the
    auxiliary pass's first failure, as solver._coupled_core raises them.
    """
    xi, eta, dw1, dw2 = _pair_increments(spec, xi, eta, epsilon, grid, dw1, dw2)
    delta_steps = exact_steps(min(delta, grid.T), grid.h, "delta")
    x, y = _coupled_core(spec, xi, eta, epsilon, grid, dw1, dw2)
    x_aux, y_aux = _coupled_core(spec, xi, eta, epsilon, grid, dw1, dw2,
                                 freeze=(x, y, delta_steps))
    resets = grid.tau_steps + np.arange(0, grid.steps, delta_steps)
    return AuxiliaryPair(x, y, x_aux, y_aux, resets)


def closed_form_drift(spec: SystemSpec):
    """Closed-form averaged drift kappa * chi[-1]; a call's (row, paths, step) is ignored."""
    if spec.benchmark is None:
        raise UsageError("spec has no benchmark closed form; use an estimator source")
    kappa = spec.benchmark.kappa
    return lambda chi, *address: kappa * chi[-1]


def simulate_averaged(
    spec: SystemSpec,
    xi: np.ndarray,
    source,
    grid: TimeGrid,
    dw1: np.ndarray,
    row: int = 0,
    paths=None,
):
    """Integrate a batch of dXbar = bbar1(Xbar_t) dt + sigma1(Xbar_t) dW1.

    source(windows, row, paths, step) supplies bbar1, shape (P, n), on the
    (M + 1, P, n) window array once per step: a closed form, or an
    EstimatedDriftSource.  Column i is path paths[i] (default range(P))
    of report row `row`, and step counts from 0 in every call.  Pass the
    coupled run's dw1 to realize the shared-noise comparison.  Returns the
    read-only (grid.total, P, n) paths and raises the first failure of any
    path, a drift source's own error included, as simulate_sdde does; a
    grid built for another delay is refused.
    """
    if not callable(source):
        raise UsageError("source must be callable on a window array")
    _check_delay(spec, grid)
    steps = itertools.count()
    return simulate_sdde(
        spec.n, spec.m,
        lambda w: source(w, row, range(w.shape[1]) if paths is None else paths, next(steps)),
        spec.sigma1, xi, grid, dw1, label="Xbar")


class EstimatedDriftSource:
    """Averaged drift evaluated by on-demand frozen sub-simulation.

    A call runs one estimate_averaged_drift for all P windows of its
    batch, each with replicas frozen sub-simulations on the step h that
    drop [0, burn_in] and average over the next horizon, seeded from
    SeedSequence(seed, spawn_key=(row, path, step)) for its row, global
    path index and macro step.  A path's value is thus a pure function of
    (window, address, seed, budget), whatever batch it comes in, and paths
    with equal windows, as all are at step 0, get independent estimates.
    calls counts windows.  Nothing is memoized.
    """

    def __init__(self, spec: SystemSpec, seed: int, *, burn_in: float, horizon: float,
                 replicas: int, h: float):
        self.spec = spec
        self.seed = int(seed)
        self.burn_in, self.horizon, self.replicas, self.h = burn_in, horizon, replicas, h
        make_grid(burn_in + horizon, h, spec.tau)  # refuses a misaligned budget here
        self.calls = 0
        self.max_std_error = 0.0

    @property
    def cache_misses(self) -> int:
        # Windows estimated: every one of them.
        return self.calls

    def __call__(self, windows: np.ndarray, row: int, paths, step: int) -> np.ndarray:
        """bbar1 of each window of the (M + 1, P, n) batch, shape (P, n); column i is
        path paths[i] of report row `row` at macro step `step`."""
        seeds = [int(SeedSequence(self.seed, spawn_key=(row, p, step))
                     .generate_state(1, np.uint64)[0]) for p in paths]
        self.calls += len(seeds)
        est = estimate_averaged_drift(
            self.spec, windows, self.burn_in, self.horizon, self.replicas, self.h, seeds,
        )
        self.max_std_error = max(self.max_std_error, float(np.max(est.std_error)))
        return est.value
