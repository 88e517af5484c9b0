"""Simulation and verification toolkit for slow/fast delay SDE systems."""

import os

# Forked workers are the only parallelism; an unused OpenBLAS thread pool costs CPU to start.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    ConfigError,
    DataError,
    DegenerateFitError,
    DivergenceError,
    DomainError,
    TwoscaleError,
    UsageError,
)
from .segment import (
    constant_segment,
    exact_steps,
    lipschitz_modulus,
    window,
)
from .noise import W1, W2, NoiseStream, increments
from .systems import (
    DissipativityReport,
    GrowthReport,
    LinearBenchmarkParams,
    SystemSpec,
    build_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    check_initial_segment,
    linear_benchmark,
    random_points,
    random_segment_pairs,
    register_system,
    spot_check_purity,
)
from .solver import (
    TimeGrid,
    make_grid,
    simulate_coupled,
    simulate_sdde,
)
from .frozen import (
    AveragedDriftEstimate,
    DecayFit,
    estimate_averaged_drift,
    mixing_decay,
    simulate_frozen,
)
from .averaging import (
    AuxiliaryPair,
    EstimatedDriftSource,
    closed_form_drift,
    khasminskii_delta,
    simulate_auxiliary,
    simulate_averaged,
)
from .metrics import (
    MomentEstimate,
    SlopeFit,
    p_moment,
    segment_displacement_moment,
    slope_fit,
    sup_distance,
)
from .harness import ExperimentReport, Scenario, run_scenario

__version__ = "0.1.0"
