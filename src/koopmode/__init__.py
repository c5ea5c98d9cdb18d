"""Koopman mode decomposition toolkit for gridded time-series snapshots."""

__version__ = "0.1.0"

from .cdmd import CompanionModel, companion_dmd, fit_companion, unit_circle_deviation
from .dmd import (
    DecompositionResult,
    ModeStats,
    SvdFactors,
    conjugate_pairs,
    exact_dmd,
    mode_stats,
    optimal_amplitudes,
    truncated_svd,
    vandermonde,
)
from .rom import forecast, reconstruct, spatial_grids, temporal_dynamics
from .snapshots import (
    SnapshotMatrix,
    SnapshotPair,
    apply_mask,
    build_pairs,
    load_mask,
    load_matrix,
    save_matrix,
    stack_cycles,
    subtract_mean,
    unstack_cycles,
    write_csv,
)
from .spdmd import (
    AdmmParams,
    QuadraticForm,
    SparseSolution,
    admm_solve,
    gamma_sweep,
    log_gamma_grid,
    performance_loss,
    polish,
    quadratic_form,
    select_modes,
    solve_at_gamma,
)

__all__ = [
    "__version__",
    "AdmmParams", "CompanionModel", "DecompositionResult", "ModeStats",
    "QuadraticForm", "SnapshotMatrix", "SnapshotPair",
    "SparseSolution", "SvdFactors",
    "admm_solve", "apply_mask", "build_pairs", "companion_dmd", "conjugate_pairs",
    "exact_dmd",
    "fit_companion", "forecast", "gamma_sweep", "load_mask", "load_matrix",
    "log_gamma_grid", "mode_stats", "optimal_amplitudes",
    "performance_loss", "polish", "quadratic_form", "reconstruct",
    "save_matrix", "select_modes", "solve_at_gamma", "spatial_grids",
    "stack_cycles", "subtract_mean", "temporal_dynamics", "truncated_svd",
    "unit_circle_deviation", "unstack_cycles", "vandermonde", "write_csv",
]
