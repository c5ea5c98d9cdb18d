"""Koopman mode decomposition toolkit for gridded time-series snapshots.

The exports below load on first use (PEP 562), so importing the package loads
no numpy: the command-line entry can still choose the BLAS thread count.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cdmd": ("companion_dmd", "fit_companion", "unit_circle_deviation"),
    "dmd": ("DecompositionResult", "ModeStats", "SvdFactors", "conjugate_pairs",
            "conjugate_representatives", "exact_dmd", "mode_stats", "truncated_svd",
            "vandermonde"),
    "rom": ("reconstruct", "temporal_dynamics"),
    "snapshots": ("SnapshotMatrix", "load_mask", "load_matrix", "save_matrix", "stack_cycles",
                  "subtract_mean", "unstack_cycles", "write_csv"),
    "spdmd": ("AdmmParams", "QuadraticForm", "SparseSolution", "admm_solve", "gamma_sweep",
              "log_gamma_grid", "optimal_amplitudes", "performance_loss", "polish",
              "quadratic_form", "select_modes", "solve_at_gamma"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
