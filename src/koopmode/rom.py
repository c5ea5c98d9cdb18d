"""Reduced-order reconstruction and temporal dynamics of a fitted decomposition."""
from __future__ import annotations

import warnings

import numpy as np

from .dmd import DecompositionResult, real_matmul, vandermonde

IMAG_RESIDUAL_TOL = 1e-6


def _weighted_powers(result: DecompositionResult, start: int, n_steps: int,
                     rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Matrix with entry (j, k) = eigenvalue_j^(start + k) * amplitude_j, for
    k < n_steps and the given rows."""
    if result.amplitudes is None:
        raise ValueError("decomposition has no amplitudes yet")
    if result.rank == 0:
        raise ValueError("decomposition has no modes")
    return vandermonde(result.eigenvalues[rows], n_steps, start) * result.amplitudes[rows, None]


def reconstruct(result: DecompositionResult, start: int,
                n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The model's snapshots at steps start .. start + n_steps - 1, one column
    each, Re(modes @ (amplitudes * eigenvalues^k)) formed as basis @
    (coefficients @ weights) without the modes, and each column's relative
    imaginary residual: a diagnostic that should vanish for conjugate-complete
    models, and warns when it does not. A snapshot whose 2-norm is not finite
    raises ValueError naming its step: a growing mode far out, whose sum of
    squares overflows float64 once entries pass about 1e154."""
    if start < 0:
        raise ValueError("time index must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        acc = real_matmul(result.basis,
                          result.coefficients @ _weighted_powers(result, start, n_steps))
        norms = np.array([[np.linalg.norm(part[:, k]) for part in (acc.real, acc.imag)]
                          for k in range(n_steps)])
    bad = np.flatnonzero(~np.isfinite(norms).all(axis=1))
    if bad.size:
        raise ValueError(f"the snapshot at step {start + bad[0]} overflows float64")
    residuals = norms[:, 1] / np.maximum(norms[:, 0], np.finfo(float).tiny)
    worst = int(np.argmax(residuals))
    if residuals[worst] > IMAG_RESIDUAL_TOL:
        warnings.warn(f"reconstruction imaginary residual {residuals[worst]:.3e} "
                      f"at step {start + worst}")
    return acc.real, residuals


def temporal_dynamics(result: DecompositionResult, n_steps: int,
                      rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Rows of Re(eigenvalue^t * amplitude) for t = 0..n_steps-1, one per mode
    in rows (default: every mode)."""
    return np.real(_weighted_powers(result, 0, n_steps, rows))
