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


def _combine(result: DecompositionResult, weights: np.ndarray) -> np.ndarray:
    """modes @ weights, as basis @ (coefficients @ weights): the modes are not formed."""
    return real_matmul(result.basis, result.coefficients @ weights)


def reconstruct(result: DecompositionResult, k: int) -> tuple[np.ndarray, float]:
    """Real part of modes @ (amplitudes * eigenvalues^k), the snapshot at time
    index k, and its relative imaginary residual: a diagnostic that should
    vanish for conjugate-complete models, and warns when it does not."""
    if k < 0:
        raise ValueError("time index must be nonnegative")
    acc = _combine(result, _weighted_powers(result, k, 1))[:, 0]
    real = np.real(acc)
    denom = max(float(np.linalg.norm(real)), np.finfo(float).tiny)
    residual = float(np.linalg.norm(np.imag(acc))) / denom
    if residual > IMAG_RESIDUAL_TOL and np.linalg.norm(acc) > 0:
        warnings.warn(f"reconstruction imaginary residual {residual:.3e}")
    return real, residual


def temporal_dynamics(result: DecompositionResult, n_steps: int,
                      rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Rows of Re(eigenvalue^t * amplitude) for t = 0..n_steps-1, one per mode
    in rows (default: every mode)."""
    return np.real(_weighted_powers(result, 0, n_steps, rows))


def forecast(result: DecompositionResult, horizon: int, n_train: int) -> np.ndarray:
    """Extrapolate the linear surrogate past the training window, one column
    per step; growing modes may saturate at the float limit (warned, values
    still returned)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_train < 0:
        raise ValueError("n_train must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.real(_combine(result, _weighted_powers(result, n_train, horizon)))
    if not np.all(np.isfinite(out)):
        warnings.warn("forecast overflowed for growing modes; saturating values")
        out = np.nan_to_num(out, posinf=np.finfo(float).max, neginf=-np.finfo(float).max)
    return out

