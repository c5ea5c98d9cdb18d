"""Reduced-order reconstruction and temporal dynamics of a fitted decomposition."""
from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from .dmd import DecompositionResult

IMAG_RESIDUAL_TOL = 1e-6


def _weighted_powers(result: DecompositionResult, ks: np.ndarray) -> np.ndarray:
    """r x len(ks) matrix with entry (j, i) = eigenvalue_j^ks[i] * amplitude_j."""
    if result.amplitudes is None:
        raise ValueError("decomposition has no amplitudes yet")
    if result.rank == 0:
        raise ValueError("decomposition has no modes")
    return result.eigenvalues[:, None] ** ks * result.amplitudes[:, None]


def reconstruct(result: DecompositionResult, k: int,
                return_residual: bool = False) -> np.ndarray | tuple[np.ndarray, float]:
    """Real part of modes @ (amplitudes * eigenvalues^k), the snapshot at time index k.

    The relative imaginary residual is a diagnostic; it should vanish for
    conjugate-complete models and triggers a warning when it does not.
    """
    if k < 0:
        raise ValueError("time index must be nonnegative")
    acc = result.modes @ _weighted_powers(result, np.array([k]))[:, 0]
    real = np.real(acc)
    denom = max(float(np.linalg.norm(real)), np.finfo(float).tiny)
    residual = float(np.linalg.norm(np.imag(acc))) / denom
    if residual > IMAG_RESIDUAL_TOL and np.linalg.norm(acc) > 0:
        warnings.warn(f"reconstruction imaginary residual {residual:.3e}")
    if return_residual:
        return real, residual
    return real


def temporal_dynamics(result: DecompositionResult, t_range: Iterable[int]) -> np.ndarray:
    """Rows of Re(eigenvalue^t * amplitude) over t_range, one per mode."""
    ts = np.asarray(list(t_range))
    if ts.size == 0:
        raise ValueError("empty time range")
    return np.real(_weighted_powers(result, ts.astype(complex)))


def forecast(result: DecompositionResult, horizon: int, n_train: int) -> np.ndarray:
    """Extrapolate the linear surrogate past the training window, one column
    per step; growing modes may saturate at the float limit (warned, values
    still returned)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_train < 0:
        raise ValueError("n_train must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.real(result.modes @ _weighted_powers(result, n_train + np.arange(horizon)))
    if not np.all(np.isfinite(out)):
        warnings.warn("forecast overflowed for growing modes; saturating values")
        out = np.nan_to_num(out, posinf=np.finfo(float).max, neginf=-np.finfo(float).max)
    return out


def spatial_grids(vec: np.ndarray, grid_shape: Sequence[int],
                  mask: np.ndarray | None = None, cycles: int = 1) -> np.ndarray:
    """Map a real spatial vector onto (cycles, n_lat, n_lon) grids, NaN at masked points.

    A cycle-stacked vector (length base*cycles) gives one grid per
    intra-cycle slot.
    """
    n_lat, n_lon = int(grid_shape[0]), int(grid_shape[1])
    full = n_lat * n_lon
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.size != full:
            raise ValueError(f"mask length {mask.size} != grid size {full}")
        base = int(mask.sum())
    else:
        base = full
    vec = np.asarray(vec)
    if base * cycles != vec.shape[0]:
        raise ValueError(
            f"mode length {vec.shape[0]} != {base} grid points x {cycles} cycles"
        )
    grids = np.full((cycles, full), np.nan)
    grids[:, mask if mask is not None else slice(None)] = vec.reshape(cycles, base)
    return grids.reshape(cycles, n_lat, n_lon)
