"""Companion-based DMD over the Krylov sequence of snapshots."""
from __future__ import annotations

import warnings

import numpy as np

from .dmd import eigen_decomposition

LSTSQ_RCOND = 1e-10


def companion_matrix(coefficients: np.ndarray) -> np.ndarray:
    """Ones on the subdiagonal, coefficients in the last column."""
    m = coefficients.shape[0]
    C = np.zeros((m, m), dtype=coefficients.dtype)
    C[1:, :-1] = np.eye(m - 1, dtype=coefficients.dtype)
    C[:, -1] = coefficients
    return C


def fit_companion(data: np.ndarray) -> np.ndarray:
    """Last-column coefficients of the companion matrix: the minimum-norm
    least-squares fit of the final snapshot of the p x N data on its predecessors."""
    if data.shape[1] < 3:
        raise ValueError(f"companion fit needs N >= 3, got N={data.shape[1]}")
    K = data[:, :-1]
    c, _, rank, _ = np.linalg.lstsq(K, data[:, -1], rcond=LSTSQ_RCOND)
    if rank < K.shape[1]:
        warnings.warn(
            f"rank-deficient Krylov sequence (rank {rank} of {K.shape[1]}), "
            "using minimum-norm coefficients"
        )
    return c


def companion_dmd(data: np.ndarray):
    """The DecompositionResult of the companion operator of the p x N snapshots
    data: eigenvalues of the (N-1)x(N-1) companion matrix and modes K T, held as
    the Krylov basis K = data[:, :-1] and the eigenvectors T of eigen_decomposition,
    in |eigenvalue| order as exact_dmd's. Amplitudes are left unset; fit them against K."""
    return eigen_decomposition(companion_matrix(fit_companion(data)), data[:, :-1], "cdmd")


def unit_circle_deviation(eigenvalues: np.ndarray) -> np.ndarray:
    """Distance of each eigenvalue magnitude from the unit circle."""
    return np.abs(np.abs(np.asarray(eigenvalues)) - 1.0)
