"""Companion-based DMD over the Krylov sequence of snapshots."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dmd import DecompositionResult, EIGENBASIS_COND_LIMIT
from .snapshots import SnapshotMatrix

LSTSQ_RCOND = 1e-10


@dataclass(frozen=True)
class CompanionModel:
    """Last-column coefficients of the least-squares companion matrix."""

    coefficients: np.ndarray
    residual_norm: float

    @cached_property
    def companion_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the companion matrix, computed on first use."""
        return np.linalg.eigvals(companion_matrix(self.coefficients))


def companion_matrix(coefficients: np.ndarray) -> np.ndarray:
    """Ones on the subdiagonal, coefficients in the last column."""
    m = coefficients.shape[0]
    C = np.zeros((m, m), dtype=coefficients.dtype)
    C[1:, :-1] = np.eye(m - 1, dtype=coefficients.dtype)
    C[:, -1] = coefficients
    return C


def fit_companion(X: SnapshotMatrix) -> CompanionModel:
    """Minimum-norm least-squares fit of the final snapshot on its predecessors."""
    if X.n_steps < 3:
        raise ValueError(f"companion fit needs N >= 3, got N={X.n_steps}")
    K = X.data[:, :-1]
    target = X.data[:, -1]
    c, _, rank, _ = np.linalg.lstsq(K, target, rcond=LSTSQ_RCOND)
    if rank < K.shape[1]:
        warnings.warn(
            f"rank-deficient Krylov sequence (rank {rank} of {K.shape[1]}), "
            "using minimum-norm coefficients"
        )
    return CompanionModel(coefficients=c, residual_norm=float(np.linalg.norm(target - K @ c)))


def companion_dmd(X: SnapshotMatrix) -> DecompositionResult:
    """Companion-operator decomposition: eigenvalues of the (N-1)x(N-1) companion
    matrix and modes as Krylov-basis combinations, in eigensolver order.
    Amplitudes are left unset; fit them against X.data[:, :-1]."""
    model = fit_companion(X)
    C = companion_matrix(model.coefficients)
    evals, T = np.linalg.eig(C)
    cond = np.linalg.cond(T)
    if cond > EIGENBASIS_COND_LIMIT:
        warnings.warn(f"near-defective companion eigenbasis, condition {cond:.3e}")
    return DecompositionResult(
        eigenvalues=evals,
        modes=X.data[:, :-1] @ T,
        amplitudes=None,
        rank=evals.size,
        method="cdmd",
        dt_label=X.dt_label,
    )


def unit_circle_deviation(eigenvalues: np.ndarray) -> np.ndarray:
    """Distance of each eigenvalue magnitude from the unit circle."""
    return np.abs(np.abs(np.asarray(eigenvalues)) - 1.0)
