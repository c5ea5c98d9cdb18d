"""Exact DMD: truncated SVD, compressed operator, modes, Vandermonde."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

RANK_TOL = 1e-10  # a singular value at or below RANK_TOL·σ₁ counts as zero (DMD and CDMD)
CONJUGATE_TOL = 1e-8
MODE_STYLES = ("exact", "projected")


@dataclass(frozen=True)
class SvdFactors:
    """Top-r factors of Y = U diag(S) V*."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class DecompositionResult:
    """The Koopman tuples (eigenvalue, spatial mode, amplitude) of one
    decomposition, one column each; snapshot k is Re(modes @ (amplitudes * eigenvalues**k)).

    The modes are held as factors, modes = basis @ coefficients: a p x k
    basis and a k x r coefficient matrix, each real or complex (a loaded model
    holds one stored mode per conjugate pair as re/im basis columns, W = 1 and ±i).
    Re-sorting and selecting columns moves coefficient columns only; `modes`
    forms the p x r product on first use.

    amplitudes is None until fitted; original_indices tracks each column's
    position in the decomposition before any amplitude re-sorting.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    coefficients: np.ndarray
    amplitudes: np.ndarray | None
    method: str
    original_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.coefficients.shape != (self.basis.shape[1], self.rank):
            raise ValueError("basis/coefficients inconsistent with the eigenvalues")
        if self.amplitudes is not None and self.amplitudes.shape[0] != self.rank:
            raise ValueError("amplitudes length inconsistent with rank")
        if self.original_indices is None:
            object.__setattr__(self, "original_indices", np.arange(self.rank))

    @property
    def rank(self) -> int:
        """One mode per eigenvalue."""
        return self.eigenvalues.shape[0]

    @cached_property
    def modes(self) -> np.ndarray:
        """The p x r complex mode matrix basis @ coefficients."""
        return real_matmul(self.basis, self.coefficients)

    def with_amplitudes(self, b: np.ndarray) -> "DecompositionResult":
        """Attach amplitudes and re-sort columns by |b| descending; both members
        of a conjugate pair sort by the pair's larger |b|, so roundoff between
        them does not decide (ties broken by ascending original index)."""
        b = np.asarray(b, dtype=complex)
        if b.shape[0] != self.rank:
            raise ValueError("amplitude vector length mismatch")
        mag = np.abs(b)
        key = np.maximum(mag, mag[conjugate_pairs(self.eigenvalues)])
        order = np.lexsort((self.original_indices, -key))
        return replace(
            self,
            eigenvalues=self.eigenvalues[order],
            coefficients=self.coefficients[:, order],
            amplitudes=b[order],
            original_indices=self.original_indices[order],
        )


class RankError(ValueError):
    """A rank above the numerical rank of the matrix to factor."""


class ModeStats(NamedTuple):
    magnitude: float
    e_folding: float
    period: float


def truncated_svd(Y: np.ndarray, rank: int | None = None) -> SvdFactors:
    """Rank-r SVD; the default rank, and the largest rank accepted, is the
    numerical rank: the count of singular values above RANK_TOL * sigma_1
    (a larger rank raises RankError, and one above min(p, M) ValueError).

    A wide Y (p < M) is factored through the p x p R of Y* = QR, the step
    LAPACK's SVD of Y* takes first once M >= 11p/6: U and S come from the SVD
    of R, and only the kept columns V = Y* U / S are formed, each to about
    eps sigma_1 / sigma_k. A tall or square Y takes one SVD."""
    if rank is not None and rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    Y = np.asarray(Y)
    if Y.size == 0:
        raise ValueError("empty matrix")
    if rank is not None and rank > min(Y.shape):
        raise ValueError(f"rank {rank} exceeds min(p, M)={min(Y.shape)}")
    wide = Y.shape[0] < Y.shape[1]
    if wide:  # R = Z diag(s) U*, so Y = U diag(s) (Q Z)*
        _, s, Uh = np.linalg.svd(np.linalg.qr(Y.conj().T, mode="r"))
        U = Uh.conj().T
    else:
        U, s, Vh = np.linalg.svd(Y, full_matrices=False)
        V = Vh.conj().T
    if s[0] <= 0:
        raise ValueError("matrix has no positive singular values")
    numerical_rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    if rank is None:
        rank = numerical_rank
    elif rank > numerical_rank:
        raise RankError(f"rank {rank} exceeds the numerical rank {numerical_rank}, "
                        f"the count of singular values above {RANK_TOL:g} sigma_1")
    U, s = U[:, :rank], s[:rank]
    V = adjoint_matmul(Y, U / s) if wide else V[:, :rank]
    return SvdFactors(U=U, S=s, V=V)


def conjugate_pairs(eigenvalues: np.ndarray) -> np.ndarray:
    """partner[i] = j when eigenvalues i and j are a conjugate pair, else i.

    A pair is two eigenvalues off the real axis by more than CONJUGATE_TOL *
    max(|lam|, 1), each the other's nearest conjugate, within that tolerance.
    """
    lam = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    tol = CONJUGATE_TOL * np.maximum(np.abs(lam), 1.0)
    partner = np.arange(lam.size)
    upper, lower = np.flatnonzero(lam.imag > tol), np.flatnonzero(lam.imag < -tol)
    if upper.size and lower.size:
        dist = np.abs(lam[lower] - lam[upper, None].conj())
        nearest = dist.argmin(axis=1)
        rows = np.arange(upper.size)
        ok = (dist.argmin(axis=0)[nearest] == rows) & (dist[rows, nearest] <= tol[upper])
        partner[upper[ok]], partner[lower[nearest[ok]]] = lower[nearest[ok]], upper[ok]
    return partner


def conjugate_representatives(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices, in order of each pair's first index, of each conjugate pair's
    nonnegative-imaginary member (its partner is its conjugate) and each unpaired one."""
    partner = conjugate_pairs(eigenvalues)
    first = np.flatnonzero(partner >= np.arange(partner.size))
    return np.where(np.asarray(eigenvalues)[first].imag < 0, partner[first], first)


def canonical_phase(W: np.ndarray) -> np.ndarray:
    """W with each column rotated so that its largest-magnitude entry (the first
    on a tie) is real and positive: the unit-modulus factor that LAPACK leaves
    to arithmetic order, so that a rounding-level change could negate a mode,
    comes from the vector. An exact conjugate pair of columns stays one."""
    top = W[np.abs(W).argmax(axis=0), np.arange(W.shape[1])]
    return W * (top.conj() / np.abs(top))


def real_matmul(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A @ Z as a complex array. Real A is not cast to complex: it multiplies
    Z's interleaved re/im columns in one real product, half the flops."""
    if np.iscomplexobj(A):
        return A @ Z
    # eig returns float64 eigenvectors for an all-real spectrum: cast before the view
    Z = np.ascontiguousarray(Z, dtype=complex)
    return (A @ Z.view(np.float64)).view(complex)


def adjoint_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A* B. A real A is neither conjugated nor copied to complex (see
    real_matmul), and A* A of a real A is one symmetric product."""
    if np.isrealobj(A):
        return A.T @ B if np.isrealobj(B) else real_matmul(A.T, B)
    return A.conj().T @ B


def eigen_decomposition(operator: np.ndarray, basis: np.ndarray,
                        method: str) -> DecompositionResult:
    """The decomposition whose modes are basis @ W, W the eigenvectors of the
    square operator: columns normalized to unit 2-norm, rotated by
    canonical_phase and sorted by |eigenvalue| descending, ties in eig's
    order. W is the result's coefficients, so a caller judges cond(W), how
    near-defective the eigenbasis is, from them. Amplitudes are left unset."""
    evals, W = np.linalg.eig(operator)
    W /= np.linalg.norm(W, axis=0)
    W = canonical_phase(W)
    order = np.argsort(-np.abs(evals), kind="stable")
    return DecompositionResult(eigenvalues=evals[order], basis=basis,
                               coefficients=W[:, order], amplitudes=None, method=method)


def exact_dmd(
    data: np.ndarray,
    rank: int | None = None,
    mode_style: str = "exact",
) -> DecompositionResult:
    """Eigendecompose the compressed one-step operator U* Yplus V S^-1 of the
    p x N snapshots data, Y = data[:, :-1] = U S V* and Yplus = data[:, 1:].

    Modes are Yplus V S^-1 W ("exact") or U W ("projected"), held as that
    basis and the eigenvectors W of eigen_decomposition (a projected basis
    copies U's kept columns, not holding all of U).
    """
    if mode_style not in MODE_STYLES:
        raise ValueError(f"mode_style must be one of {MODE_STYLES}")
    f = truncated_svd(data[:, :-1], rank)
    propagate = data[:, 1:] @ (f.V / f.S)
    basis = propagate if mode_style == "exact" else np.ascontiguousarray(f.U)
    return eigen_decomposition(adjoint_matmul(f.U, propagate), basis, f"{mode_style}-dmd")


def vandermonde(eigenvalues: np.ndarray, n_steps: int, start: int = 0) -> np.ndarray:
    """r x n_steps matrix with entry (i, k) = lambda_i^(start + k), by repeated
    multiplication from lambda^start; subnormal underflow clamps to zero. The
    one source of eigenvalue powers: the fit, the dynamics and reconstruct share it."""
    if n_steps < 1:
        raise ValueError("need at least one column")
    lam = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    out = np.empty((lam.size, n_steps), dtype=complex)
    col = lam ** start
    tiny = np.finfo(float).tiny
    for k in range(n_steps):
        col[np.abs(col) < tiny] = 0.0
        out[:, k] = col
        col = col * lam
    return out


def mode_stats(eigenvalue: complex) -> ModeStats:
    """Magnitude, e-folding time 1/|Re(log lam)|, and signed period 2pi/Im(log lam),
    in time steps; lam = 0 gives the limits as lam -> 0 (0, 0, inf)."""
    if eigenvalue == 0:
        return ModeStats(magnitude=0.0, e_folding=0.0, period=np.inf)
    log = np.log(complex(eigenvalue))
    e_fold = np.inf if abs(log.real) < 1e-12 else 1.0 / abs(log.real)
    period = np.inf if abs(log.imag) < 1e-12 else 2.0 * np.pi / log.imag
    return ModeStats(magnitude=abs(eigenvalue), e_folding=e_fold, period=period)
