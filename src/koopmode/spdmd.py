"""Sparsity-promoting amplitude selection via operator splitting and polishing."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dmd import DecompositionResult, adjoint_matmul, conjugate_pairs, real_matmul, vandermonde

ZERO_REL_TOL = 1e-12
HERMITIAN_TOL = 1e-10
PSD_REL_TOL = 1e-8
NORMAL_COND_LIMIT = 1e14
Q_BLOCK = 64  # snapshot columns per block of quadratic_form's xi, H and q
_TINY = np.finfo(float).tiny
SQRT_HALF = math.sqrt(0.5)
# Residual balancing (He, Yang & Wang 2000; Boyd et al. 2011, section 3.4.1):
# every RHO_CHECK_EVERY iterations, scale rho by RHO_TAU towards the larger
# residual when it exceeds RHO_MU times the other, at most RHO_MAX_CHANGES
# times per solve, after which rho stays fixed and fixed-rho convergence holds
# (RHO_MAX_CHANGES = 0 keeps rho fixed throughout).
RHO_MU = 10.0
RHO_TAU = 2.0
RHO_CHECK_EVERY = 10
RHO_MAX_CHANGES = 20


@dataclass(frozen=True)
class QuadraticForm:
    """(P, q, s) with ||Y - Phi diag(b) Xi||_F^2 = b*Pb - q*b - b*q + s.

    partner pairs columns whose amplitudes are conjugate (dmd.conjugate_pairs).
    When P and q are pair-symmetric under it, conj(P) = Pi P Pi and
    conj(q) = Pi q (real data), the optimum is conjugate-paired and the solvers
    work in the unitary pair basis b = T y: y_i = sqrt2 Re b_i and
    y_j = sqrt2 Im b_i for a pair i < j, y_k = b_k for an unpaired k. There the
    form (T*PT, T*q) is real. Otherwise partner is None and the basis is the
    identity. eigh = (lam, Q), the form in its basis = Q diag(lam) Q*, is the
    one factorization: PSD check, x-update, amplitudes.
    """

    P: np.ndarray
    q: np.ndarray
    s: float
    partner: np.ndarray | None = field(default=None, compare=False)
    eigh: tuple = field(init=False, repr=False, compare=False)
    _paired: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _x_update: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=complex)
        if np.max(np.abs(P - P.conj().T)) > HERMITIAN_TOL * max(1.0, np.abs(P).max()):
            raise ValueError("P is not Hermitian")
        q = np.asarray(self.q, dtype=complex).reshape(-1)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", float(self.s))
        if self.partner is not None:
            partner, index = np.asarray(self.partner, dtype=int).reshape(-1), np.arange(q.size)
            if not (np.array_equal(np.sort(partner), index)
                    and np.array_equal(partner[partner], index)):
                raise ValueError("partner must pair each column with itself or one other")
            object.__setattr__(self, "partner", partner)
            object.__setattr__(self, "_paired", self._pair_basis_form())
            if self._paired is None:
                object.__setattr__(self, "partner", None)
        lam, Q = np.linalg.eigh(self.basis_form[0])
        if lam[0] < -PSD_REL_TOL * max(lam[-1], 1.0):
            raise ValueError(f"P is not positive semidefinite (min eig {lam[0]:.3e})")
        object.__setattr__(self, "eigh", (lam, Q))

    def _pair_basis_form(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(T*PT, T*q) as real arrays, or None when their imaginary parts are
        more than roundoff, which is when P and q are not pair-symmetric."""
        first, second = self._pairs()
        Pt = self.P.copy()
        _pair_combine(Pt, first, second, -1j)  # rows: T* P
        _pair_combine(Pt.T, first, second, 1j)  # columns: (T* P) T
        qt = self.q.copy()
        _pair_combine(qt, first, second, -1j)
        if any(np.abs(a.imag).max() > HERMITIAN_TOL * np.abs(a).max() for a in (Pt, qt)):
            return None
        return Pt.real.copy(), qt.real.copy()

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the pairs, i < j."""
        first = np.flatnonzero(self.partner > np.arange(self.partner.size))
        return first, self.partner[first]

    @property
    def size(self) -> int:
        return self.q.shape[0]

    @property
    def basis_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, q) in the solvers' basis: real in the pair basis, else the complex P and q."""
        return self._paired if self._paired is not None else (self.P, self.q)

    def to_basis(self, b: np.ndarray) -> np.ndarray:
        """Coordinates of amplitudes b in the form's basis. In the pair basis
        these are Re(T* b), b's projection on the conjugate-paired amplitudes."""
        y = np.array(b, dtype=complex).reshape(-1)
        if self.partner is None:
            return y
        _pair_combine(y, *self._pairs(), -1j)
        return y.real.copy()

    def from_basis(self, y: np.ndarray) -> np.ndarray:
        """Amplitudes b = T y of coordinates y in the form's basis."""
        if self.partner is None:
            return y
        first, second = self._pairs()
        b = y.astype(complex)
        b[first] = SQRT_HALF * (y[first] + 1j * y[second])
        b[second] = b[first].conj()
        return b

    def objective(self, b: np.ndarray) -> float:
        """Value of the reconstruction objective at amplitude vector b."""
        b = np.asarray(b, dtype=complex).reshape(-1)
        val = np.real(np.vdot(b, self.P @ b)) - 2.0 * np.real(np.vdot(self.q, b)) + self.s
        return max(val, 0.0)

    def x_update(self, rho: float) -> tuple[np.ndarray, np.ndarray]:
        """(A, c) with (2P + rho I)^-1 (2q + rho v) = c + A v for every v, in
        the form's basis.

        Built from the form's eigendecomposition. Only the last rho's operator
        is kept: solves at one rho build it once, and a new rho replaces it, so
        the form holds a single r x r operator at a time.
        """
        if self._x_update is None or self._x_update[0] != rho:
            lam, Q = self.eigh
            Qh = Q.conj().T
            inv = 1.0 / (2.0 * lam + rho)
            q = self.basis_form[1]
            object.__setattr__(self, "_x_update",
                               (rho, (Q * (rho * inv)) @ Qh, Q @ (2.0 * inv * (Qh @ q))))
        return self._x_update[1:]


def _pair_combine(M: np.ndarray, first: np.ndarray, second: np.ndarray,
                  phase: complex) -> None:
    """In place along M's first axis: rows (M_i, M_j) of each pair become
    (M_i + M_j) / sqrt2 and phase (M_i - M_j) / sqrt2."""
    a, b = M[first], M[second]
    M[first] = SQRT_HALF * (a + b)
    M[second] = (phase * SQRT_HALF) * (a - b)


@dataclass(frozen=True)
class SparseSolution:
    """One regularized solve: support, polished optimum, and summary."""

    b_polished: np.ndarray
    support: np.ndarray
    gamma: float
    cardinality: int
    cost: float
    loss_percent: float
    iterations: int
    converged: bool
    rho: float


@dataclass(frozen=True)
class AdmmParams:
    rho: float = 1.0  # the starting rho; residual balancing moves it
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iter: int = 10000
    warm_start: bool = True


@dataclass
class AdmmResult:
    z: np.ndarray  # the amplitudes: the sparse iterate, or at gamma = 0 the least-squares optimum
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    rho: float
    u: np.ndarray = field(repr=False, default=None)


def quadratic_form(Y: np.ndarray, basis: np.ndarray, coefficients: np.ndarray,
                   eigenvalues: np.ndarray) -> QuadraticForm:
    """Reduce the Frobenius objective over amplitudes to (P, q, s), for the
    modes B W (B = basis, W = coefficients) with the given eigenvalues and Y's
    columns at time indices 0..M-1, without forming the modes: their Gram
    matrix is W* (B* B) W. A caller holding the modes passes them as B with
    W = I. Real Y gives the form the eigenvalues' conjugate pairing, which it
    keeps when (P, q) is pair-symmetric."""
    lam = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    Y = np.asarray(Y)
    W = np.asarray(coefficients, dtype=complex)
    if (basis.shape[0] != Y.shape[0] or basis.shape[1] != W.shape[0]
            or lam.shape[0] != W.shape[1]):
        raise ValueError(f"incompatible shapes Y{Y.shape}, basis{basis.shape}, "
                         f"coefficients{W.shape}, eigenvalues{lam.shape}")
    # H = xi xi* and q_j = conj(xi_j . (Y* B W)_:j), the diagonal of xi Y* B W
    # without the rest, for the Vandermonde matrix xi of the eigenvalues, built
    # Q_BLOCK snapshots at a time: no r x M or M x r array is formed
    r = W.shape[1]
    H, q = np.zeros((r, r), dtype=complex), np.zeros(r, dtype=complex)
    for start in range(0, Y.shape[1], Q_BLOCK):
        cols = Y[:, start:start + Q_BLOCK]
        xi = vandermonde(lam, cols.shape[1], start)
        H += xi @ xi.conj().T
        q += np.einsum("jk,kj->j", xi, real_matmul(adjoint_matmul(cols, basis), W))
    q = q.conj()
    P = (W.conj().T @ real_matmul(adjoint_matmul(basis, basis), W)) * H.conj()
    P = 0.5 * (P + P.conj().T)
    # ||Y||_F^2 as column sums, then a pairwise sum: as accurate as trace(Y* Y)
    # without forming the M x M Gram matrix
    Yc = Y.conj() if np.iscomplexobj(Y) else Y  # conj of a real array is a copy
    s = float(np.einsum("ij,ij->j", Yc, Y).sum().real)
    partner = None if np.iscomplexobj(Y) else conjugate_pairs(lam)
    return QuadraticForm(P=P, q=q, s=s, partner=partner)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, without np.linalg.norm's dispatch."""
    return math.sqrt(np.vdot(v, v).real)


def soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    """Complex shrinkage: reduce magnitude by kappa, preserve phase."""
    mag = np.abs(v)
    scale = np.maximum(1.0 - kappa / np.maximum(mag, _TINY), 0.0)
    return scale * v


def _pair_threshold(v: np.ndarray, kappa: float, partner: np.ndarray) -> np.ndarray:
    """soft_threshold of the amplitudes T v, for real v in the pair basis: a
    pair's two coordinates shrink together, by sqrt2 kappa in their 2-norm."""
    mag = np.hypot(v, v[partner])  # sqrt2 |b_k|, for paired and unpaired k alike
    return np.maximum(1.0 - (kappa / SQRT_HALF) / np.maximum(mag, _TINY), 0.0) * v


def admm_solve(
    form: QuadraticForm,
    gamma: float,
    params: AdmmParams = AdmmParams(),
    z0: np.ndarray | None = None,
    u0: np.ndarray | None = None,
) -> AdmmResult:
    """Minimize the l1-regularized amplitude objective by alternating directions.

    x-update solves (2P + rho I) x = 2q + rho (z - u) as one product with the
    form's cached x_update operator; z-update soft-thresholds at gamma/rho.
    Both run in the form's basis, in real arithmetic in the pair basis; z0 and
    u0 are amplitudes, and so are the result's z and u.
    rho starts at params.rho, the rho that u0 is scaled by, and moves by
    residual balancing; the result holds the final rho. gamma = 0
    short-circuits to the minimum-norm least-squares amplitudes.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if params.rho <= 0:
        raise ValueError("rho must be positive")
    r = form.size
    if gamma == 0.0:
        return AdmmResult(z=optimal_amplitudes(form), iterations=0, converged=True,
                          primal_residual=0.0, dual_residual=0.0, rho=params.rho,
                          u=np.zeros(r, dtype=complex))
    rho = params.rho
    A, c = form.x_update(rho)
    z = np.zeros(r, dtype=c.dtype) if z0 is None else form.to_basis(z0)
    u = np.zeros(r, dtype=c.dtype) if u0 is None else form.to_basis(u0)
    partner = form.partner
    kappa = gamma / rho
    sqrt_r = np.sqrt(r)
    prim = dual = np.inf
    changes_left = RHO_MAX_CHANGES
    for it in range(1, params.max_iter + 1):
        x = c + A @ (z - u)
        z_old = z
        z = (soft_threshold(x + u, kappa) if partner is None
             else _pair_threshold(x + u, kappa, partner))
        u = u + x - z
        prim = _norm(x - z)
        dual = rho * _norm(z - z_old)
        eps_prim = params.eps_abs * sqrt_r + params.eps_rel * max(_norm(x), _norm(z))
        eps_dual = params.eps_abs * sqrt_r + params.eps_rel * rho * _norm(u)
        if prim <= eps_prim and dual <= eps_dual:
            return AdmmResult(z=form.from_basis(z), iterations=it, converged=True,
                              primal_residual=prim, dual_residual=dual, rho=rho,
                              u=form.from_basis(u))
        if (changes_left and it % RHO_CHECK_EVERY == 0
                and max(prim, dual) > RHO_MU * min(prim, dual)):
            scale = RHO_TAU if prim > dual else 1.0 / RHO_TAU
            rho *= scale
            u = u / scale  # u is the multiplier over rho: keep rho * u unchanged
            kappa = gamma / rho
            A, c = form.x_update(rho)
            changes_left -= 1
    warnings.warn(
        f"splitting did not converge in {params.max_iter} iterations "
        f"(primal {prim:.3e}, dual {dual:.3e})"
    )
    return AdmmResult(z=form.from_basis(z), iterations=params.max_iter, converged=False,
                      primal_residual=prim, dual_residual=dual, rho=rho, u=form.from_basis(u))


def detect_support(b: np.ndarray) -> np.ndarray:
    """Indices with |b_i| above ZERO_REL_TOL times the largest magnitude."""
    mag = np.abs(np.asarray(b))
    peak = mag.max(initial=0.0)
    if peak == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mag > ZERO_REL_TOL * peak)


def _min_norm(lam: np.ndarray, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of Q diag(lam) Q* x = q (lam ascending), dropping
    lam <= eps k lam_max, numpy's default least-squares cutoff; warns when it
    drops one or lam_max / lam_min exceeds NORMAL_COND_LIMIT."""
    keep = lam > np.finfo(float).eps * lam.size * lam[-1]
    if not keep.all() or lam[-1] > NORMAL_COND_LIMIT * lam[0]:
        warnings.warn("near-singular amplitude system, using minimum-norm solution")
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return Q @ (inv * (Q.conj().T @ q))


def optimal_amplitudes(form: QuadraticForm) -> np.ndarray:
    """Least-squares amplitudes minimizing the quadratic form (P, q, s), in the
    form's column order: the minimum-norm solution of P b = q from the form's
    eigendecomposition in its basis."""
    return form.from_basis(_min_norm(*form.eigh, form.basis_form[1]))


def polish(form: QuadraticForm, support: np.ndarray) -> np.ndarray:
    """Re-optimize amplitudes with the sparsity pattern fixed: b is zero off the
    support and solves P[S,S] b_S = q_S on it, in the form's basis (Cholesky,
    else minimum norm). On a paired form the support must take or leave each
    conjugate pair whole, as the pair threshold does."""
    r = form.size
    support = np.asarray(support, dtype=int)
    if support.size and (support.min() < 0 or support.max() >= r):
        raise ValueError("support indices out of range")
    if form.partner is not None and not np.isin(form.partner[support], support).all():
        raise ValueError("support splits a conjugate pair")
    if support.size == 0:
        return np.zeros(r, dtype=complex)
    P, q = form.basis_form
    P_s, q_s = P[np.ix_(support, support)], q[support]
    x = np.zeros(r, dtype=P.dtype)
    try:
        np.linalg.cholesky(P_s)  # tests positive definiteness; one solve beats two on L, L*
    except np.linalg.LinAlgError:
        x[support] = _min_norm(*np.linalg.eigh(P_s), q_s)
    else:
        x[support] = np.linalg.solve(P_s, q_s)
    return form.from_basis(x)


def performance_loss(cost: float, s: float) -> float:
    """Residual norm relative to the data norm, as a percentage."""
    if s <= 0:
        raise ValueError("data energy s must be positive")
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    return 100.0 * float(np.sqrt(cost / s))


def solve_at_gamma(
    form: QuadraticForm,
    gamma: float,
    params: AdmmParams = AdmmParams(),
    z0: np.ndarray | None = None,
    u0: np.ndarray | None = None,
) -> tuple[SparseSolution, AdmmResult]:
    """One sweep entry: split, detect support, polish, score."""
    admm = admm_solve(form, gamma, params, z0=z0, u0=u0)
    support = detect_support(admm.z)
    b_pol = polish(form, support)
    cost = form.objective(b_pol)
    solution = SparseSolution(
        b_polished=b_pol,
        support=support,
        gamma=float(gamma),
        cardinality=int(support.size),
        cost=cost,
        loss_percent=performance_loss(cost, form.s),
        iterations=admm.iterations,
        converged=admm.converged,
        rho=admm.rho,
    )
    return solution, admm


def log_gamma_grid(gamma_min: float, gamma_max: float, count: int) -> np.ndarray:
    """Geometric grid inclusive of both endpoints; one point needs equal endpoints."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if gamma_min > gamma_max:
        raise ValueError("gamma_min must not exceed gamma_max")
    if count == 1:
        if gamma_min != gamma_max:
            raise ValueError("a one-point grid needs gamma_min == gamma_max")
        return np.array([float(gamma_min)])
    if gamma_min <= 0:
        raise ValueError("gamma_min must be positive for a log-spaced grid")
    return np.geomspace(gamma_min, gamma_max, count)


def gamma_sweep(
    form: QuadraticForm,
    gammas: np.ndarray,
    params: AdmmParams = AdmmParams(),
) -> list[SparseSolution]:
    """Solve ascending in gamma, warm-starting each solve from the previous one's
    z, u and final rho (disable via params.warm_start for independent
    evaluation, every solve then starting at params.rho)."""
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if gammas.size == 0:
        raise ValueError("gamma grid is empty")
    if np.any(gammas < 0):
        raise ValueError("gammas must be nonnegative")
    solutions: list[SparseSolution] = []
    z0 = u0 = None
    for gamma in np.sort(gammas, kind="stable"):
        sol, admm = solve_at_gamma(form, gamma, params, z0=z0, u0=u0)
        solutions.append(sol)
        if params.warm_start:
            z0, u0, params = admm.z, admm.u, replace(params, rho=admm.rho)
    return solutions


def select_modes(result: DecompositionResult, solution: SparseSolution) -> DecompositionResult:
    """Restrict a decomposition to the nonzero amplitudes of a sparse solution,
    moving only the r-sized data and coefficient columns.

    The solution's support indexes the column order of `result` at the time the
    quadratic form was built; `result` must not have been re-sorted since.
    """
    support = solution.support
    if support.size == 0:
        warnings.warn("empty support, returning empty decomposition")
    restricted = replace(
        result,
        eigenvalues=result.eigenvalues[support],
        coefficients=result.coefficients[:, support],
        amplitudes=None,
        method="spdmd",
        original_indices=result.original_indices[support],
    )
    return restricted.with_amplitudes(solution.b_polished[support])
