"""Sparsity-promoting amplitude selection via operator splitting and polishing."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dmd import DecompositionResult, adjoint_matmul, conjugate_pairs, real_matmul, vandermonde

ZERO_REL_TOL = 1e-12
HERMITIAN_TOL = 1e-10
PSD_REL_TOL = 1e-8
NORMAL_COND_LIMIT = 1e14
Q_BLOCK = 64  # snapshot columns per block of quadratic_form's xi, H and q
RESIDUAL_BYTES = 256 * 1024  # float64 bytes per block of quadratic_form's residual
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
    """(P, q, s) with ||Y - Phi diag(b) Xi||_F^2 = y*Py - q*y - y*q + s at the
    coordinates y = T* b of amplitudes b in the form's basis.

    partner pairs columns whose amplitudes are conjugate (dmd.conjugate_pairs);
    the default, np.arange(r), pairs nothing. T is the unitary pair basis
    b = T y: y_i = sqrt2 Re b_i and y_j = sqrt2 Im b_i for a pair i < j,
    y_k = b_k for an unpaired k. A form with pairs is real (paired_form).
    eigh = (lam, Q), P = Q diag(lam) Q*, is the one factorization: PSD check,
    x-update, and y*, P y = q's one (minimum-norm) solve, with g = q - P y*
    (near_singular if _min_norm finds it so).
    objective splits at y*, floor + d*Pd - 2 Re(g*d) at d = y - y*, exact for
    every y and singular P. floor is the expansion's value at y*,
    s - Re((q + g)* y*), but quadratic_form sets it from the fit's residual,
    which does not cancel when the fit is close.
    """

    P: np.ndarray
    q: np.ndarray
    s: float
    partner: np.ndarray | None = field(default=None, compare=False)
    eigh: tuple = field(init=False, repr=False, compare=False)
    optimum: np.ndarray = field(init=False, repr=False, compare=False)
    normal_residual: np.ndarray = field(init=False, repr=False, compare=False)
    floor: float = field(init=False, repr=False, compare=False)
    near_singular: bool = field(init=False, repr=False, compare=False)
    _x_update: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dtype = complex if np.iscomplexobj(self.P) or np.iscomplexobj(self.q) else float
        P = np.asarray(self.P, dtype=dtype)
        q = np.asarray(self.q, dtype=dtype).reshape(-1)
        index = np.arange(q.size)
        partner = (np.asarray(self.partner, dtype=int).reshape(-1)
                   if self.partner is not None else index)
        if not (np.array_equal(np.sort(partner), index)
                and np.array_equal(partner[partner], index)):
            raise ValueError("partner must pair each column with itself or one other")
        if dtype is complex and not np.array_equal(partner, index):
            raise ValueError("a form with conjugate pairs must be real")
        if np.max(np.abs(P - P.conj().T)) > HERMITIAN_TOL * max(1.0, np.abs(P).max()):
            raise ValueError("P is not Hermitian")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "partner", partner)
        lam, Q = np.linalg.eigh(P)
        if lam[0] < -PSD_REL_TOL * max(lam[-1], 1.0):
            raise ValueError(f"P is not positive semidefinite (min eig {lam[0]:.3e})")
        object.__setattr__(self, "eigh", (lam, Q))
        y, near_singular = _min_norm(lam, Q, q)
        g = q - P @ y
        object.__setattr__(self, "optimum", y)
        object.__setattr__(self, "near_singular", near_singular)
        object.__setattr__(self, "normal_residual", g)
        object.__setattr__(self, "floor", self.s - float(np.vdot(q + g, y).real))

    @property
    def size(self) -> int:
        return self.q.shape[0]

    def to_basis(self, b: np.ndarray) -> np.ndarray:
        """Coordinates T* b of amplitudes b, complex: on a real form their
        imaginary part is b's component off the conjugate-paired amplitudes."""
        y = np.array(b, dtype=complex).reshape(-1)
        _pair_combine(y, *_pairs(self.partner), -1j)
        return y

    def from_basis(self, y: np.ndarray) -> np.ndarray:
        """Amplitudes b = T y of coordinates y in the form's basis."""
        first, second = _pairs(self.partner)
        b = y.astype(complex)
        b[first] = SQRT_HALF * (y[first] + 1j * y[second])
        b[second] = b[first].conj()
        return b

    def objective(self, b: np.ndarray) -> float:
        """Value of the reconstruction objective at amplitude vector b, split
        at the optimum from b's coordinates T* b: exact for any b,
        conjugate-paired or not."""
        d = self.to_basis(b) - self.optimum
        Pd = real_matmul(self.P, d[:, None])[:, 0]  # a real P is not cast to complex
        val = (self.floor + np.real(np.vdot(d, Pd))
               - 2.0 * np.real(np.vdot(self.normal_residual, d)))
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
            object.__setattr__(self, "_x_update",
                               (rho, (Q * (rho * inv)) @ Qh, Q @ (2.0 * inv * (Qh @ self.q))))
        return self._x_update[1:]


def _pairs(partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs, i < j."""
    first = np.flatnonzero(partner > np.arange(partner.size))
    return first, partner[first]


def _pair_combine(M: np.ndarray, first: np.ndarray, second: np.ndarray,
                  phase: complex) -> None:
    """In place along M's first axis: rows (M_i, M_j) of each pair become
    (M_i + M_j) / sqrt2 and phase (M_i - M_j) / sqrt2."""
    a, b = M[first], M[second]
    M[first] = SQRT_HALF * (a + b)
    M[second] = (phase * SQRT_HALF) * (a - b)


def paired_form(P: np.ndarray, q: np.ndarray, s: float, partner: np.ndarray) -> QuadraticForm:
    """The amplitude form (P, q, s) in the pair basis of partner, an involution
    as dmd.conjugate_pairs returns: the real QuadraticForm(T*PT, T*q, s,
    partner) when (P, q) is pair-symmetric, conj(P) = Pi P Pi and
    conj(q) = Pi q (real data), to within HERMITIAN_TOL of the largest entry;
    otherwise the complex (P, q, s) under the identity pairing."""
    first, second = _pairs(np.asarray(partner))
    Pt = np.array(P, dtype=complex)
    _pair_combine(Pt, first, second, -1j)  # rows: T* P
    _pair_combine(Pt.T, first, second, 1j)  # columns: (T* P) T
    qt = np.array(q, dtype=complex).reshape(-1)
    _pair_combine(qt, first, second, -1j)
    if any(np.abs(a.imag).max() > HERMITIAN_TOL * np.abs(a).max() for a in (Pt, qt)):
        return QuadraticForm(P=P, q=q, s=s)
    Pt, qt = Pt.real.copy(), qt.real.copy()  # the complex copies go before the form is built
    return QuadraticForm(P=Pt, q=qt, s=s, partner=partner)


@dataclass(frozen=True)
class AdmmParams:
    rho: float = 1.0  # the starting rho; residual balancing moves it
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iter: int = 10000


@dataclass
class AdmmResult:
    """The splitting's state, in the form's coordinates y = T* b: a later
    solve started from it resumes at its z, u and rho."""

    z: np.ndarray  # the sparse iterate, or at gamma = 0 the minimum-norm optimum
    iterations: int
    converged: bool
    rho: float
    u: np.ndarray = field(repr=False)  # the multiplier over rho


@dataclass(frozen=True)
class SparseSolution:
    """One regularized solve: the splitting's final state, the support it
    detected, the polished optimum on that support, and its score."""

    gamma: float
    admm: AdmmResult  # a later solve started from it resumes here
    support: np.ndarray
    b_polished: np.ndarray
    cost: float
    loss_percent: float

    @property
    def cardinality(self) -> int:
        return self.support.size


def data_energy(Y: np.ndarray) -> float:
    """||Y||_F^2 as column sums, then a pairwise sum: as accurate as trace(Y* Y)
    without forming the M x M Gram matrix."""
    return float(np.einsum("ij,ij->j", Y.conj(), Y).sum().real)


def quadratic_form(Y: np.ndarray, basis: np.ndarray, coefficients: np.ndarray,
                   eigenvalues: np.ndarray) -> QuadraticForm:
    """Reduce the Frobenius objective over amplitudes to (P, q, s), for the
    modes B W (B = basis, W = coefficients) with the given eigenvalues and Y's
    columns at time indices 0..M-1, without forming the modes: their Gram
    matrix is W* (B* B) W. A caller holding the modes passes them as B with
    W = I. Real Y gives the form in the pair basis of the eigenvalues'
    conjugate pairing when (P, q) is pair-symmetric (paired_form); complex Y
    gives the complex form."""
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
    s = data_energy(Y)
    form = (QuadraticForm(P=P, q=q, s=s) if np.iscomplexobj(Y)
            else paired_form(P, q, s, conjugate_pairs(lam)))
    # the floor, ||Y - B W diag(b*) xi||_F^2 at the optimum b* (a real model on
    # a paired form), in blocks of at most RESIDUAL_BYTES and Q_BLOCK snapshots:
    # no p x M array, one pass over the basis per block, and einsum, unlike
    # vdot, does not copy the strided last block
    b = form.from_basis(form.optimum)
    paired = np.isrealobj(form.P)
    width = max(1, min(Q_BLOCK, RESIDUAL_BYTES // (8 * max(1, Y.shape[0]))))
    resid_sq = 0.0
    for start in range(0, Y.shape[1], width):
        cols = Y[:, start:start + width]
        weights = W @ (vandermonde(lam, cols.shape[1], start) * b[:, None])
        if paired:  # Re(B w), from w's real part when B is real
            resid = basis @ weights.real if np.isrealobj(basis) else np.real(basis @ weights)
        else:
            resid = real_matmul(basis, weights)
        resid -= cols
        resid_sq += np.einsum("ij,ij->", resid.conj(), resid).real
    object.__setattr__(form, "floor", float(resid_sq))  # the form is frozen
    return form


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, without np.linalg.norm's dispatch."""
    return math.sqrt(np.vdot(v, v).real)


def soft_threshold(v: np.ndarray, kappa: float, partner: np.ndarray) -> np.ndarray:
    """Shrinkage of the amplitudes T v by kappa in modulus, phase kept, for
    coordinates v in the pair basis of partner: a pair's two coordinates
    shrink together, by sqrt2 kappa in their 2-norm. Under the identity
    pairing this is complex shrinkage of v itself. A threshold past float64's
    range shrinks every amplitude to 0, its limit."""
    t = float(kappa) / SQRT_HALF  # a float: past float64's range it is inf, silently
    if t == math.inf:
        return np.zeros_like(v)
    mag = np.abs(v)
    mag = np.hypot(mag, mag[partner])  # sqrt2 |b_k|, for paired and unpaired k alike
    # a magnitude below t shrinks to 0: dividing by t there gives 1, not an overflow
    return np.maximum(1.0 - t / np.maximum(mag, max(t, _TINY)), 0.0) * v


def admm_solve(
    form: QuadraticForm,
    gamma: float,
    params: AdmmParams = AdmmParams(),
    start: AdmmResult | None = None,
) -> AdmmResult:
    """Minimize the l1-regularized amplitude objective by alternating directions.

    x-update solves (2P + rho I) x = 2q + rho (z - u) as one product with the
    form's cached x_update operator; z-update soft-thresholds at gamma/rho.
    Both run in the form's coordinates, in real arithmetic on a real form,
    and the result holds them: form.from_basis(z) gives the amplitudes.
    The state (z, u, rho) starts at start's, else at zeros and params.rho;
    rho moves by residual balancing, and the result holds the final rho.
    gamma = 0 short-circuits to a copy of the least-squares form.optimum, and a
    gamma at which z = 0 is optimal, 2|q_g| <= gamma w_g on every group g of
    coordinates (a pair, w = sqrt2, or one unpaired, w = 1), to z = u = 0.
    A solve cut off at params.max_iter returns converged=False and does not warn.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if params.rho <= 0:
        raise ValueError("rho must be positive")
    r = form.size
    # as floats, kappa = gamma / rho past float64's range is inf, silently
    gamma, rho = float(gamma), float(params.rho if start is None else start.rho)
    zero = np.zeros(r, dtype=form.q.dtype)  # no iterate is updated in place
    if gamma == 0.0:
        return AdmmResult(z=form.optimum.copy(), iterations=0, converged=True, rho=rho, u=zero)
    two_q = 2.0 * np.abs(form.q)  # the smooth part's gradient at z = 0 is -2q
    if np.all(np.hypot(two_q, two_q[form.partner]) <= gamma / SQRT_HALF):
        return AdmmResult(z=zero, iterations=0, converged=True, rho=rho, u=zero)
    A, c = form.x_update(rho)
    z, u = (zero, zero) if start is None else (start.z, start.u)
    kappa = gamma / rho
    sqrt_r = np.sqrt(r)
    changes_left = RHO_MAX_CHANGES
    for it in range(1, params.max_iter + 1):
        x = c + A @ (z - u)
        z_old = z
        z = soft_threshold(x + u, kappa, form.partner)
        u = u + x - z
        prim = _norm(x - z)
        dual = rho * _norm(z - z_old)
        eps_prim = params.eps_abs * sqrt_r + params.eps_rel * max(_norm(x), _norm(z))
        eps_dual = params.eps_abs * sqrt_r + params.eps_rel * rho * _norm(u)
        if prim <= eps_prim and dual <= eps_dual:
            return AdmmResult(z=z, iterations=it, converged=True, rho=rho, u=u)
        if (changes_left and it % RHO_CHECK_EVERY == 0
                and max(prim, dual) > RHO_MU * min(prim, dual)):
            scale = RHO_TAU if prim > dual else 1.0 / RHO_TAU
            rho *= scale
            u = u / scale  # u is the multiplier over rho: keep rho * u unchanged
            kappa = gamma / rho
            A, c = form.x_update(rho)
            changes_left -= 1
    return AdmmResult(z=z, iterations=params.max_iter, converged=False, rho=rho, u=u)


def detect_support(v: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Indices of the coordinates v whose magnitude, grouped by partner as
    soft_threshold groups it, is above ZERO_REL_TOL times the largest: a pair
    is taken or left whole."""
    mag = np.abs(v)
    mag = np.hypot(mag, mag[partner])
    return np.flatnonzero(mag > ZERO_REL_TOL * mag.max(initial=0.0))


def _min_norm(lam: np.ndarray, Q: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimum-norm solution of Q diag(lam) Q* x = q (lam ascending), dropping
    lam <= eps k lam_max, numpy's default least-squares cutoff, and whether
    it is near-singular: it drops one or lam_max / lam_min > NORMAL_COND_LIMIT."""
    keep = lam > np.finfo(float).eps * lam.size * lam[-1]
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    near_singular = not keep.all() or lam[-1] > NORMAL_COND_LIMIT * lam[0]
    return Q @ (inv * (Q.conj().T @ q)), bool(near_singular)


def optimal_amplitudes(form: QuadraticForm) -> np.ndarray:
    """Least-squares amplitudes minimizing the quadratic form (P, q, s), in the
    form's column order: those of form.optimum, the minimum-norm solution of
    P y = q that the form solved when built (see form.near_singular)."""
    return form.from_basis(form.optimum)


def polish(form: QuadraticForm, support: np.ndarray) -> np.ndarray:
    """Re-optimize amplitudes with the sparsity pattern fixed: b is zero off the
    support and solves P[S,S] b_S = q_S on it, in the form's basis: one solve,
    or on a near-singular form the minimum-norm solution. The support must take
    or leave each conjugate pair whole, as the soft-threshold does."""
    r = form.size
    support = np.asarray(support, dtype=int)
    if support.size and (support.min() < 0 or support.max() >= r):
        raise ValueError("support indices out of range")
    if not np.isin(form.partner[support], support).all():
        raise ValueError("support splits a conjugate pair")
    if support.size == 0:
        return np.zeros(r, dtype=complex)
    P_s, q_s = form.P[np.ix_(support, support)], form.q[support]
    x = np.zeros(r, dtype=form.P.dtype)
    # by Cauchy interlacing P_s's eigenvalues lie within P's: on a form that is
    # not near_singular, no block has one _min_norm would drop
    x[support] = (_min_norm(*np.linalg.eigh(P_s), q_s)[0] if form.near_singular
                  else np.linalg.solve(P_s, q_s))
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
    start: AdmmResult | None = None,
) -> SparseSolution:
    """One sweep entry: split (from start, as admm_solve), detect support,
    polish, score."""
    admm = admm_solve(form, gamma, params, start)
    support = detect_support(admm.z, form.partner)
    b_pol = polish(form, support)
    cost = form.objective(b_pol)
    return SparseSolution(
        gamma=float(gamma),
        admm=admm,
        support=support,
        b_polished=b_pol,
        cost=cost,
        loss_percent=performance_loss(cost, form.s),
    )


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
    """Solve ascending in gamma, each solve starting from the previous one's
    state: z, u and final rho. The first starts from zeros at params.rho, as
    solve_at_gamma without a start does at any one gamma."""
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if gammas.size == 0:
        raise ValueError("gamma grid is empty")
    solutions: list[SparseSolution] = []
    for gamma in np.sort(gammas, kind="stable"):
        start = solutions[-1].admm if solutions else None
        solutions.append(solve_at_gamma(form, gamma, params, start))
    return solutions


def select_modes(result: DecompositionResult, solution: SparseSolution) -> DecompositionResult:
    """Restrict a decomposition to the nonzero amplitudes of a sparse solution,
    moving only the r-sized data and coefficient columns.

    The solution's support indexes the column order of `result` at the time the
    quadratic form was built; `result` must not have been re-sorted since. An
    empty support gives a decomposition of rank 0.
    """
    support = solution.support
    restricted = replace(
        result,
        eigenvalues=result.eigenvalues[support],
        coefficients=result.coefficients[:, support],
        amplitudes=None,
        method="spdmd",
        original_indices=result.original_indices[support],
    )
    return restricted.with_amplitudes(solution.b_polished[support])
