from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from koopmode import (
    AdmmParams,
    QuadraticForm,
    admm_solve,
    companion_dmd,
    exact_dmd,
    gamma_sweep,
    log_gamma_grid,
    optimal_amplitudes,
    performance_loss,
    polish,
    quadratic_form,
    select_modes,
    solve_at_gamma,
    vandermonde,
)
from koopmode import spdmd
from koopmode.dmd import DecompositionResult
from koopmode.spdmd import detect_support, paired_form, soft_threshold
from conftest import (allocation_peak, planted_matrix, planted_snapshots, random_unitary,
                      smoke_matrix)

TIGHT = AdmmParams(eps_abs=1e-11, eps_rel=1e-11, max_iter=100000)


def random_instance(rng, p=6, r=3, M=10):
    modes = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
    lam = rng.random(r) * np.exp(2j * np.pi * rng.random(r))
    Y = rng.standard_normal((p, M))
    return Y, modes, lam


def direct_objective(Y, modes, lam, b):
    return np.linalg.norm(Y - modes @ np.diag(b) @ vandermonde(lam, Y.shape[1]), "fro") ** 2


def planted_form(rng, r=10, n_active=3, M=200, p=40, amp_scale=None):
    """Near-orthogonal dictionary with a known sparse generating amplitude."""
    lam = np.exp(2j * np.pi * (np.arange(r) + 0.5) / (r + 3))
    vand = vandermonde(lam, M)
    modes = random_unitary(max(p, r), rng)[:p, :r]
    b_true = np.zeros(r, dtype=complex)
    scale = amp_scale if amp_scale is not None else [100.0, 60.0, 30.0]
    active = list(range(n_active))
    for i, a in zip(active, scale):
        b_true[i] = a * np.exp(2j * np.pi * rng.random())
    Y = modes @ np.diag(b_true) @ vand
    return quadratic_form(Y, modes, np.eye(modes.shape[1]), lam), b_true, np.array(active)


def real_dmd_instance(rng, rank=9, p=30, M=80):
    """(Y, basis, coefficients, eigenvalues) of exact DMD on seeded real data: four damped
    oscillations and one decay plus noise, so rank 9 holds four conjugate
    pairs and one real eigenvalue."""
    lams = [0.97 * np.exp(1j * w) for w in (0.3, 0.7, 1.3, 2.1)] + [0.9]
    Y, _ = planted_snapshots(p, M + 1, lams, [5.0, 3.0, 2.0, 1.0, 4.0], rng)
    data = Y + 1e-3 * rng.standard_normal(Y.shape)
    result = exact_dmd(data, rank=rank)
    return data[:, :-1], result.basis, result.coefficients, result.eigenvalues


def formed_residual(Y, result, b):
    """||Y - Re(Phi diag(b) Xi)||_F^2 from the formed modes Phi and the powers
    of result's eigenvalues."""
    xi = result.eigenvalues[:, None] ** np.arange(Y.shape[1])
    return np.linalg.norm(Y - np.real(result.modes @ (b[:, None] * xi))) ** 2


def shrink(v, kappa):
    """Complex shrinkage: |v_k| reduced by kappa, phase kept."""
    return np.maximum(1.0 - kappa / np.maximum(np.abs(v), 1e-300), 0.0) * v


def pair_basis_matrix(partner):
    """The unitary T of the pair basis b = T y as a dense matrix: for a pair
    i < j, b_i = (y_i + i y_j) / sqrt2 and b_j = (y_i - i y_j) / sqrt2."""
    T = np.eye(partner.size, dtype=complex)
    for i in np.flatnonzero(partner > np.arange(partner.size)):
        j = partner[i]
        T[np.ix_([i, j], [i, j])] = np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0)
    return T


def amplitude_form(Y, basis, W, lam):
    """The complex form of real data in amplitude space: the identity basis."""
    form = quadratic_form(Y.astype(complex), basis, W, lam)
    assert np.iscomplexobj(form.P)
    np.testing.assert_array_equal(form.partner, np.arange(form.size))
    return form


def cholesky_solver(A):
    """x -> A^-1 x for a Hermitian positive definite A = L L*: one Cholesky
    factorization, then a solve with L and one with L*."""
    L = np.linalg.cholesky(A)
    return lambda b: np.linalg.solve(L.conj().T, np.linalg.solve(L, b))


def cholesky_admm(form, gamma, params=AdmmParams(), start=None):
    """Reference splitting loop on a complex form: one Cholesky factorization
    of 2P + rho I per rho and its two triangular solves per x-update, and complex
    shrinkage of the amplitudes. It starts from start = (z, u, rho), else
    from zeros at params.rho. Every 10 iterations rho doubles
    (halves) when the primal (dual) residual exceeds 10 times the other, at
    most spdmd.RHO_MAX_CHANGES times, so patching that to 0 gives the fixed-rho
    loop. Returns (z, u, iterations, rho), rho the final one."""
    r = form.size
    zero = np.zeros(r, dtype=complex)
    z, u, rho = (zero, zero, params.rho) if start is None else start
    z, u = z.astype(complex), u.astype(complex)
    changes = 0
    solve = cholesky_solver(2.0 * form.P + rho * np.eye(r))
    for it in range(1, params.max_iter + 1):
        x = solve(2.0 * form.q + rho * (z - u))
        z_old = z
        z = shrink(x + u, gamma / rho)
        u = u + x - z
        prim = np.linalg.norm(x - z)
        dual = rho * np.linalg.norm(z - z_old)
        eps_prim = params.eps_abs * np.sqrt(r) + params.eps_rel * max(
            np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = params.eps_abs * np.sqrt(r) + params.eps_rel * rho * np.linalg.norm(u)
        if prim <= eps_prim and dual <= eps_dual:
            break
        if changes < spdmd.RHO_MAX_CHANGES and it % 10 == 0:
            if prim > 10.0 * dual:
                scale = 2.0
            elif dual > 10.0 * prim:
                scale = 0.5
            else:
                continue
            rho, u, changes = rho * scale, u / scale, changes + 1
            solve = cholesky_solver(2.0 * form.P + rho * np.eye(r))
    return z, u, it, rho


def kkt_polish(form, support):
    """Reference polish: least squares on the (r + |S^c|)-sized KKT system
    that pins the complement of the support to zero."""
    r = form.size
    comp = np.setdiff1d(np.arange(r), support)
    E = np.eye(r, dtype=complex)[comp]
    kkt = np.block([[2.0 * form.P, E.conj().T],
                    [E, np.zeros((comp.size, comp.size), dtype=complex)]])
    rhs = np.concatenate([2.0 * form.q, np.zeros(comp.size, dtype=complex)])
    b = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:r]
    b[comp] = 0.0
    return b


def random_psd_form(rng, r, rank=None):
    """QuadraticForm with P = B B* of the given rank and q in the range of P."""
    k = r if rank is None else rank
    B = (rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))) / np.sqrt(k)
    P = B @ B.conj().T
    w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return QuadraticForm(P=0.5 * (P + P.conj().T), q=P @ w, s=1.0)


def assert_close(a, b, rtol):
    assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def pair_groups(partner):
    """The groups of coordinates soft_threshold shrinks together: each pair,
    and each unpaired coordinate alone."""
    return [np.unique([i, j]) for i, j in enumerate(partner) if i <= j]


def pair_closed_support(rng, partner):
    """A random nonempty support that takes or leaves each pair whole."""
    groups = pair_groups(partner)
    taken = rng.choice(len(groups), size=rng.integers(1, len(groups) + 1), replace=False)
    return np.sort(np.concatenate([groups[k] for k in taken]))


def zero_certificate(form):
    """The least gamma at which z = 0 minimizes the regularized objective: the
    largest 2 ||q_g|| / w_g over the groups g of coordinates, w = sqrt2 for a
    conjugate pair and 1 for an unpaired coordinate."""
    return max(2.0 * np.linalg.norm(form.q[g]) / np.sqrt(g.size)
               for g in pair_groups(form.partner))


def pivot_test(P_s):
    """The test polish once made before its solve: the Cholesky factorization
    of the block succeeds and every pivot |L_ii|^2 is above eps k max |L_ii|^2."""
    try:
        pivots = np.abs(np.linalg.cholesky(P_s).diagonal()) ** 2
    except np.linalg.LinAlgError:
        return False
    return pivots.min() > np.finfo(float).eps * pivots.size * pivots.max()


def conditioned_form(rng, r, cond, paired):
    """A form whose P has eigenvalues log-spaced from 1 to cond: real, with
    random conjugate pairs, when paired, else complex."""
    if paired:
        Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        q = rng.standard_normal(r)
        order = rng.permutation(r)
        partner = np.arange(r)
        for i, j in order[:2 * int(rng.integers(0, r // 2 + 1))].reshape(-1, 2):
            partner[i], partner[j] = j, i
    else:
        Q = random_unitary(r, rng)
        q = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        partner = None
    P = (Q * np.geomspace(1.0, cond, r)) @ Q.conj().T
    return QuadraticForm(P=0.5 * (P + P.conj().T), q=q, s=1.0, partner=partner)


class TestQuadraticForm:
    def test_zero_amplitudes_give_data_energy(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        assert abs(form.objective(np.zeros(3)) - np.linalg.norm(Y, "fro") ** 2) <= 1e-8

    def test_scalar_algebra(self):
        """One snapshot, so xi = [[lam^0]] = [[1]] whatever lam is: P = |2|^2,
        q = 2 * 12, s = 12^2, and ||12 - 2 b||^2 vanishes at b = 6."""
        form = quadratic_form(np.array([[12.0]]), np.array([[2.0 + 0j]]), np.eye(1),
                              np.array([3.0 + 0j]))
        assert abs(form.P[0, 0] - 4.0) <= 1e-12
        assert abs(form.q[0] - 24.0) <= 1e-12
        assert abs(form.s - 144.0) <= 1e-12
        assert form.objective(np.array([6.0])) <= 1e-10
        assert abs(form.objective(np.array([2.0])) - 64.0) <= 1e-12

    def test_matches_direct_frobenius_objective(self, rng):
        Y, modes, lam = random_instance(rng, p=6, r=3, M=10)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        for _ in range(20):
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            want = direct_objective(Y, modes, lam, b)
            assert abs(form.objective(b) - want) <= 1e-8 * max(1.0, want)

    @pytest.mark.parametrize("real_modes", [False, True])
    def test_real_data_matches_its_complex_copy(self, rng, real_modes):
        Y, modes, lam = random_instance(rng, p=30, r=5, M=40)
        if real_modes:  # eigenvectors of an all-real spectrum come back as float64
            modes = modes.real.copy()
        eye = np.eye(modes.shape[1])
        got = quadratic_form(Y, modes, eye, lam)
        want = quadratic_form(Y.astype(complex), modes, eye, lam)
        assert np.isrealobj(Y)
        for name in ("P", "q", "s"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b), name

    def test_real_data_needs_no_complex_copy(self, rng):
        Y, modes, lam = random_instance(rng, p=900, r=40, M=400)
        _, peak = allocation_peak(quadratic_form, Y, modes, np.eye(modes.shape[1]), lam)
        assert peak < Y.nbytes

    @pytest.mark.parametrize("case", ["paired-real", "complex", "projected", "cdmd"])
    def test_factored_form_matches_the_modes_construction(self, rng, case):
        """(P, q, s) from the factors equal the construction from the formed
        modes Phi = B W: P = (Phi* Phi) o conj(Xi Xi*), q = conj(diag(Xi Y* Phi))."""
        lams = [0.97 * np.exp(0.4j), 0.9 * np.exp(1.1j), 0.8]
        X, _ = planted_snapshots(60, 41, lams, [3.0, 2.0, 1.0], rng)
        X = X + 1e-3 * rng.standard_normal(X.shape)
        if case == "complex":
            X = X + 1j * rng.standard_normal(X.shape)
        if case == "cdmd":
            base = companion_dmd(X)
        else:
            base = exact_dmd(X, rank=8, mode_style="projected" if case == "projected" else "exact")
        Y = X[:, :-1]
        assert np.iscomplexobj(base.basis) == (case == "complex")
        vand = vandermonde(base.eigenvalues, Y.shape[1])
        form = quadratic_form(Y, base.basis, base.coefficients, base.eigenvalues)
        modes = base.basis @ base.coefficients
        P = (modes.conj().T @ modes) * (vand @ vand.conj().T).conj()
        q = np.diag(vand @ (Y.conj().T @ modes)).conj()
        # real data: the form in the pair basis, (T* P T, T* q), real
        paired = (form.partner != np.arange(form.size)).any()
        assert paired == (case != "complex") and np.iscomplexobj(form.P) == (not paired)
        T = pair_basis_matrix(form.partner)
        assert_close(form.P, T.conj().T @ (0.5 * (P + P.conj().T)) @ T, 1e-12)
        assert_close(form.q, T.conj().T @ q, 1e-12)
        assert abs(form.s - np.linalg.norm(Y) ** 2) <= 1e-12 * form.s

    def test_blocks_match_the_one_piece_vandermonde(self, rng):
        """Xi built Q_BLOCK snapshots at a time, each block seeded at lam^start,
        gives the form of the whole Vandermonde matrix: growing, decaying and
        unit-modulus eigenvalues, over several blocks and a partial one."""
        M = 3 * spdmd.Q_BLOCK + 5
        lam = np.array([1.004 * np.exp(0.3j), 1.004 * np.exp(-0.3j), 0.97, np.exp(2.2j), 0.5j])
        modes = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        Y = rng.standard_normal((9, M))
        form = quadratic_form(Y, modes, np.eye(5), lam)
        vand = vandermonde(lam, M)
        P = (modes.conj().T @ modes) * (vand @ vand.conj().T).conj()
        assert_close(form.P, 0.5 * (P + P.conj().T), 1e-12)
        assert_close(form.q, np.diag(vand @ (Y.T @ modes)).conj(), 1e-12)

    @pytest.mark.parametrize("p, M, r", [(4000, 60, 20), (300, 2000, 200)])
    def test_factored_form_allocates_no_complex_modes(self, rng, p, M, r):
        """On real input the form holds no p x r complex array (the modes), no
        M x r one (Y* modes) and no r x M one (the Vandermonde matrix xi): the
        modes' Gram matrix comes from B*B and W, and xi, xi xi* and q from
        blocks of snapshots."""
        data = rng.standard_normal((p, M))
        base = exact_dmd(data, rank=r)
        _, peak = allocation_peak(quadratic_form, data[:, :-1], base.basis, base.coefficients,
                                  base.eigenvalues)
        assert peak < 16 * r * max(p, M - 1)  # the larger of the two

    def test_hermitian_and_psd_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QuadraticForm(P=np.array([[1.0, 2.0], [0.0, 1.0]]), q=np.zeros(2), s=0.0)
        with pytest.raises(ValueError, match="semidefinite"):
            QuadraticForm(P=np.array([[-1.0 + 0j]]), q=np.zeros(1), s=0.0)

    def test_partner_must_be_an_involution(self, rng):
        form = random_psd_form(rng, 4)
        for partner in ([1, 1, 2, 3], [1, 2, 0, 3], [1, 0, 2], [0, 1, 2, 4]):
            with pytest.raises(ValueError, match="partner"):
                QuadraticForm(P=form.P, q=form.q, s=form.s, partner=partner)

    def test_a_paired_form_is_real(self, rng):
        form = random_psd_form(rng, 4)
        np.testing.assert_array_equal(form.partner, np.arange(4))
        with pytest.raises(ValueError, match="must be real"):
            QuadraticForm(P=form.P, q=form.q, s=form.s, partner=[1, 0, 2, 3])
        real = QuadraticForm(P=form.P.real, q=form.q.real, s=form.s, partner=[1, 0, 2, 3])
        assert real.eigh[1].dtype == np.float64

    def test_objective_is_exact_off_the_paired_amplitudes(self, rng):
        """A paired form scores any b, conjugate-paired or not, as its
        amplitude-space form does."""
        inputs = real_dmd_instance(rng)
        form, reference = quadratic_form(*inputs), amplitude_form(*inputs)
        for _ in range(5):
            b = 10.0 * (rng.standard_normal(form.size) + 1j * rng.standard_normal(form.size))
            want = reference.objective(b)
            assert abs(form.objective(b) - want) <= 1e-10 * want

    def test_dimension_mismatch(self, rng):
        Y, modes, lam = random_instance(rng)
        with pytest.raises(ValueError, match="incompatible"):
            quadratic_form(Y, modes, np.eye(modes.shape[1]), lam[:-1])
        with pytest.raises(ValueError, match="incompatible"):
            quadratic_form(Y[:-1], modes, np.eye(modes.shape[1]), lam)


class TestSoftThreshold:
    def test_preserves_phase(self):
        v = np.array([3.0 * np.exp(0.7j)])
        out = soft_threshold(v, 1.0, np.arange(1))
        assert abs(abs(out[0]) - 2.0) <= 1e-12
        assert abs(np.angle(out[0]) - 0.7) <= 1e-12

    def test_exact_zero_below_threshold(self):
        out = soft_threshold(np.array([0.5 + 0.2j]), 1.0, np.arange(1))
        assert out[0] == 0.0

    def test_pairs_shrink_their_amplitudes_together(self, rng):
        """On real pair-basis coordinates it shrinks the amplitudes T v: the pair
        (0, 2) holds b = (3 + 4i) / sqrt2, |b| = 5 / sqrt2, which kappa =
        2.5 / sqrt2 halves; the unpaired 1 and 3 shrink alone, 1 to zero."""
        partner = np.array([2, 1, 0, 3])
        v = np.array([3.0, 1.0, 4.0, -8.0])
        kappa = 2.5 / np.sqrt(2.0)
        out = soft_threshold(v, kappa, partner)
        np.testing.assert_allclose(out, [1.5, 0.0, 2.0, -8.0 + kappa], rtol=1e-15)
        T = pair_basis_matrix(partner)
        for _ in range(10):
            v = rng.standard_normal(4)
            assert_close(T @ soft_threshold(v, 0.5, partner), shrink(T @ v, 0.5), 1e-15)

    def test_zero_magnitude_is_silent_and_the_rest_bitwise_unchanged(self, rng):
        """An exact zero under kappa above about 2.8 divided kappa / sqrt(1/2)
        by float64's smallest normal, which overflows; the threshold now
        divides by kappa / sqrt(1/2) there, and keeps every other bit."""
        partner = np.array([2, 1, 0, 3, 4])
        for kappa in (1e-3, 0.5, 3.0, 1e6):
            v = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3, 5)
            v[[1, 4]] = 0.0
            mag = np.abs(v)
            mag = np.hypot(mag, mag[partner])
            with np.errstate(over="ignore"):  # the former formula, overflow and all
                want = np.maximum(1.0 - (kappa / spdmd.SQRT_HALF)
                                  / np.maximum(mag, np.finfo(float).tiny), 0.0) * v
            with np.errstate(all="raise"):
                got = soft_threshold(v, kappa, partner)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [math.inf, np.float64(1.5e308)])
    def test_threshold_past_float64_gives_zeros_silently(self, rng, kappa):
        """An infinite threshold, or one whose sqrt2 multiple passes float64's
        range, is the limit of ever larger ones: every amplitude is 0. It once
        divided inf by inf, and every iterate was NaN."""
        for v, partner in ((rng.standard_normal(4), np.array([2, 1, 0, 3])),
                           (rng.standard_normal(3) + 1j * rng.standard_normal(3), np.arange(3))):
            out = soft_threshold(v, kappa, partner)
            assert out.dtype == v.dtype and np.all(out == 0.0)


class TestAdmmSolve:
    def test_gamma_zero_matches_normal_equations(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        res = admm_solve(form, 0.0)
        want, *_ = np.linalg.lstsq(form.P, form.q, rcond=None)
        assert np.max(np.abs(res.z - want)) <= 1e-8
        assert np.linalg.norm(2 * form.P @ res.z - 2 * form.q) <= 1e-6 * (1 + np.linalg.norm(form.q))

    def test_analytic_shutdown(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        gamma = 2.0 * np.max(np.abs(form.q)) * 1.05
        res = admm_solve(form, gamma)
        assert np.all(res.z == 0.0)
        assert res.converged

    def test_diagonal_closed_form_oracle(self, rng):
        P = np.diag([2.0, 5.0]).astype(complex)
        q = np.array([3.0 * np.exp(0.4j), 1.0 * np.exp(-1.1j)])
        form = QuadraticForm(P=P, q=q, s=50.0)
        gamma = 2.5
        res = admm_solve(form, gamma, TIGHT)
        want = (q / np.abs(q)) * np.maximum(np.abs(q) - gamma / 2.0, 0.0) / np.diag(P).real
        assert np.max(np.abs(res.z - want)) <= 1e-8

    def test_kkt_subgradient_conditions(self, rng):
        for trial in range(10):
            Y, modes, lam = random_instance(rng, p=7, r=4, M=12)
            form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
            gamma = 0.3 * 2.0 * np.max(np.abs(form.q))
            res = admm_solve(form, gamma, TIGHT)
            assert res.converged
            tol = 1e-4 * (1 + np.linalg.norm(form.q))
            grad = 2.0 * (form.P @ res.z - form.q)
            for i in range(form.size):
                if res.z[i] != 0:
                    assert abs(grad[i] + gamma * res.z[i] / abs(res.z[i])) <= tol
                else:
                    assert abs(grad[i]) <= gamma + tol

    @pytest.mark.filterwarnings("error")  # the result is the only report: no warning
    def test_non_convergence_is_flagged_not_raised(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        params = AdmmParams(max_iter=2, eps_abs=1e-15, eps_rel=1e-15)
        res = admm_solve(form, 1.0, params)
        assert res.converged is False
        assert res.iterations == 2

    @pytest.mark.filterwarnings("error")
    def test_gamma_over_rho_past_float64_gives_zeros_silently(self, rng):
        """A gamma past the zero certificate returns z = u = 0 before the first
        iteration, converged at the starting rho, however small rho is."""
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        res = admm_solve(form, np.float64(1e300), AdmmParams(rho=1e-300, max_iter=300))
        assert not res.z.any() and not res.u.any()
        assert (res.iterations, res.converged, res.rho) == (0, True, 1e-300)

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "complex"])
    def test_zero_certificate_holds_from_its_least_gamma(self, rng, paired):
        """From the least gamma whose optimum is z = 0, grouped as
        soft_threshold groups pairs, a solve, warm-started or not, returns
        z = u = 0 with no iteration at its starting rho; just below it the
        splitting iterates. The reference loop's limit there is z = 0 too."""
        inputs = real_dmd_instance(rng)
        form = quadratic_form(*inputs) if paired else amplitude_form(*inputs)
        assert np.isrealobj(form.P) == paired
        least = zero_certificate(form)
        start = spdmd.AdmmResult(z=np.ones(form.size), iterations=7, converged=True, rho=8.0,
                                 u=np.ones(form.size))
        for gamma, begin, rho in ((least * (1 + 1e-12), None, 0.5), (1e300, None, 0.5),
                                  (least * (1 + 1e-12), start, 8.0)):
            res = admm_solve(form, gamma, AdmmParams(rho=0.5), begin)
            assert (res.iterations, res.converged, res.rho) == (0, True, rho)
            assert not res.z.any() and not res.u.any()
            assert res.z.dtype == res.u.dtype == form.q.dtype
        assert admm_solve(form, least * (1 - 1e-6)).iterations > 0
        if not paired:
            z, _, iterations, _ = cholesky_admm(form, least * 1.01)
            assert iterations > 1 and not z.any()

    @pytest.mark.filterwarnings("error")
    def test_infinite_threshold_inside_the_loop_is_silent(self, rng, monkeypatch):
        """Below the zero certificate, a rho small enough that gamma / rho
        passes float64's range thresholds at infinity inside the loop: z stays
        0, no iterate is NaN, and nothing warns."""
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        gamma, rho = 1e-12, 5e-324
        assert gamma < zero_certificate(form) and gamma / rho == math.inf
        kappas = []

        def spy(v, kappa, partner):
            kappas.append(kappa)
            return soft_threshold(v, kappa, partner)

        monkeypatch.setattr(spdmd, "soft_threshold", spy)
        res = admm_solve(form, gamma, AdmmParams(rho=rho, max_iter=9))
        assert kappas == [math.inf] * 9
        assert (res.iterations, res.converged, res.rho) == (9, False, rho)
        assert not res.z.any() and np.isfinite(res.u).all()

    def test_invalid_params(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        with pytest.raises(ValueError):
            admm_solve(form, -1.0)
        with pytest.raises(ValueError):
            admm_solve(form, 1.0, AdmmParams(rho=0.0))


class TestAdmmMatchesCholeskyReference:
    @pytest.mark.parametrize("rank", [None, 5])
    def test_single_solve(self, rng, rank):
        for _ in range(5):
            form = random_psd_form(rng, 12, rank)
            gamma = 0.3 * 2.0 * np.max(np.abs(form.q))
            z, u, iterations, _ = cholesky_admm(form, gamma)
            res = admm_solve(form, gamma)
            assert res.iterations == iterations
            assert_close(res.z, z, 1e-10)
            assert_close(res.u, u, 1e-10)

    def test_warm_started_two_gamma_sweep(self, rng):
        form = random_psd_form(rng, 15)
        gammas = 2.0 * np.max(np.abs(form.q)) * np.array([0.1, 0.4])
        z1, u1, it1, rho1 = cholesky_admm(form, gammas[0])
        z2, u2, it2, rho2 = cholesky_admm(form, gammas[1], start=(z1, u1, rho1))
        res1 = admm_solve(form, gammas[0])
        res2 = admm_solve(form, gammas[1], start=res1)
        assert (res1.iterations, res2.iterations) == (it1, it2)
        assert (res1.rho, res2.rho) == (rho1, rho2)
        for got, want in ((res1.z, z1), (res1.u, u1), (res2.z, z2), (res2.u, u2)):
            assert_close(got, want, 1e-10)
        solutions = gamma_sweep(form, gammas)
        assert [s.admm.iterations for s in solutions] == [it1, it2]

    @pytest.mark.parametrize("max_changes", [0, spdmd.RHO_MAX_CHANGES])
    def test_pair_basis_matches_the_complex_iterates(self, rng, monkeypatch, max_changes):
        """Real data: the real, conjugate-paired ADMM runs the complex ADMM's
        iterates in the unitary pair basis, with fixed and with balanced rho."""
        monkeypatch.setattr(spdmd, "RHO_MAX_CHANGES", max_changes)
        for _ in range(3):
            inputs = real_dmd_instance(rng)
            form, reference = quadratic_form(*inputs), amplitude_form(*inputs)
            assert form.eigh[1].dtype == np.float64
            first = np.flatnonzero(form.partner > np.arange(form.size))
            assert first.size == 4
            for params in (AdmmParams(), AdmmParams(rho=1e3)):
                ref = res = None
                for frac in (0.05, 0.3):  # the second warm-started from the first
                    gamma = frac * 2.0 * np.max(np.abs(reference.q))
                    z, u, iterations, rho = cholesky_admm(reference, gamma, params, ref)
                    ref = (z, u, rho)
                    res = admm_solve(form, gamma, params, start=res)
                    assert res.iterations == iterations and res.rho == rho
                    b = form.from_basis(res.z)  # the iterates are coordinates
                    assert_close(b, z, 1e-10)
                    assert_close(form.from_basis(res.u), u, 1e-10)
                    np.testing.assert_array_equal(np.abs(b[first]), np.abs(b[form.partner[first]]))

    def test_pair_basis_polish_and_amplitudes_match_the_complex_solves(self, rng):
        for _ in range(3):
            inputs = real_dmd_instance(rng)
            form, reference = quadratic_form(*inputs), amplitude_form(*inputs)
            assert_close(optimal_amplitudes(form), optimal_amplitudes(reference), 1e-10)
            for _ in range(10):
                support = pair_closed_support(rng, form.partner)
                assert_close(polish(form, support), polish(reference, support), 1e-10)
            split = np.flatnonzero(form.partner > np.arange(form.size))[:1]
            with pytest.raises(ValueError, match="support splits a conjugate pair"):
                polish(form, split)
            want = np.linalg.solve(reference.P[np.ix_(split, split)], reference.q[split])
            assert_close(polish(reference, split)[split], want, 1e-12)

    def test_pair_check_failure_takes_the_identity_basis(self, rng):
        Y, basis, W, lam = real_dmd_instance(rng)
        form, amp = quadratic_form(Y, basis, W, lam), amplitude_form(Y, basis, W, lam)
        (a, b), (c, d) = [(i, form.partner[i])
                          for i in np.flatnonzero(form.partner > np.arange(form.size))[:2]]
        wrong = form.partner.copy()
        wrong[[a, b, c, d]] = [c, d, a, b]
        broken_q = amp.q.copy()
        broken_q[a] *= 1.01
        noisy = Y + 1e-3j * rng.standard_normal(Y.shape)
        assert paired_form(amp.P, amp.q, amp.s, form.partner).eigh[1].dtype == np.float64
        for candidate in (paired_form(amp.P, broken_q, amp.s, form.partner),
                          paired_form(amp.P, amp.q, amp.s, wrong),
                          quadratic_form(noisy, basis, W, lam)):
            np.testing.assert_array_equal(candidate.partner, np.arange(candidate.size))
            assert candidate.eigh[1].dtype == complex
            gamma = 0.3 * 2.0 * np.max(np.abs(candidate.q))
            z, u, iterations, _ = cholesky_admm(candidate, gamma)
            res = admm_solve(candidate, gamma)
            assert res.iterations == iterations
            assert_close(res.z, z, 1e-10)
            assert_close(res.u, u, 1e-10)

    def test_sweep_eigendecomposes_once(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(spdmd.np.linalg, "eigh", counting_eigh)
        form, _, _ = planted_form(rng, r=10, n_active=3, M=100, p=20)
        gamma_sweep(form, log_gamma_grid(1e-1, 1e4, 10))
        assert calls == [(10, 10)]
        gamma_sweep(form, log_gamma_grid(1e-1, 1e4, 10))
        optimal_amplitudes(form)
        admm_solve(form, 0.0)
        assert len(calls) == 1


class TestResidualBalancing:
    @staticmethod
    def record_rhos(monkeypatch):
        """One list per admm_solve call: the rho of each operator it fetched,
        so [0] is the starting rho and [-1] the final one."""
        visits = []
        solve, x_update = spdmd.admm_solve, QuadraticForm.x_update

        def recording_solve(*args, **kwargs):
            visits.append([])
            return solve(*args, **kwargs)

        def recording_x_update(form, rho):
            visits[-1].append(rho)
            return x_update(form, rho)

        monkeypatch.setattr(spdmd, "admm_solve", recording_solve)
        monkeypatch.setattr(QuadraticForm, "x_update", recording_x_update)
        return visits

    @pytest.mark.parametrize("max_changes", [0, spdmd.RHO_MAX_CHANGES])
    def test_matches_cholesky_reference(self, rng, monkeypatch, max_changes):
        monkeypatch.setattr(spdmd, "RHO_MAX_CHANGES", max_changes)
        forms = [random_psd_form(rng, 12) for _ in range(3)]
        forms += [planted_form(rng, r=10, n_active=n)[0] for n in (3, 5)]
        for form in forms:
            for params in (AdmmParams(), AdmmParams(rho=1e4)):
                gamma = 0.3 * 2.0 * np.max(np.abs(form.q))
                z, u, iterations, _ = cholesky_admm(form, gamma, params)
                res = admm_solve(form, gamma, params)
                assert res.iterations == iterations
                assert_close(res.z, z, 1e-10)
                assert_close(res.u, u, 1e-10)

    def test_same_optimum_as_fixed_rho(self, rng, monkeypatch):
        forms = [random_psd_form(rng, 12) for _ in range(3)]
        forms += [planted_form(rng, r=10, n_active=n)[0] for n in (3, 5)]
        cases = [(form, frac * 2.0 * np.max(np.abs(form.q)))
                 for form in forms for frac in (0.05, 0.3, 0.7)]
        balanced = [solve_at_gamma(form, gamma, TIGHT) for form, gamma in cases]
        monkeypatch.setattr(spdmd, "RHO_MAX_CHANGES", 0)
        fixed = [solve_at_gamma(form, gamma, TIGHT) for form, gamma in cases]
        for got, want in zip(balanced, fixed):
            assert got.admm.converged and want.admm.converged
            assert want.admm.rho == TIGHT.rho
            np.testing.assert_array_equal(got.support, want.support)
            assert_close(got.b_polished, want.b_polished, 1e-10)
            assert_close(got.admm.z, want.admm.z, 1e-9)
        assert sum(got.admm.rho != TIGHT.rho for got in balanced) >= 5

    def test_rho_stays_on_the_doubling_grid_and_changes_at_most_the_cap(self, rng,
                                                                        monkeypatch):
        visits = self.record_rhos(monkeypatch)
        form, _, _ = planted_form(rng, r=10, n_active=3)
        gamma = 0.3 * 2.0 * np.max(np.abs(form.q))
        # the first settles at 192; the others start 2^26 and 2^34 away from it
        for rho in (3.0, 3e12, 3e-6):
            params = AdmmParams(rho=rho, max_iter=1000)
            with warnings.catch_warnings():  # far starts may stop at max_iter
                warnings.simplefilter("ignore")
                res = spdmd.admm_solve(form, gamma, params)
            assert res.rho == visits[-1][-1]
            assert all(math.log2(v / rho).is_integer() for v in visits[-1])
        changes = [len(v) - 1 for v in visits]
        assert changes[0] > 0 and changes[1:] == [spdmd.RHO_MAX_CHANGES] * 2
        gamma_sweep(form, log_gamma_grid(1e-1, 1e4, 30))
        assert max(len(v) - 1 for v in visits) <= spdmd.RHO_MAX_CHANGES

    def test_warm_sweep_carries_rho_and_cold_sweep_restarts(self, rng, monkeypatch):
        """The sweep starts each gamma at the last one's final rho; the cold
        sweep, one solve_at_gamma per gamma with no start, at params.rho."""
        visits = self.record_rhos(monkeypatch)
        form, _, _ = planted_form(rng, r=10, n_active=3)
        gammas = log_gamma_grid(1e-1, 1e4, 12)
        params = AdmmParams(rho=0.5)
        warm = gamma_sweep(form, gammas, params)
        assert visits[0][0] == 0.5
        assert len({rho for v in visits for rho in v}) > 2
        for k in range(1, len(gammas)):
            assert visits[k][0] == visits[k - 1][-1] == warm[k - 1].admm.rho
        del visits[:]
        cold = [solve_at_gamma(form, gamma, params) for gamma in gammas]
        assert [v[0] for v in visits] == [0.5] * len(gammas)
        assert [s.admm.rho for s in cold] == [v[-1] for v in visits]

    def test_form_holds_one_operator(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        def square_arrays(value, dtype):
            if isinstance(value, np.ndarray):
                return int(value.shape == (r, r) and value.dtype == dtype)
            if isinstance(value, (tuple, list)):
                return sum(square_arrays(v, dtype) for v in value)
            if isinstance(value, dict):
                return sum(square_arrays(v, dtype) for v in value.values())
            return 0

        monkeypatch.setattr(spdmd.np.linalg, "eigh", counting_eigh)
        for paired in (False, True):
            del calls[:]
            form = (quadratic_form(*real_dmd_instance(rng)) if paired
                    else planted_form(rng, r=10, n_active=3)[0])
            r = form.size
            solutions = gamma_sweep(form, log_gamma_grid(1e-1, 1e4, 12))
            assert len({s.admm.rho for s in solutions}) > 1
            assert calls == [(r, r)]
            # P, the eigenvectors of P, and one x-update operator, all real in
            # the pair basis: no complex copy of P stays behind
            assert square_arrays(vars(form), complex) == (0 if paired else 3)
            assert square_arrays(vars(form), float) == (3 if paired else 0)

    def test_gamma_zero_keeps_the_starting_rho(self, rng):
        form = random_psd_form(rng, 8)
        assert admm_solve(form, 0.0, AdmmParams(rho=4.0)).rho == 4.0
        start = admm_solve(form, 0.3 * 2.0 * np.max(np.abs(form.q)), AdmmParams(rho=1e4))
        assert start.rho != 4.0
        assert admm_solve(form, 0.0, AdmmParams(rho=4.0), start=start).rho == start.rho

    def test_start_resumes_the_sweep_state(self, rng):
        """A solve started from the last one's result is the sweep's next
        entry, bit for bit: it resumes at that result's z, u and rho."""
        form = quadratic_form(*real_dmd_instance(rng))
        gammas = 2.0 * np.max(np.abs(form.q)) * np.array([0.05, 0.3])
        params = AdmmParams(rho=1e3)
        first = solve_at_gamma(form, gammas[0], params).admm
        assert first.rho != params.rho  # balancing moved rho, so the start must carry it
        got = solve_at_gamma(form, gammas[1], params, start=first)
        want = gamma_sweep(form, gammas, params)[1]
        for name in ("support", "b_polished", "cost", "loss_percent"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
        for name in ("z", "u", "iterations", "rho"):
            np.testing.assert_array_equal(getattr(got.admm, name), getattr(want.admm, name),
                                          name)


class TestPolish:
    def test_full_support_equals_unconstrained(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        b = polish(form, np.arange(3))
        want, *_ = np.linalg.lstsq(form.P, form.q, rcond=None)
        assert np.max(np.abs(b - want)) <= 1e-8

    def test_empty_support(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        b = polish(form, np.array([], dtype=int))
        assert np.all(b == 0.0)
        assert abs(form.objective(b) - form.s) <= 1e-10

    def test_against_column_deletion_oracle(self, rng):
        for _ in range(10):
            Y, modes, lam = random_instance(rng, p=8, r=6, M=14)
            form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
            support = np.sort(rng.choice(6, size=3, replace=False))
            b = polish(form, support)
            assert np.all(b[np.setdiff1d(np.arange(6), support)] == 0.0)
            # oracle: delete the complement columns and solve directly
            sub = np.linalg.solve(form.P[np.ix_(support, support)], form.q[support])
            b_oracle = np.zeros(6, dtype=complex)
            b_oracle[support] = sub
            assert abs(form.objective(b) - form.objective(b_oracle)) <= 1e-8 * max(
                1.0, form.objective(b_oracle))

    def test_kkt_stationarity_on_random_supports(self, rng):
        for _ in range(20):
            form = random_psd_form(rng, 10)
            support = np.sort(rng.choice(10, size=rng.integers(1, 11), replace=False))
            b = polish(form, support)
            grad = 2.0 * (form.P @ b - form.q)
            assert np.max(np.abs(grad[support])) <= 1e-10 * max(1.0, np.linalg.norm(form.q))
            off = np.setdiff1d(np.arange(10), support)
            assert np.all(b[off] == 0.0)
            assert_close(b, kkt_polish(form, support), 1e-10)

    def test_matches_a_cholesky_solve_on_random_supports(self, rng):
        form = random_psd_form(rng, 10)
        for _ in range(20):
            support = np.sort(rng.choice(10, size=rng.integers(1, 11), replace=False))
            P_s = form.P[np.ix_(support, support)]
            want = cholesky_solver(P_s)(form.q[support])
            assert_close(polish(form, support)[support], want, 1e-12)

    def test_a_form_that_is_not_near_singular_passes_the_pivot_test_on_every_block(self,
                                                                                  rng):
        """On real forms with random pairs and complex forms, up to condition
        1e13.5 and not near_singular, every block of a pair-closed support
        passes the pivot test polish once made, so polish is one solve there."""
        for trial in range(60):
            r = int(rng.integers(1, 13))
            form = conditioned_form(rng, r, 10.0 ** rng.uniform(0, 13.5), trial % 2 == 0)
            assert form.near_singular is False
            for _ in range(10):
                support = pair_closed_support(rng, form.partner)
                P_s = form.P[np.ix_(support, support)]
                assert pivot_test(P_s)
                x = np.zeros(r, dtype=form.P.dtype)
                x[support] = np.linalg.solve(P_s, form.q[support])
                assert np.array_equal(polish(form, support), form.from_basis(x))

    @pytest.mark.filterwarnings("error")
    def test_a_near_singular_form_takes_the_minimum_norm_on_every_block(self, rng):
        """On a near-singular form, polish takes the minimum-norm solution also
        on a block that is well conditioned by itself, bit for bit, so the run's
        near-singular note is true of it."""
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        P = np.zeros((7, 7), dtype=complex)
        P[:5, :5] = G @ G.conj().T + 5.0 * np.eye(5)
        P[5:, 5:] = 1.0  # rank 1
        q = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        form = QuadraticForm(P=P, q=q, s=100.0)
        assert form.near_singular is True
        support = np.arange(5)
        P_s = P[np.ix_(support, support)]
        assert pivot_test(P_s) and np.linalg.cond(P_s) < 1e3
        x = np.zeros(7, dtype=complex)
        x[support] = spdmd._min_norm(*np.linalg.eigh(P_s), q[support])[0]
        assert np.array_equal(polish(form, support), x)

    @pytest.mark.filterwarnings("error")
    def test_singular_support_block_gives_minimum_norm(self):
        P = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex)
        form = QuadraticForm(P=P, q=np.array([1.0, 1.0, 1.0]), s=10.0)
        assert form.near_singular is True
        b = polish(form, np.array([0, 1]))
        np.testing.assert_allclose(b, [0.5, 0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("block", [
        [[4, 2, 2], [2, 1, 1], [2, 1, 3]],  # rank 2: the second Cholesky pivot is 0
        [[1, 1j, 0], [-1j, 1, 0], [0, 0, 2]],  # complex Hermitian, rank 2
        [[2, 1, 0], [1, 2, 0], [0, 0, 0]],  # a mode that meets nothing
    ])
    @pytest.mark.filterwarnings("error")
    def test_singular_block_matches_the_pseudoinverse(self, rng, block):
        """A rank-deficient support block falls back to the minimum-norm
        solution, pinv(P_s) q_s, without a note of its own: the form it
        belongs to is near-singular, by interlacing, and records that."""
        P = np.zeros((5, 5), dtype=complex)
        support = np.array([0, 2, 4])
        P[np.ix_(support, support)] = block
        P[[1, 3], [1, 3]] = 5.0
        q = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        form = QuadraticForm(P=P, q=q, s=100.0)
        assert form.near_singular is True
        b = polish(form, support)
        want = np.linalg.pinv(P[np.ix_(support, support)]) @ q[support]
        assert_close(b[support], want, 1e-12)
        assert np.all(b[[1, 3]] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_roundoff_sized_cholesky_pivots_give_minimum_norm(self):
        """Rank-3 6x6 Hermitian P = G G* on which Cholesky succeeds by roundoff:
        its trailing pivots are ~eps of the largest, so polish takes the
        minimum-norm solution, not a solve with the near-null block; the form
        records that it is near-singular."""
        rng = np.random.default_rng(0)
        caught = 0
        for _ in range(200):
            G = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            P = G @ G.conj().T
            q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            try:
                np.linalg.cholesky(P)
            except np.linalg.LinAlgError:
                continue
            caught += 1
            form = QuadraticForm(P=P, q=q, s=1.0)
            assert form.near_singular is True
            b = polish(form, np.arange(6))
            assert_close(b, np.linalg.pinv(P) @ q, 1e-10)
        assert caught > 0

    def test_out_of_range_support(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        with pytest.raises(ValueError, match="out of range"):
            polish(form, np.array([5]))


class TestPerformanceLoss:
    def test_exact_fit(self):
        assert performance_loss(0.0, 10.0) == 0.0

    def test_zero_amplitudes(self):
        assert performance_loss(10.0, 10.0) == 100.0

    def test_square_root_scaling(self):
        assert abs(performance_loss(2.5, 10.0) - 50.0) <= 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            performance_loss(1.0, 0.0)
        with pytest.raises(ValueError):
            performance_loss(-1.0, 1.0)


class TestFitLoss:
    """The form scores a fit from its residual at the optimum, split exactly,
    so its cost matches the formed model's residual even where the expansion
    b*Pb - 2 Re(q*b) + s cancels."""

    def test_matches_the_residual_of_the_formed_model(self, rng):
        X, _ = planted_matrix(10, 70, [0.97 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        data = X.data + 1e-4 * rng.standard_normal(X.data.shape)
        Y = data[:, :-1]  # 69 columns: whole blocks and a partial one
        base = exact_dmd(data)
        factored = quadratic_form(Y, base.basis, base.coefficients, base.eigenvalues)
        model = base.with_amplitudes(optimal_amplitudes(factored))
        xi = model.eigenvalues[:, None] ** np.arange(Y.shape[1])
        want = 100 * np.linalg.norm(Y - np.real(model.modes @ (model.amplitudes[:, None] * xi)))
        want /= np.linalg.norm(Y)
        formed = quadratic_form(Y, model.modes, np.eye(model.rank), model.eigenvalues)
        for form in (factored, formed):
            got = performance_loss(form.objective(optimal_amplitudes(form)), form.s)
            assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("budget", [8, 8 * 10 * 7])
    def test_residual_blocks_follow_the_byte_budget(self, rng, monkeypatch, budget):
        """At p = 10 the default budget gives 64-snapshot blocks; a budget of
        one or seven columns of floats gives the same floor to roundoff."""
        X, _ = planted_matrix(10, 70, [0.97 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        data = X.data + 1e-4 * rng.standard_normal(X.data.shape)
        base = exact_dmd(data)
        args = (data[:, :-1], base.basis, base.coefficients, base.eigenvalues)
        want = quadratic_form(*args).floor
        monkeypatch.setattr(spdmd, "RESIDUAL_BYTES", budget)
        assert abs(quadratic_form(*args).floor - want) <= 1e-10 * want

    def test_zero_data_rejected(self, rng):
        form = quadratic_form(np.zeros((3, 4)), rng.standard_normal((3, 1)) + 0j, np.eye(1),
                              np.array([1.0]))
        with pytest.raises(ValueError, match="data energy"):
            performance_loss(form.objective(optimal_amplitudes(form)), form.s)

    def test_near_exact_fit(self, rng):
        """At rank 4 the smoke input plus 1e-7 noise leaves a residual of
        ~4e-14 of the data energy: the expansion loses it to cancellation."""
        data = smoke_matrix() + 1e-7 * rng.standard_normal((6, 40))
        base = exact_dmd(data, rank=4)
        form = quadratic_form(data[:, :-1], base.basis, base.coefficients, base.eigenvalues)
        solution = solve_at_gamma(form, 1e-3)
        want = formed_residual(data[:, :-1], base, solution.b_polished)
        assert want <= 1e-11 * form.s
        assert abs(solution.cost - want) <= 1e-8 * want

    def test_singular_cdmd_form(self):
        """CDMD of the smoke signal over 80 snapshots: a rank-4 Krylov basis of
        79 columns, so P is singular and the optimum drops 75 eigenvalues. At
        two modes and at none, the cost is the residual to roundoff; without
        the g term it is off by ~1e-11 relative."""
        X = smoke_matrix(80)
        with pytest.warns(UserWarning, match="rank-deficient"):
            base = companion_dmd(X)
        Y = X[:, :-1]
        form = quadratic_form(Y, base.basis, base.coefficients, base.eigenvalues)
        assert form.near_singular is True
        lam = form.eigh[0]
        assert lam[0] <= np.finfo(float).eps * lam.size * lam[-1]
        for gamma, cardinality in ((1.0, 2), (100.0, 0)):
            solution = solve_at_gamma(form, gamma)
            assert solution.cardinality == cardinality
            want = formed_residual(Y, base, solution.b_polished)
            assert abs(solution.cost - want) <= 1e-13 * want


class TestGammaSweep:
    def test_one_record_per_solve(self, rng):
        """A solve holds each quantity once: the splitting's state in its admm
        record, the cardinality read off the support."""
        form, _, _ = planted_form(rng, r=8, n_active=3)
        sol = solve_at_gamma(form, 1.0)
        assert [f.name for f in dataclasses.fields(sol)] == [
            "gamma", "admm", "support", "b_polished", "cost", "loss_percent"]
        assert [f.name for f in dataclasses.fields(sol.admm)] == [
            "z", "iterations", "converged", "rho", "u"]
        assert sol.cardinality == sol.support.size
        np.testing.assert_array_equal(sol.support, detect_support(sol.admm.z, form.partner))

    def test_each_row_polishes_its_own_support(self, rng, monkeypatch):
        """One polish per gamma, also where consecutive supports repeat, and
        each row is bitwise the polish and objective of its support."""
        form, _, _ = planted_form(rng, r=10, n_active=3, M=200)
        calls = []

        def spy(form, support):
            calls.append(support)
            return polish(form, support)

        monkeypatch.setattr(spdmd, "polish", spy)
        solutions = gamma_sweep(form, log_gamma_grid(1e-2, 1e5, 30))
        assert len(calls) == len(solutions)
        assert any(np.array_equal(a.support, b.support) for a, b in zip(solutions, solutions[1:]))
        for s in solutions:
            fresh = polish(form, s.support)
            assert np.array_equal(s.b_polished, fresh)
            assert s.cost == form.objective(fresh)
            assert s.loss_percent == performance_loss(s.cost, form.s)

    def test_monotone_tradeoff_on_planted_data(self, rng):
        form, b_true, active = planted_form(
            rng, r=10, n_active=10, M=200, p=40,
            amp_scale=[100, 70, 50, 35, 25, 18, 12, 8, 5, 3])
        gammas = log_gamma_grid(1e-2, 1e6, 40)
        points = gamma_sweep(form, gammas)
        cards = [pt.cardinality for pt in points]
        losses = [pt.loss_percent for pt in points]
        assert all(c1 >= c2 for c1, c2 in zip(cards, cards[1:]))
        assert all(l1 <= l2 + 1e-10 for l1, l2 in zip(losses, losses[1:]))

    def test_single_gamma_zero(self, rng):
        form, b_true, active = planted_form(rng, n_active=10, r=10,
                                            amp_scale=np.linspace(50, 5, 10))
        solutions = gamma_sweep(form, np.array([0.0]))
        assert len(solutions) == 1
        assert solutions[0].cardinality == 10
        assert solutions[0].loss_percent <= 1e-5

    def test_planted_support_plateau(self, rng):
        form, b_true, active = planted_form(rng, r=10, n_active=3, M=200)
        solutions = gamma_sweep(form, log_gamma_grid(1e-2, 1e5, 50))
        hits = [s for s in solutions if s.cardinality == 3]
        assert hits, "no cardinality-3 plateau found"
        for s in hits:
            np.testing.assert_array_equal(np.sort(s.support), active)

    def test_sweep_matches_independent_solves(self, rng):
        """Each row of the sweep has the support of a solve started from zeros
        at its gamma alone, and so, bit for bit, its polish and loss."""
        form, _, _ = planted_form(rng, r=6, n_active=3, M=100, p=20,
                                  amp_scale=[50, 20, 8])
        gammas = log_gamma_grid(1e-1, 1e4, 12)
        warm_pts = gamma_sweep(form, gammas)
        cold_pts = [solve_at_gamma(form, gamma) for gamma in gammas]
        assert len({c.cardinality for c in cold_pts}) > 2
        for w, c in zip(warm_pts, cold_pts):
            np.testing.assert_array_equal(w.support, c.support)
            assert np.array_equal(c.b_polished, polish(form, c.support))
            assert np.array_equal(w.b_polished, c.b_polished)
            assert w.loss_percent == c.loss_percent

    def test_polishing_never_hurts(self, rng):
        Y, modes, lam = random_instance(rng, p=8, r=5, M=16)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        for gamma in (0.1, 1.0, 10.0):
            sol = solve_at_gamma(form, gamma)
            b = form.from_basis(sol.admm.z)
            assert form.objective(sol.b_polished) <= form.objective(b) + 1e-10

    def test_loss_identity_two_ways(self, rng):
        Y, modes, lam = random_instance(rng, p=8, r=4, M=12)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        sol = solve_at_gamma(form, 0.5)
        direct = 100.0 * np.linalg.norm(
            Y - modes @ np.diag(sol.b_polished) @ vandermonde(lam, Y.shape[1]), "fro"
        ) / np.linalg.norm(Y, "fro")
        assert abs(sol.loss_percent - direct) <= 1e-8 * max(1.0, direct)

    def test_loss_consistent_with_cost(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        sol = solve_at_gamma(form, 1.0)
        assert abs(sol.loss_percent - 100.0 * np.sqrt(sol.cost / form.s)) \
            <= 1e-10 * max(1.0, sol.loss_percent)

    def test_empty_and_invalid_grids(self, rng):
        Y, modes, lam = random_instance(rng)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        with pytest.raises(ValueError):
            gamma_sweep(form, np.array([]))
        with pytest.raises(ValueError):
            gamma_sweep(form, np.array([-1.0]))
        with pytest.raises(ValueError):
            log_gamma_grid(0.0, 1.0, 5)

    @pytest.mark.parametrize("count", [0, -2])
    def test_grid_needs_a_point(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            log_gamma_grid(1e-3, 1e3, count)

    def test_one_point_grid_needs_equal_endpoints(self):
        with pytest.raises(ValueError, match="gamma_min == gamma_max"):
            log_gamma_grid(0.5, 1e9, 1)
        with pytest.raises(ValueError, match="must not exceed"):
            log_gamma_grid(2.0, 1.0, 1)
        assert log_gamma_grid(0.5, 0.5, 1).tolist() == [0.5]
        assert log_gamma_grid(0.0, 0.0, 1).tolist() == [0.0]


class TestSelectModes:
    def _result_and_form(self, rng, r=5, n_active=2):
        form, b_true, active = planted_form(
            rng, r=r, n_active=n_active, M=150, p=20,
            amp_scale=[80.0, 40.0][:n_active])
        lam = np.exp(2j * np.pi * (np.arange(r) + 0.5) / (r + 3))
        modes = random_unitary(20, rng)[:, :r]
        result = DecompositionResult(eigenvalues=lam, basis=modes, coefficients=np.eye(r),
                                     amplitudes=None, method="exact-dmd")
        return result, form, active

    def test_planted_two_mode_recovery(self, rng):
        result, form, active = self._result_and_form(rng)
        solutions = gamma_sweep(form, log_gamma_grid(1e-1, 1e5, 30))
        hits = [s for s in solutions if s.cardinality == 2]
        assert hits
        selected = select_modes(result, hits[0])
        np.testing.assert_array_equal(np.sort(selected.original_indices), active)
        assert selected.method == "spdmd"
        assert selected.rank == 2

    def test_full_support_is_permutation(self, rng):
        Y, modes, lam = random_instance(rng, p=8, r=4, M=12)
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        lam = np.exp(2j * np.pi * np.arange(4) / 7)
        result = DecompositionResult(eigenvalues=lam, basis=modes, coefficients=np.eye(4),
                                     amplitudes=None, method="exact-dmd")
        sol = solve_at_gamma(form, 0.0)
        assert sol.cardinality == 4
        selected = select_modes(result, sol)
        assert selected.rank == result.rank
        assert sorted(selected.original_indices) == list(range(result.rank))

    @pytest.mark.filterwarnings("error")  # the empty selection is returned, not warned of
    def test_empty_support_gives_rank_zero(self, rng):
        result, form, _ = self._result_and_form(rng)
        sol = solve_at_gamma(form, 2.0 * np.max(np.abs(form.q)) * 10)
        assert sol.cardinality == 0
        selected = select_modes(result, sol)
        assert selected.rank == 0 and selected.original_indices.size == 0


def test_detect_support_zero_vector():
    assert detect_support(np.zeros(4), np.arange(4)).size == 0


def test_detect_support_keeps_a_pair_with_a_zero_coordinate():
    """A pair's coordinates are grouped as soft_threshold groups them: the pair
    (0, 1) with y_1 = 0, a real amplitude, is kept whole."""
    v = np.array([3.0, 0.0, 0.0, 1e-20])
    np.testing.assert_array_equal(detect_support(v, np.array([1, 0, 2, 3])), [0, 1])
    np.testing.assert_array_equal(detect_support(v, np.arange(4)), [0])
