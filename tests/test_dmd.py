from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from koopmode import (
    DecompositionResult,
    admm_solve,
    companion_dmd,
    conjugate_pairs,
    exact_dmd,
    mode_stats,
    optimal_amplitudes,
    quadratic_form,
    truncated_svd,
    vandermonde,
)
from koopmode.dmd import MODE_STYLES, eigen_decomposition
from conftest import planted_matrix, real_exponentials


class TestTruncatedSvd:
    def test_identity(self):
        f = truncated_svd(np.eye(3), rank=3)
        np.testing.assert_allclose(f.S, [1.0, 1.0, 1.0])

    def test_rank_one_outer_product(self, rng):
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        f = truncated_svd(7.0 * np.outer(u, v))
        assert f.U.shape == (6, 1) and f.S.shape == (1,) and f.V.shape == (4, 1)
        np.testing.assert_allclose(f.S, [7.0], atol=1e-10)

    @staticmethod
    def tall_and_wide(rng, p, M):
        """Real and complex matrices, tall and wide: a wide one is factored
        through the R factor of Y*."""
        return [rng.standard_normal(shape) + z * rng.standard_normal(shape)
                for shape in ((p, M), (M, p)) for z in (0, 1j)]

    def test_tail_energy_against_full_svd_oracle(self, rng):
        for Y in self.tall_and_wide(rng, 20, 10):
            f = truncated_svd(Y, rank=5)
            assert f.U.shape == (Y.shape[0], 5) and f.V.shape == (Y.shape[1], 5)
            err = np.linalg.norm(Y - f.U @ (f.S[:, None] * f.V.conj().T), "fro")
            sigma = np.linalg.svd(Y, compute_uv=False)
            assert np.max(np.abs(f.S - sigma[:5])) <= 1e-12 * sigma[0]
            assert abs(err - np.sqrt(np.sum(sigma[5:] ** 2))) <= 1e-8

    def test_rank_above_the_numerical_rank_is_refused(self):
        """Two oscillators span rank 2; sigma_3 / sigma_1 is about 2e-16. An
        explicit rank 3 once fitted that roundoff direction and gave three
        spurious eigenvalues; it is refused, naming the numerical rank."""
        rng = np.random.default_rng(0)
        t = np.arange(100)
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        X = np.outer(a, np.cos(0.3 * t)) + np.outer(b, np.sin(0.3 * t))
        lam = exact_dmd(X, rank=2).eigenvalues
        np.testing.assert_allclose(np.sort_complex(lam), np.exp([-0.3j, 0.3j]), atol=1e-12)
        with pytest.raises(ValueError, match="rank 3 exceeds the numerical rank 2"):
            exact_dmd(X, rank=3)

    def test_orthonormal_factors(self, rng):
        for Y in self.tall_and_wide(rng, 15, 8):
            f = truncated_svd(Y, rank=4)
            assert np.max(np.abs(f.U.conj().T @ f.U - np.eye(4))) <= 1e-10
            assert np.max(np.abs(f.V.conj().T @ f.V - np.eye(4))) <= 1e-10
            assert np.all(np.diff(f.S) <= 0) and np.all(f.S > 0)

    def test_all_zero_matrix(self):
        with pytest.raises(ValueError):
            truncated_svd(np.zeros((4, 4)))

    def test_rank_too_large(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(rng.standard_normal((4, 3)), rank=4)

    def test_rank_bound_is_checked_before_factoring(self, rng, monkeypatch):
        def factor(*args, **kwargs):
            raise AssertionError("factored before the rank bound was checked")

        monkeypatch.setattr(np.linalg, "qr", factor)
        monkeypatch.setattr(np.linalg, "svd", factor)
        for shape in ((4, 6), (6, 4)):
            with pytest.raises(ValueError, match=r"rank 5 exceeds min\(p, M\)=4"):
                truncated_svd(rng.standard_normal(shape), rank=5)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_wide_route_matches_the_svd_of_the_adjoint(self, rng, complex_):
        """At M >= 11p/6 LAPACK's SVD of Y* takes the same QR step first. A
        formed column V_k is off by about eps sigma_1 / sigma_k, so the singular
        values fall only to 1e-5 (V's orthonormality is then near 2e-11; at
        1e-6 it reaches 3e-10)."""
        p, M = 8, 30
        U, V = (np.linalg.qr(rng.standard_normal(shape)
                             + 1j * complex_ * rng.standard_normal(shape))[0]
                for shape in ((p, p), (M, p)))
        Y = (U * np.geomspace(1.0, 1e-5, p)) @ V.conj().T
        _, s, Uh = np.linalg.svd(Y.conj().T, full_matrices=False)
        for rank in (3, p):
            f = truncated_svd(Y, rank=rank)
            assert np.max(np.abs(f.S - s[:rank])) <= 1e-13 * s[0]
            # U up to each column's sign, or unit phase when complex
            ref = Uh[:rank].conj().T
            phase = np.sum(ref.conj() * f.U, axis=0)
            assert np.max(np.abs(f.U - ref * phase)) <= 1e-13
            assert np.max(np.abs(f.V.conj().T @ f.V - np.eye(rank))) <= 1e-10
        assert np.max(np.abs(Y - f.U @ (f.S[:, None] * f.V.conj().T))) <= 1e-12

    def test_tall_route_is_one_svd(self, rng):
        for Y in self.tall_and_wide(rng, 12, 5)[:2]:
            U, s, Vh = np.linalg.svd(Y, full_matrices=False)
            f = truncated_svd(Y, rank=3)
            for got, want in ((f.U, U[:, :3]), (f.S, s[:3]), (f.V, Vh.conj().T[:, :3])):
                assert np.array_equal(got, want)

    def test_wide_route_factors_at_most_p_rows(self, rng, monkeypatch):
        """The M-side factor is never formed whole: the SVD sees a p x p matrix."""
        svd, shapes = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for Y in self.tall_and_wide(rng, 40, 7)[2:]:
            f = truncated_svd(Y, rank=4)
            assert f.V.shape == (40, 4)
        assert shapes and all(rows <= 7 for rows, _ in shapes)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one(self, rng, rank):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            truncated_svd(rng.standard_normal((4, 3)), rank=rank)


class TestExactDmd:
    def test_single_geometric_sequence(self, rng):
        v = rng.standard_normal(5)
        data = np.column_stack([0.9 ** k * v for k in range(20)])
        result = exact_dmd(data, rank=1)
        assert abs(result.eigenvalues[0] - 0.9) <= 1e-10

    def test_constant_field(self, rng):
        v = rng.standard_normal(5) + 2.0
        data = np.column_stack([v] * 10)
        result = exact_dmd(data, rank=1)
        assert abs(result.eigenvalues[0] - 1.0) <= 1e-10

    def test_complex_pair_against_dense_eigensolver_oracle(self, rng):
        lam = 0.95 * np.exp(1j * np.pi / 6)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        data = np.column_stack([np.real(2.0 * lam ** k * w) for k in range(40)])
        result = exact_dmd(data, rank=2)
        got = sorted(result.eigenvalues, key=lambda z: z.imag)
        want = sorted([lam, np.conj(lam)], key=lambda z: z.imag)
        assert max(abs(g - w_) for g, w_ in zip(got, want)) <= 1e-8
        # oracle: diagonalize the explicitly constructed propagation matrix
        basis = np.column_stack([w, np.conj(w)])
        A = np.real(basis @ np.diag([lam, np.conj(lam)]) @ np.linalg.pinv(basis))
        oracle = np.linalg.eigvals(A)
        oracle = oracle[np.argsort(-np.abs(oracle))][:2]
        for g in got:
            assert np.min(np.abs(oracle - g)) <= 1e-8

    def test_conjugate_symmetry_on_real_data(self, rng):
        data = rng.standard_normal((10, 25))
        result = exact_dmd(data, rank=6)
        for lam in result.eigenvalues:
            assert np.min(np.abs(result.eigenvalues - np.conj(lam))) <= 1e-8

    def test_mode_style_span_equivalence(self):
        X, _ = planted_matrix(12, 30, [0.95 * np.exp(0.4j), 0.9 * np.exp(1.1j)],
                              [1.0, 0.7], seed=5)
        exact = exact_dmd(X.data, rank=4, mode_style="exact")
        proj = exact_dmd(X.data, rank=4, mode_style="projected")
        Qe, _ = np.linalg.qr(exact.modes)
        Qp, _ = np.linalg.qr(proj.modes)
        angles = np.linalg.svd(Qe.conj().T @ Qp, compute_uv=False)
        assert np.max(np.abs(angles - 1.0)) <= 1e-8

    def test_projected_basis_holds_only_the_kept_columns(self, rng):
        """A projected result's basis is its own p x r array, not a view that
        keeps the SVD's whole p x min(p, M) U alive."""
        basis = exact_dmd(rng.standard_normal((4000, 60)), rank=4, mode_style="projected").basis
        owner = basis if basis.base is None else basis.base
        assert basis.shape == (4000, 4) and owner.nbytes <= 4000 * 4 * 8

    def test_bad_mode_style(self, rng):
        with pytest.raises(ValueError, match="mode_style"):
            exact_dmd(rng.standard_normal((4, 6)), mode_style="fancy")


class TestExactDmdSplit:
    """exact_dmd pairs each snapshot with its successor: Y = data[:, :-1]
    and Yplus = data[:, 1:]."""

    def test_definition(self, rng):
        """The result is the construction from truncated_svd(Y) and Yplus."""
        data = rng.standard_normal((9, 7))
        f = truncated_svd(data[:, :-1], 4)
        propagate = data[:, 1:] @ (f.V / f.S)
        evals = np.linalg.eigvals(f.U.T @ propagate)
        result = exact_dmd(data, rank=4)
        np.testing.assert_array_equal(result.basis, propagate)
        np.testing.assert_array_equal(np.sort_complex(result.eigenvalues), np.sort_complex(evals))

    def test_minimal_two_columns(self):
        """Y = [[1]] and Yplus = [[2]]: one eigenvalue, 2, and a mode of modulus 2."""
        result = exact_dmd(np.array([[1.0, 2.0]]))
        assert result.rank == 1
        np.testing.assert_array_equal(result.eigenvalues, [2.0])
        np.testing.assert_array_equal(np.abs(result.modes), [[2.0]])

    def test_shift_index_oracle(self, rng):
        """Snapshots of x_(k+1) = A x_k, built one step at a time: the split
        recovers A's spectrum, where a reversed shift would give 1/lambda and
        a two-step one lambda^2."""
        A = rng.standard_normal((5, 5)) / 4.0
        data = np.empty((5, 7))
        data[:, 0] = rng.standard_normal(5)
        for k in range(6):
            data[:, k + 1] = A @ data[:, k]
        got = exact_dmd(data, rank=5).eigenvalues
        for lam in np.linalg.eigvals(A):
            assert np.min(np.abs(got - lam)) <= 1e-8 * max(1.0, abs(lam))


class TestVandermonde:
    def test_powers_of_two(self):
        v = vandermonde(np.array([2.0]), 3)
        np.testing.assert_array_equal(v, [[1.0, 2.0, 4.0]])

    def test_unit_circle_rotation(self):
        v = vandermonde(np.array([1j]), 4)
        np.testing.assert_allclose(v, [[1, 1j, -1, -1j]], atol=1e-15)

    def test_against_pow_oracle(self, rng):
        lam = rng.random(6) * np.exp(2j * np.pi * rng.random(6))
        v = vandermonde(lam, 50)
        for i in range(6):
            for k in range(50):
                want = lam[i] ** k
                assert abs(v[i, k] - want) <= 1e-12 * max(abs(want), 1e-300)

    def test_first_column_ones_and_recursion(self, rng):
        lam = rng.random(4) + 1j * rng.random(4)
        v = vandermonde(lam, 12)
        np.testing.assert_array_equal(v[:, 0], np.ones(4))
        for k in range(11):
            np.testing.assert_array_equal(v[:, k + 1], v[:, k] * lam)

    def test_subnormal_clamp(self):
        v = vandermonde(np.array([1e-200]), 3)
        assert v[0, 2] == 0.0  # 1e-400 underflows to exact zero

    def test_start_against_pow_oracle(self, rng):
        """Columns start..start+n-1 agree with lam ** (start + k), the seed
        included, for the offsets the fit, the loss and the forecast use."""
        lam = rng.uniform(0.2, 1.05, 6) * np.exp(2j * np.pi * rng.random(6))
        for start in (1, 16, 64, 773, 1547):
            v = vandermonde(lam, 40, start)
            want = lam[:, None] ** (start + np.arange(40.0))
            assert np.all(np.abs(v - want) <= 1e-12 * np.abs(want))

    def test_start_zero_is_the_plain_recurrence(self, rng):
        """start=0 is bit-for-bit the recurrence seeded with ones, clamped after
        each product, subnormals included."""
        lam = np.concatenate([rng.random(5) * np.exp(2j * np.pi * rng.random(5)),
                              [1e-100, 3e-155j, 0.0, 1.0, -1.0]])
        want = np.empty((lam.size, 30), dtype=complex)
        col = np.ones(lam.size, dtype=complex)
        for k in range(30):
            want[:, k] = col
            col = col * lam
            col[np.abs(col) < np.finfo(float).tiny] = 0.0
        got = vandermonde(lam, 30)
        assert got.tobytes() == want.tobytes()

    def test_subnormal_seed_clamps(self):
        """A subnormal lam^start is zero from the first column on."""
        v = vandermonde(np.array([1e-160, 0.5]), 3, start=2)
        assert np.all(v[0] == 0.0)  # 1e-320 is subnormal
        np.testing.assert_array_equal(v[1], [0.25, 0.125, 0.0625])


class TestOptimalAmplitudes:
    def test_forward_construct_then_invert(self, rng):
        p, r, M = 9, 3, 15
        modes = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        lam = np.exp(2j * np.pi * np.array([0.11, 0.29, 0.43]))
        vand = vandermonde(lam, M)
        b0 = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        Y = modes @ np.diag(b0) @ vand
        b = optimal_amplitudes(quadratic_form(Y, modes, np.eye(modes.shape[1]), lam))
        assert np.max(np.abs(b - b0)) <= 1e-8

    def test_zero_data(self, rng):
        modes = rng.standard_normal((4, 2)) + 0j
        b = optimal_amplitudes(quadratic_form(np.zeros((4, 6)), modes, np.eye(modes.shape[1]),
                                              np.array([0.9, 0.8])))
        assert np.max(np.abs(b)) <= 1e-12

    def test_scalar_least_squares(self):
        modes = np.array([[1.0], [0.0]], dtype=complex)
        Y = np.array([[2.0, 2.0], [0.0, 0.0]])
        b = optimal_amplitudes(quadratic_form(Y, modes, np.eye(modes.shape[1]), np.array([1.0])))
        np.testing.assert_allclose(b, [2.0], atol=1e-12)

    def test_reconstruction_identity_on_exact_rank_data(self):
        X, _ = planted_matrix(10, 40, [0.97 * np.exp(0.5j), 0.92], [1.0, 0.8], seed=7)
        Y = X.data[:, :-1]
        result = exact_dmd(X.data, rank=3)
        vand = vandermonde(result.eigenvalues, Y.shape[1])
        b = optimal_amplitudes(quadratic_form(Y, result.basis, result.coefficients,
                                              result.eigenvalues))
        recon = result.modes @ np.diag(b) @ vand
        rel = np.linalg.norm(Y - recon, "fro") / np.linalg.norm(Y, "fro")
        assert rel <= 1e-8


def duplicated_mode_form(rng):
    """Five columns, the fifth a copy of the second's mode and eigenvalue,
    so P is singular."""
    modes = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    lam = 0.95 * np.exp(2j * np.pi * rng.random(4))
    modes, lam = np.column_stack([modes, modes[:, 1]]), np.append(lam, lam[1])
    return quadratic_form(rng.standard_normal((8, 20)), modes, np.eye(modes.shape[1]), lam)


def weak_mode_form(rng, weak=5e-8):
    """Four unit-norm modes but the last, which has norm `weak`, lives on rows
    no other mode touches and meets data as weak as itself there. P is then
    block diagonal with cond(P) ~ 1/weak^2, above NORMAL_COND_LIMIT but below
    the eigenvalue cutoff, and every amplitude is O(1)."""
    modes = np.zeros((8, 4), dtype=complex)
    modes[:6, :3] = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    modes[6:, 3] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    modes /= np.linalg.norm(modes, axis=0) / np.array([1.0, 1.0, 1.0, weak])
    lam = 0.95 * np.exp(2j * np.pi * rng.random(4))
    Y = rng.standard_normal((8, 20))
    Y[6:] *= weak
    return quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)


class TestNearSingularAmplitudes:
    """The form records a near-singular solve in near_singular and warns of
    nothing: the command decides what to say."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [duplicated_mode_form, weak_mode_form])
    def test_minimum_norm_solution_warns_and_matches_lstsq(self, rng, build):
        for _ in range(5):
            form = build(rng)
            assert form.near_singular is True
            lam = np.linalg.eigvalsh(form.P)
            assert lam[-1] > 1e14 * lam[0]
            want = np.linalg.lstsq(form.P, form.q, rcond=None)[0]
            b = optimal_amplitudes(form)
            assert np.linalg.norm(b - want) <= 1e-12 * np.linalg.norm(want)
            z = admm_solve(form, 0.0).z  # coordinates, the amplitudes on a complex form
            np.testing.assert_array_equal(form.from_basis(z), b)

    def test_distinct_modes_are_not_flagged(self, rng):
        modes = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        lam = 0.95 * np.exp(2j * np.pi * rng.random(4))
        form = quadratic_form(rng.standard_normal((8, 20)), modes, np.eye(4), lam)
        assert form.near_singular is False

    @pytest.mark.filterwarnings("error")
    def test_duplicated_mode_shares_its_amplitude(self, rng):
        form = duplicated_mode_form(rng)
        assert form.near_singular is True
        b = optimal_amplitudes(form)
        assert abs(b[1] - b[4]) <= 1e-12 * abs(b[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [duplicated_mode_form, weak_mode_form])
    def test_form_warns_once_when_built(self, rng, build):
        """The form solves P y = q once, when it is built, and records there
        that the solve is near-singular; the amplitudes and the gamma = 0
        solve read its optimum, bitwise."""
        form = build(rng)
        assert form.near_singular is True
        b = optimal_amplitudes(form)
        z = admm_solve(form, 0.0).z
        np.testing.assert_array_equal(b, form.from_basis(form.optimum))
        np.testing.assert_array_equal(z, form.optimum)
        assert z is not form.optimum  # the solve's state is its own


class TestRealSpectrum:
    @pytest.mark.parametrize("mode_style", MODE_STYLES)
    @pytest.mark.parametrize("r", [3, 4])
    def test_modes_equal_the_complex_product(self, rng, r, mode_style):
        """Real eigenvectors (an all-real spectrum) at odd and even rank give the
        modes of the complex product basis @ W, each unit column of W signed
        so that its largest-magnitude entry is positive."""
        data = real_exponentials(rng, 10, [0.95, 0.8, -0.6, 0.4][:r], 20)
        f = truncated_svd(data[:, :-1], r)
        propagate = data[:, 1:] @ (f.V / f.S)
        evals, W = np.linalg.eig(f.U.T @ propagate)
        assert W.dtype == np.float64
        W = W / np.linalg.norm(W, axis=0)
        W = W * np.sign(W[np.abs(W).argmax(axis=0), np.arange(r)])
        basis = propagate if mode_style == "exact" else f.U
        want = basis.astype(complex) @ W
        want = want[:, np.argsort(-np.abs(evals), kind="stable")]
        got = exact_dmd(data, rank=r, mode_style=mode_style).modes
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestEigenDecomposition:
    @pytest.mark.filterwarnings("error")  # cond(W) is the caller's to judge
    def test_defective_operator_gives_a_near_defective_basis(self):
        """A Jordan block has one eigenvector: eig returns two nearly parallel
        ones, which the result's coefficients hold."""
        result = eigen_decomposition(np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2), "test")
        assert np.linalg.cond(result.coefficients) > 1e12
        assert result.method == "test" and result.amplitudes is None

    def test_columns_sorted_by_eigenvalue_magnitude_ties_in_eig_order(self):
        """Eigenvalues 0.5, -2, 2 and 1: |lambda| descending, the tie -2, 2 in eig's order."""
        result = eigen_decomposition(np.diag([0.5, -2.0, 2.0, 1.0]), np.eye(4), "test")
        np.testing.assert_array_equal(result.eigenvalues, [-2.0, 2.0, 1.0, 0.5])
        np.testing.assert_array_equal(result.coefficients, np.eye(4)[:, [1, 2, 3, 0]])


class TestCanonicalPhase:
    @pytest.mark.parametrize("decompose", [exact_dmd, companion_dmd], ids=["dmd", "cdmd"])
    def test_eigenvector_phase_is_taken_from_the_vector(self, rng, monkeypatch, decompose):
        """An eigenvector is fixed only up to a unit-modulus factor. Whatever
        factors D eig returns, as long as conjugate partners stay conjugate
        (a real eigenvector's factor is then +-1), the decomposition holds the
        same columns: each rotated so its largest-magnitude entry is positive."""
        eig = np.linalg.eig

        def eig_times_d(A):
            evals, W = eig(A)
            index, partner = np.arange(evals.size), conjugate_pairs(evals)
            d = np.exp(2j * np.pi * rng.random(evals.size))
            d[partner == index] = rng.choice([-1.0, 1.0], np.count_nonzero(partner == index))
            d[partner < index] = d[partner[partner < index]].conj()
            return evals, W * d

        for _ in range(5):
            data = rng.standard_normal((12, 9))
            want = decompose(data)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eig", eig_times_d)
                got = decompose(data)
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=0, atol=1e-14)
            partner = conjugate_pairs(got.eigenvalues)
            assert np.any(partner != np.arange(partner.size))
            np.testing.assert_array_equal(got.coefficients[:, partner], got.coefficients.conj())
            top = np.abs(got.coefficients).argmax(axis=0)
            assert np.all(got.coefficients[top, np.arange(got.rank)].real > 0)


class TestWithAmplitudes:
    def test_invariant_under_column_permutation(self, rng):
        """Sorting by |b| descending, ties by original index, leaves nothing to
        the incoming column order; the loop plants ties in |b| on purpose."""
        for _ in range(200):
            r = int(rng.integers(1, 9))
            mags = rng.choice([0.0, 0.5, 1.0, 2.0], size=r)
            base = DecompositionResult(
                eigenvalues=rng.standard_normal(r) + 1j * rng.standard_normal(r),
                basis=rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r)),
                coefficients=np.eye(r),
                amplitudes=None,
                method="exact-dmd",
                original_indices=rng.permutation(r),
            )
            b = mags * np.exp(2j * np.pi * rng.random(r))
            want = base.with_amplitudes(b)
            perm = rng.permutation(r)
            shuffled = replace(base, eigenvalues=base.eigenvalues[perm],
                               coefficients=base.coefficients[:, perm],
                               original_indices=base.original_indices[perm])
            got = shuffled.with_amplitudes(b[perm])
            for name in ("eigenvalues", "modes", "amplitudes", "original_indices"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert np.all(np.diff(np.abs(got.amplitudes)) <= 0)

    def test_conjugate_pair_order_ignores_roundoff(self, rng):
        """The two members of a conjugate pair have equal |b| up to roundoff;
        perturbing each member by 1e-9 relative must not reorder the columns."""
        for _ in range(50):
            n_pairs, n_real = int(rng.integers(1, 7)), int(rng.integers(0, 3))
            lam = rng.uniform(0.5, 1.0, n_pairs) * np.exp(1j * rng.uniform(0.1, 3.0, n_pairs))
            evals = np.concatenate([np.column_stack([lam, lam.conj()]).ravel(),
                                    rng.uniform(-1.0, 1.0, n_real)])
            amps = np.exp(rng.uniform(-3, 3, n_pairs)) * np.exp(2j * np.pi * rng.random(n_pairs))
            b = np.concatenate([np.column_stack([amps, amps.conj()]).ravel(),
                                rng.uniform(0.1, 10.0, n_real)])
            r = evals.size
            perm = rng.permutation(r)
            base = DecompositionResult(eigenvalues=evals[perm], basis=np.eye(r),
                                       coefficients=np.eye(r),
                                       amplitudes=None, method="exact-dmd")
            want = base.with_amplitudes(b[perm]).original_indices
            for _ in range(4):
                wobble = 1.0 + 1e-9 * rng.choice([-1.0, 1.0], size=r)
                got = base.with_amplitudes((b * wobble)[perm]).original_indices
                np.testing.assert_array_equal(got, want)


class TestModeStats:
    def test_stationary_mode(self):
        stats = mode_stats(1.0)
        assert stats.magnitude == 1.0
        assert np.isinf(stats.e_folding) and np.isinf(stats.period)

    def test_quarter_period_rotation(self):
        stats = mode_stats(-1j)
        assert abs(stats.magnitude - 1.0) <= 1e-12
        assert abs(abs(stats.period) - 4.0) <= 1e-12
        assert stats.period < 0  # clockwise rotation carries the sign

    def test_real_decaying_eigenvalue(self):
        stats = mode_stats(np.exp(-0.1))
        assert abs(stats.e_folding - 10.0) <= 1e-12
        assert np.isinf(stats.period)

    def test_zero_eigenvalue(self):
        # the limits as lam -> 0: no magnitude, an instant e-folding, no period
        assert mode_stats(0.0) == (0.0, 0.0, np.inf)


def test_planted_spectrum_recovery_property(rng):
    lams = [0.95 * np.exp(0.3j), 0.9 * np.exp(0.9j), 0.85]
    X, full = planted_matrix(16, 80, lams, [2.0, 1.0, 0.5], seed=11)
    result = exact_dmd(X.data, rank=5)
    for lam in full:
        assert np.min(np.abs(result.eigenvalues - lam)) <= 1e-8


def test_rank_is_derived_from_the_eigenvalues(rng):
    """rank is the number of eigenvalues, kept in step by every column move,
    and no constructor takes it."""
    result = exact_dmd(rng.standard_normal((6, 12)), rank=4)
    assert result.rank == result.eigenvalues.shape[0] == 4
    kept = replace(result, eigenvalues=result.eigenvalues[:2],
                   coefficients=result.coefficients[:, :2], original_indices=None)
    assert kept.rank == 2 and kept.original_indices.tolist() == [0, 1]
    with pytest.raises(TypeError):
        DecompositionResult(result.eigenvalues, result.basis, result.coefficients, None,
                            rank=4, method="exact-dmd")
    with pytest.raises(ValueError, match="inconsistent"):
        replace(result, eigenvalues=result.eigenvalues[:3])


def _two_mode_result() -> DecompositionResult:
    return DecompositionResult(np.array([0.5, 0.25 + 0j]), np.eye(2), np.eye(2), None, "test")


@pytest.mark.parametrize("call, match", [
    (lambda: replace(_two_mode_result(), amplitudes=np.ones(3, complex)),
     "amplitudes length inconsistent with rank"),
    (lambda: _two_mode_result().with_amplitudes(np.ones(3)), "amplitude vector length mismatch"),
    (lambda: truncated_svd(np.zeros((0, 3))), "empty matrix"),
    (lambda: truncated_svd(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), rank=2),
     "rank 2 exceeds the numerical rank 1"),
    (lambda: truncated_svd(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), rank=2),
     "rank 2 exceeds the numerical rank 1"),
], ids=["amplitudes", "with-amplitudes", "empty", "zero-sigma-tall", "zero-sigma-wide"])
def test_invalid_argument_names_its_fault(call, match):
    with pytest.raises(ValueError, match=match):
        call()
