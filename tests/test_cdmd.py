from __future__ import annotations

import numpy as np
import pytest

from koopmode import (
    companion_dmd,
    exact_dmd,
    fit_companion,
    optimal_amplitudes,
    quadratic_form,
    unit_circle_deviation,
)
from koopmode.cdmd import companion_matrix
from conftest import allocation_peak, planted_matrix, real_exponentials


def periodic_matrix(period: int, n_steps: int, p: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((period, p))
    return np.column_stack([vs[k % period] for k in range(n_steps)])


class TestFitCompanion:
    def test_period_four_roots_of_unity(self):
        X = periodic_matrix(4, 9, 6)
        with pytest.warns(UserWarning, match="rank-deficient"):
            c = fit_companion(X)
        assert c.shape == (8,)
        eigenvalues = np.linalg.eigvals(companion_matrix(c))
        roots = np.exp(2j * np.pi * np.arange(4) / 4)
        for r in roots:
            assert np.min(np.abs(eigenvalues - r)) <= 1e-8

    def test_characteristic_polynomial_oracle(self):
        X = periodic_matrix(4, 9, 6, seed=3)
        with pytest.warns(UserWarning):
            c = fit_companion(X)
        # char poly of the companion form: z^{M} - sum_j c_j z^j
        coeffs = np.concatenate([[1.0], -c[::-1]])
        oracle = np.roots(coeffs)
        for lam in np.linalg.eigvals(companion_matrix(c)):
            assert np.min(np.abs(oracle - lam)) <= 1e-8

    def test_geometric_sequence_in_krylov_span(self, rng):
        v = rng.standard_normal(5)
        data = np.column_stack([0.5 ** k * v for k in range(8)])
        with pytest.warns(UserWarning):
            c = fit_companion(data)
        assert np.linalg.norm(data[:, :-1] @ c - data[:, -1]) <= 1e-10
        assert np.min(np.abs(np.linalg.eigvals(companion_matrix(c)) - 0.5)) <= 1e-8

    def test_constant_sequence_has_unit_eigenvalue(self, rng):
        v = rng.standard_normal(4) + 3.0
        data = np.column_stack([v] * 6)
        with pytest.warns(UserWarning):
            c = fit_companion(data)
        assert np.min(np.abs(np.linalg.eigvals(companion_matrix(c)) - 1.0)) <= 1e-8

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError, match="N >= 3"):
            fit_companion(np.ones((2, 2)))


class TestCompanionDmd:
    def test_eigenvalue_count_is_companion_dimension(self, rng):
        data = rng.standard_normal((7, 12))
        result = companion_dmd(data)
        assert result.rank == 11
        assert result.method == "cdmd"
        assert result.amplitudes is None  # fitted by the caller, as for exact_dmd

    def test_krylov_exactness_one_step_prediction(self):
        X = periodic_matrix(4, 9, 6, seed=5)
        with pytest.warns(UserWarning):
            C = companion_matrix(fit_companion(X))
        K = X[:, :-1]
        shifted = X[:, 1:]
        rel = np.linalg.norm(shifted - K @ C, "fro") / np.linalg.norm(shifted, "fro")
        assert rel <= 1e-8

    def test_sorted_by_amplitude(self, rng):
        X = rng.standard_normal((6, 10))
        result = companion_dmd(X)
        K = X[:, :-1]
        form = quadratic_form(K, result.basis, result.coefficients, result.eigenvalues)
        mags = np.abs(result.with_amplitudes(optimal_amplitudes(form)).amplitudes)
        assert np.all(np.diff(mags) <= 1e-12)

    @pytest.mark.parametrize("r", [3, 4])
    def test_real_spectrum_modes_equal_the_complex_product(self, rng, r):
        """Real companion eigenvectors at odd and even order give the modes of
        the complex product K @ T, each unit column of T signed so that its
        largest-magnitude entry is positive, sorted by |eigenvalue| descending."""
        X = real_exponentials(rng, 10, [0.95, 0.8, -0.6, 0.4][:r], r + 1)
        evals, T = np.linalg.eig(companion_matrix(fit_companion(X)))
        assert T.dtype == np.float64
        T = T * np.sign(T[np.abs(T).argmax(axis=0), np.arange(r)])
        want = X[:, :-1].astype(complex) @ T[:, np.argsort(-np.abs(evals), kind="stable")]
        got = companion_dmd(X).modes
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_modes_need_no_complex_copy_of_the_data(self, rng):
        X = rng.standard_normal((900, 300))
        result, peak = allocation_peak(companion_dmd, X)
        assert peak < 2 * result.modes.nbytes


class TestUnitCircleDeviation:
    def test_unit_circle_values(self):
        np.testing.assert_allclose(
            unit_circle_deviation(np.array([1.0, 1j, -1.0])), [0.0, 0.0, 0.0],
            atol=1e-15)

    def test_interior_value(self):
        np.testing.assert_allclose(unit_circle_deviation(np.array([0.5])), [0.5])

    def test_cdmd_closer_to_unit_circle_than_dmd(self):
        # damped oscillatory data plus a trace of noise so the Krylov fit is
        # full rank; CDMD spectra hug the unit circle, DMD stays inside
        X, _ = planted_matrix(
            20, 30,
            [0.85 * np.exp(0.7j), 0.8 * np.exp(1.9j), 0.75 * np.exp(2.6j)],
            [1.0, 0.8, 0.6], seed=21)
        rng = np.random.default_rng(99)
        noisy = X.data + 1e-8 * rng.standard_normal(X.data.shape)
        dmd_result = exact_dmd(noisy, rank=6)
        cdmd_result = companion_dmd(noisy)
        dev_dmd = unit_circle_deviation(dmd_result.eigenvalues).mean()
        dev_cdmd = unit_circle_deviation(cdmd_result.eigenvalues).mean()
        assert dev_cdmd <= dev_dmd
