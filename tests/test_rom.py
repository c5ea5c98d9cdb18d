from __future__ import annotations

import numpy as np
import pytest

from koopmode import (
    DecompositionResult,
    build_pairs,
    exact_dmd,
    forecast,
    mode_stats,
    optimal_amplitudes,
    quadratic_form,
    reconstruct,
    spatial_grids,
    temporal_dynamics,
    vandermonde,
)
from conftest import planted_matrix


def decomposition(lams, modes, amps) -> DecompositionResult:
    """A fitted decomposition with the given columns, in the given order."""
    modes = np.asarray(modes, dtype=complex).reshape(len(lams), -1).T
    return DecompositionResult(eigenvalues=np.asarray(lams, dtype=complex), modes=modes,
                               amplitudes=np.asarray(amps, dtype=complex),
                               rank=len(lams), method="test")


def single_mode_model(lam, mode, amp) -> DecompositionResult:
    return decomposition([lam], [mode], [amp])


def pair_model(lam, mode, amp) -> DecompositionResult:
    return decomposition([lam, np.conj(lam)], [mode, np.conj(mode)], [amp, np.conj(amp)])


def fitted_model(X) -> DecompositionResult:
    pair = build_pairs(X)
    result = exact_dmd(pair)
    form = quadratic_form(pair.Y, result.modes, vandermonde(result.eigenvalues, pair.Y.shape[1]))
    return result.with_amplitudes(optimal_amplitudes(form))


class TestReconstruct:
    def test_k_zero_is_mode_amplitude_sum(self, rng):
        X, _ = planted_matrix(8, 30, [0.95 * np.exp(0.4j)], [1.5], seed=2)
        model = fitted_model(X)
        got = reconstruct(model, 0)
        want = np.real(sum(model.modes[:, j] * model.amplitudes[j] for j in range(model.rank)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_stationary_single_tuple(self, rng):
        v = rng.standard_normal(6)
        model = single_mode_model(1.0, v, 1.0)
        for k in (0, 3, 17):
            np.testing.assert_allclose(reconstruct(model, k), v, atol=1e-12)

    def test_exact_rank3_training_match(self):
        X, _ = planted_matrix(10, 25, [0.97 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        model = fitted_model(X)
        pair = build_pairs(X)
        for k in range(pair.Y.shape[1]):
            col = pair.Y[:, k]
            err = np.linalg.norm(reconstruct(model, k) - col) / np.linalg.norm(col)
            assert err <= 1e-8

    def test_imag_residual_small_for_conjugate_complete(self, rng):
        lam = 0.9 * np.exp(0.8j)
        w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        model = pair_model(lam, w, 1.3 + 0.2j)
        _, resid = reconstruct(model, 5, return_residual=True)
        assert resid <= 1e-6

    def test_negative_index(self, rng):
        one = single_mode_model(1.0, rng.standard_normal(3), 1.0)
        with pytest.raises(ValueError):
            reconstruct(one, -1)

    def test_needs_amplitudes_and_modes(self, rng):
        one = single_mode_model(1.0, rng.standard_normal(3), 1.0)
        unfitted = DecompositionResult(one.eigenvalues, one.modes, None, 1, "test")
        with pytest.raises(ValueError, match="amplitudes"):
            reconstruct(unfitted, 0)
        empty = DecompositionResult(np.zeros(0, complex), np.zeros((3, 0), complex),
                                    np.zeros(0, complex), 0, "test")
        with pytest.raises(ValueError, match="no modes"):
            forecast(empty, 2, 0)

    @pytest.mark.filterwarnings("ignore:reconstruction imaginary residual")
    def test_matches_vandermonde_product_on_random_models(self):
        # Re(Phi diag(b) lambda^k) for models without conjugate symmetry
        rng = np.random.default_rng(11)
        for _ in range(30):
            p, r = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            lams = rng.uniform(0.5, 1.05, r) * np.exp(1j * rng.uniform(-np.pi, np.pi, r))
            modes = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
            amps = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            model = DecompositionResult(lams, modes, amps, r, "test")
            for k in rng.integers(0, 80, 4).tolist():
                want = np.real(modes @ np.diag(amps) @ lams ** k)
                scale = np.abs(modes) @ np.abs(amps * lams ** k)
                np.testing.assert_allclose(reconstruct(model, k), want, rtol=0,
                                           atol=1e-13 * scale.max())

    def test_matches_per_mode_sum_oracle(self):
        # the loop over (eigenvalue, mode, amplitude) tuples that the single
        # matrix product replaced, within a tolerance for summation order
        X, _ = planted_matrix(10, 25, [0.97 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        fitted = fitted_model(X)
        fc = forecast(fitted, 61, 0)
        for k in (0, 7, 24, 60):
            want = np.zeros(10, dtype=complex)
            for j in range(fitted.rank):
                want += fitted.modes[:, j] * (fitted.eigenvalues[j] ** k * fitted.amplitudes[j])
            tol = 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(reconstruct(fitted, k) - want.real) <= tol
            assert np.linalg.norm(fc[:, k] - want.real) <= tol


class TestTemporalDynamics:
    def test_constant_row(self):
        model = single_mode_model(1.0, np.ones(2), 5.0)
        row = temporal_dynamics(model, range(4))
        np.testing.assert_allclose(row, [[5.0, 5.0, 5.0, 5.0]], atol=1e-12)

    def test_quarter_rotation(self):
        model = single_mode_model(1j, np.ones(2), 1.0)
        row = temporal_dynamics(model, range(4))
        np.testing.assert_allclose(row, [[1.0, 0.0, -1.0, 0.0]], atol=1e-12)

    def test_damped_pair_cosine_oracle(self, rng):
        lam = 0.9 * np.exp(1j * np.pi / 4)
        b = 1.4 * np.exp(0.3j)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        model = pair_model(lam, w, b)
        ts = np.arange(20)
        rows = temporal_dynamics(model, ts, collapse_pairs=True)
        assert rows.shape == (1, 20)
        want = abs(b) * 0.9 ** ts * np.cos(np.pi * ts / 4 + np.angle(b))
        np.testing.assert_allclose(rows[0], want, atol=1e-10)

    def test_pair_collapse_halves_rows(self, rng):
        lam = 0.9 * np.exp(1j * np.pi / 4)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        model = pair_model(lam, w, 1.0 + 0.5j)
        assert temporal_dynamics(model, range(5)).shape == (2, 5)
        assert temporal_dynamics(model, range(5), collapse_pairs=True).shape == (1, 5)

    def test_empty_range(self, rng):
        model = single_mode_model(1.0, rng.standard_normal(2), 1.0)
        with pytest.raises(ValueError):
            temporal_dynamics(model, [])


class TestForecast:
    def test_stationary_forecast_constant(self, rng):
        v = rng.standard_normal(4)
        model = single_mode_model(1.0, v, 2.0)
        fc = forecast(model, 5, 10)
        for step in range(5):
            np.testing.assert_allclose(fc[:, step], 2.0 * v, atol=1e-12)

    def test_geometric_decay(self, rng):
        v = rng.standard_normal(4)
        model = single_mode_model(0.5, v, 1.0)
        fc = forecast(model, 50, 0)
        norms = np.linalg.norm(fc, axis=0)
        ratios = norms[1:] / norms[:-1]
        assert np.max(np.abs(ratios - 0.5)) <= 1e-10

    def test_holdout_simulation_oracle(self):
        X, _ = planted_matrix(8, 60, [0.99 * np.exp(0.3j)], [1.0], seed=9)
        train = X.data[:, :50]
        from koopmode import SnapshotMatrix
        model = fitted_model(SnapshotMatrix(train))
        fc = forecast(model, 10, 50)
        held_out = X.data[:, 50:60]
        for step in range(10):
            err = (np.linalg.norm(fc[:, step] - held_out[:, step])
                   / np.linalg.norm(held_out[:, step]))
            assert err <= 1e-6

    def test_growing_mode_saturates_with_warning(self, rng):
        model = single_mode_model(4.0, rng.standard_normal(3), 1.0)
        with pytest.warns(UserWarning, match="overflow"):
            fc = forecast(model, 3, 600)
        assert np.all(np.isfinite(fc))

    def test_invalid_horizon(self, rng):
        model = single_mode_model(1.0, rng.standard_normal(2), 1.0)
        with pytest.raises(ValueError):
            forecast(model, 0, 5)


class TestModeMagnitudeGrid:
    def test_full_grid_no_stacking(self, rng):
        mode = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        grids = spatial_grids(np.abs(mode), (10, 60))
        assert grids.shape == (1, 10, 60)
        np.testing.assert_allclose(grids[0].reshape(-1), np.abs(mode))

    def test_uniform_mode(self):
        grids = spatial_grids(np.ones(6), (2, 3))
        np.testing.assert_array_equal(grids, np.ones((1, 2, 3)))

    def test_masked_index_bookkeeping_oracle(self, rng):
        mask = np.array([True, False, True, True, False, True])
        mode = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        flat = spatial_grids(np.abs(mode), (2, 3), mask=mask).reshape(-1)
        # oracle: walk the full grid in row-major order, consuming mode entries
        pos = 0
        for i in range(6):
            if mask[i]:
                assert flat[i] == np.abs(mode)[pos]
                pos += 1
            else:
                assert np.isnan(flat[i])

    def test_cycle_stacked_slots_and_mean(self, rng):
        mode = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        mask = np.array([True, True, False, True, True, True])
        grids = spatial_grids(np.abs(mode[:10]), (2, 3), mask=mask, cycles=2)
        assert grids.shape == (2, 2, 3)
        np.testing.assert_allclose(grids[1].reshape(-1)[mask], np.abs(mode[5:10]))
        assert np.isnan(grids[:, 0, 2]).all()
        grids = spatial_grids(np.abs(mode), (2, 3), cycles=2)
        np.testing.assert_allclose(grids[1].reshape(-1), np.abs(mode[6:]))
        np.testing.assert_allclose(grids.mean(axis=0).reshape(-1),
                                   (np.abs(mode[:6]) + np.abs(mode[6:])) / 2)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="mode length"):
            spatial_grids(np.ones(5), (2, 3))
        with pytest.raises(ValueError, match="mask length"):
            spatial_grids(np.ones(5), (2, 3), mask=np.ones(5, dtype=bool))


class TestModelInvariants:
    def test_stats_consistency(self, tmp_path):
        # the statistics the CLI writes per mode are mode_stats of its eigenvalue
        from koopmode import save_matrix
        from koopmode.cli import main
        X, _ = planted_matrix(8, 30, [0.95 * np.exp(0.4j), 0.9], [1.0, 0.5], seed=4)
        save_matrix(X, tmp_path / "x.csv")
        assert main(["decompose", str(tmp_path / "x.csv"), "--out", str(tmp_path / "art")]) == 0
        rows = np.loadtxt(tmp_path / "art" / "eigenvalues.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        assert rows.shape[0] == fitted_model(X).rank
        for row in rows:
            assert tuple(row[3:6]) == tuple(mode_stats(complex(row[1], row[2])))

    def test_sorted_by_amplitude(self):
        X, _ = planted_matrix(8, 30, [0.95 * np.exp(0.4j), 0.9], [1.0, 0.5], seed=4)
        mags = np.abs(fitted_model(X).amplitudes)
        assert all(m1 >= m2 for m1, m2 in zip(mags, mags[1:]))

    def test_top_subset_minimizes_k0_error_for_orthogonal_modes(self, rng):
        # orthogonal spatial directions: truncating to the largest amplitudes
        # is the best size-m choice at k = 0
        from itertools import combinations
        p, r = 8, 4
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        amps = np.array([5.0, 3.0, 2.0, 0.5])  # already amplitude-sorted
        full = decomposition([0.9] * r, Q[:, :r].T, amps)
        target = reconstruct(full, 0)

        def sub_error(idx):
            idx = list(idx)
            sub = decomposition(full.eigenvalues[idx], full.modes[:, idx].T,
                                full.amplitudes[idx])
            return np.linalg.norm(reconstruct(sub, 0) - target)

        for m in (1, 2, 3):
            best = sub_error(range(m))
            for idx in combinations(range(r), m):
                assert best <= sub_error(idx) + 1e-10
