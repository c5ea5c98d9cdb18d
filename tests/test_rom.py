from __future__ import annotations

import numpy as np
import pytest

from koopmode import (
    DecompositionResult,
    SnapshotMatrix,
    conjugate_pairs,
    conjugate_representatives,
    exact_dmd,
    mode_stats,
    optimal_amplitudes,
    quadratic_form,
    reconstruct,
    temporal_dynamics,
    vandermonde,
)
from conftest import planted_matrix


def decomposition(lams, modes, amps) -> DecompositionResult:
    """A fitted decomposition with the given columns, in the given order."""
    modes = np.asarray(modes, dtype=complex).reshape(len(lams), -1).T
    return DecompositionResult(eigenvalues=np.asarray(lams, dtype=complex), basis=modes,
                               coefficients=np.eye(len(lams)),
                               amplitudes=np.asarray(amps, dtype=complex), method="test")


def single_mode_model(lam, mode, amp) -> DecompositionResult:
    return decomposition([lam], [mode], [amp])


def pair_model(lam, mode, amp) -> DecompositionResult:
    return decomposition([lam, np.conj(lam)], [mode, np.conj(mode)], [amp, np.conj(amp)])


def fitted_model(X) -> DecompositionResult:
    result = exact_dmd(X.data)
    form = quadratic_form(X.data[:, :-1], result.basis, result.coefficients, result.eigenvalues)
    return result.with_amplitudes(optimal_amplitudes(form))


class TestReconstruct:
    def test_k_zero_is_mode_amplitude_sum(self, rng):
        X, _ = planted_matrix(8, 30, [0.95 * np.exp(0.4j)], [1.5], seed=2)
        model = fitted_model(X)
        got = reconstruct(model, 0, 1)[0][:, 0]
        want = np.real(sum(model.modes[:, j] * model.amplitudes[j] for j in range(model.rank)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_stationary_single_tuple(self, rng):
        v = rng.standard_normal(6)
        model = single_mode_model(1.0, v, 1.0)
        for k in (0, 3, 17):
            np.testing.assert_allclose(reconstruct(model, k, 1)[0][:, 0], v, atol=1e-12)

    def test_exact_rank3_training_match(self):
        X, _ = planted_matrix(10, 25, [0.97 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        model = fitted_model(X)
        for k in range(X.n_steps - 1):
            col = X.data[:, k]
            err = np.linalg.norm(reconstruct(model, k, 1)[0][:, 0] - col) / np.linalg.norm(col)
            assert err <= 1e-8

    def test_imag_residual_small_for_conjugate_complete(self, rng):
        lam = 0.9 * np.exp(0.8j)
        w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        model = pair_model(lam, w, 1.3 + 0.2j)
        _, (resid,) = reconstruct(model, 5, 1)
        assert resid <= 1e-6

    def test_negative_index(self, rng):
        one = single_mode_model(1.0, rng.standard_normal(3), 1.0)
        with pytest.raises(ValueError):
            reconstruct(one, -1, 1)

    def test_needs_amplitudes_and_modes(self, rng):
        one = single_mode_model(1.0, rng.standard_normal(3), 1.0)
        unfitted = DecompositionResult(one.eigenvalues, one.basis, one.coefficients, None, "test")
        with pytest.raises(ValueError, match="amplitudes"):
            reconstruct(unfitted, 0, 1)
        empty = DecompositionResult(np.zeros(0, complex), np.zeros((3, 0)), np.zeros((0, 0)),
                                    np.zeros(0, complex), "test")
        with pytest.raises(ValueError, match="no modes"):
            reconstruct(empty, 0, 2)

    def test_matches_vandermonde_product_on_random_models(self):
        # Re(Phi diag(b) lambda^k) for models without conjugate symmetry
        rng = np.random.default_rng(11)
        for _ in range(30):
            p, r = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            lams = rng.uniform(0.5, 1.05, r) * np.exp(1j * rng.uniform(-np.pi, np.pi, r))
            modes = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
            amps = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            model = DecompositionResult(lams, modes, np.eye(r), amps, "test")
            for k in rng.integers(0, 80, 4).tolist():
                want = np.real(modes @ np.diag(amps) @ lams ** k)
                scale = np.abs(modes) @ np.abs(amps * lams ** k)
                np.testing.assert_allclose(reconstruct(model, k, 1)[0][:, 0], want, rtol=0,
                                           atol=1e-13 * scale.max())

    def test_matches_per_mode_sum_oracle(self):
        # the loop over (eigenvalue, mode, amplitude) tuples that the single
        # matrix product replaced, within a tolerance for summation order
        X, _ = planted_matrix(10, 25, [0.97 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        fitted = fitted_model(X)
        fc = reconstruct(fitted, 0, 61)[0]
        for k in (0, 7, 24, 60):
            want = np.zeros(10, dtype=complex)
            for j in range(fitted.rank):
                want += fitted.modes[:, j] * (fitted.eigenvalues[j] ** k * fitted.amplitudes[j])
            tol = 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(reconstruct(fitted, k, 1)[0][:, 0] - want.real) <= tol
            assert np.linalg.norm(fc[:, k] - want.real) <= tol

    def test_window_columns_match_single_steps(self):
        # each step of a window is the single-step call's snapshot, to roundoff:
        # the window powers come by recurrence, a single step's from pow
        X, _ = planted_matrix(10, 25, [1.02 * np.exp(0.5j), 0.9], [2.0, 1.0], seed=3)
        fitted = fitted_model(X)
        window, residuals = reconstruct(fitted, 7, 40)
        assert window.shape == (10, 40) and residuals.shape == (40,)
        for j in range(40):
            single, (resid,) = reconstruct(fitted, 7 + j, 1)
            np.testing.assert_allclose(window[:, j], single[:, 0], rtol=0,
                                       atol=1e-12 * np.linalg.norm(single))
            assert abs(residuals[j] - resid) <= 1e-12

    @pytest.mark.filterwarnings("error")  # the residual is returned, not warned of
    def test_worst_residual_is_returned_for_its_step(self):
        # without its conjugate partner, Re(i^k v) vanishes at odd k
        model = single_mode_model(1j, np.ones(3), 1.0)
        _, residuals = reconstruct(model, 0, 4)
        assert np.argmax(residuals) == 1 and residuals[1] > 1e300
        assert residuals[0] == residuals[2] == 0


def conjugate_representatives_loop(eigenvalues: np.ndarray) -> list[int]:
    """The pairwise loop conjugate_pairs replaced, kept as its oracle: one index
    per conjugate pair (its nonnegative-imaginary member) or unpaired mode."""
    tol = 1e-8
    keep: list[int] = []
    used = [False] * eigenvalues.size
    for i, lam in enumerate(eigenvalues):
        if used[i]:
            continue
        partner = None
        scale = max(abs(lam), 1.0)
        for j in range(i + 1, eigenvalues.size):
            if used[j]:
                continue
            if (abs(eigenvalues[j] - np.conj(lam)) <= tol * scale
                    and abs(lam.imag) > tol * scale):
                partner = j
                break
        if partner is not None:
            used[partner] = True
            keep.append(i if lam.imag >= 0 else partner)
        else:
            keep.append(i)
        used[i] = True
    return keep


def mixed_spectrum(rng) -> np.ndarray:
    """Eigenvalues of a random real matrix (exact conjugate pairs and real
    values), some partners nudged by 1e-12 relative, some unpaired complex
    values, in random order."""
    lam = np.linalg.eigvals(rng.standard_normal((int(rng.integers(1, 13)),) * 2)).astype(complex)
    nudge = rng.random(lam.size) < 0.3
    lam[nudge] *= 1.0 + 1e-12 * rng.standard_normal(int(nudge.sum()))
    extra = rng.standard_normal(int(rng.integers(0, 3))) * (1.0 + 1j)
    return rng.permutation(np.concatenate([lam, extra]))


class TestConjugatePairs:
    def test_pairs_are_mutual_conjugates(self, rng):
        for _ in range(200):
            lam = mixed_spectrum(rng)
            partner = conjugate_pairs(lam)
            np.testing.assert_array_equal(partner[partner], np.arange(lam.size))
            paired = partner != np.arange(lam.size)
            assert np.all(np.abs(lam[partner] - lam.conj())[paired] <= 1e-8 * np.abs(lam[paired]))

    def test_pair_collapse_matches_the_pairwise_loop(self, rng):
        for _ in range(200):
            lam = mixed_spectrum(rng)
            np.testing.assert_array_equal(conjugate_representatives(lam),
                                          conjugate_representatives_loop(lam))


class TestTemporalDynamics:
    def test_constant_row(self):
        model = single_mode_model(1.0, np.ones(2), 5.0)
        row = temporal_dynamics(model, 4)
        np.testing.assert_allclose(row, [[5.0, 5.0, 5.0, 5.0]], atol=1e-12)

    def test_quarter_rotation(self):
        model = single_mode_model(1j, np.ones(2), 1.0)
        row = temporal_dynamics(model, 4)
        np.testing.assert_allclose(row, [[1.0, 0.0, -1.0, 0.0]], atol=1e-12)

    def test_damped_pair_cosine_oracle(self, rng):
        lam = 0.9 * np.exp(1j * np.pi / 4)
        b = 1.4 * np.exp(0.3j)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        model = pair_model(lam, w, b)
        ts = np.arange(20)
        rows = temporal_dynamics(model, ts.size)[conjugate_representatives(model.eigenvalues)]
        assert rows.shape == (1, 20)
        want = abs(b) * 0.9 ** ts * np.cos(np.pi * ts / 4 + np.angle(b))
        np.testing.assert_allclose(rows[0], want, atol=1e-10)

    def test_pair_collapse_halves_rows(self, rng):
        lam = 0.9 * np.exp(1j * np.pi / 4)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        model = pair_model(lam, w, 1.0 + 0.5j)
        assert temporal_dynamics(model, 5).shape == (2, 5)
        shown = conjugate_representatives(model.eigenvalues)
        assert temporal_dynamics(model, 5)[shown].shape == (1, 5)

    def test_rows_are_the_full_matrix_rows_bit_for_bit(self, rng):
        lams = [0.9 * np.exp(0.7j), 0.9 * np.exp(-0.7j), 0.5, 1.01 * np.exp(2.1j),
                1.01 * np.exp(-2.1j)]
        model = decomposition(lams, rng.standard_normal((5, 3)),
                              rng.standard_normal(5) + 1j * rng.standard_normal(5))
        shown = conjugate_representatives(model.eigenvalues)
        np.testing.assert_array_equal(temporal_dynamics(model, 300, rows=shown),
                                      temporal_dynamics(model, 300)[shown])

    def test_rows_are_the_weighted_vandermonde_bit_for_bit(self, rng):
        """The dynamics come from the Vandermonde matrix the fit uses, so they
        agree with it to the last bit, and with lam ** t to roundoff."""
        lams = 0.99 * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        model = decomposition(lams, rng.standard_normal((4, 3)), amps)
        got = temporal_dynamics(model, 200)
        assert got.tobytes() == np.real(vandermonde(lams, 200) * amps[:, None]).tobytes()
        want = np.real(lams[:, None] ** np.arange(200.0) * amps[:, None])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(amps).max()

    def test_empty_range(self, rng):
        model = single_mode_model(1.0, rng.standard_normal(2), 1.0)
        with pytest.raises(ValueError):
            temporal_dynamics(model, 0)


class TestForecast:
    def test_stationary_forecast_constant(self, rng):
        v = rng.standard_normal(4)
        model = single_mode_model(1.0, v, 2.0)
        fc = reconstruct(model, 10, 5)[0]
        for step in range(5):
            np.testing.assert_allclose(fc[:, step], 2.0 * v, atol=1e-12)

    def test_geometric_decay(self, rng):
        v = rng.standard_normal(4)
        model = single_mode_model(0.5, v, 1.0)
        fc = reconstruct(model, 0, 50)[0]
        norms = np.linalg.norm(fc, axis=0)
        ratios = norms[1:] / norms[:-1]
        assert np.max(np.abs(ratios - 0.5)) <= 1e-10

    def test_holdout_simulation_oracle(self):
        X, _ = planted_matrix(8, 60, [0.99 * np.exp(0.3j)], [1.0], seed=9)
        train = X.data[:, :50]
        from koopmode import SnapshotMatrix
        model = fitted_model(SnapshotMatrix(train))
        fc = reconstruct(model, 50, 10)[0]
        held_out = X.data[:, 50:60]
        for step in range(10):
            err = (np.linalg.norm(fc[:, step] - held_out[:, step])
                   / np.linalg.norm(held_out[:, step]))
            assert err <= 1e-6

    def test_growing_mode_overflow_raises(self, rng):
        """A snapshot whose norm overflows is an error naming its step, not
        zeros or NaN: past step 512 4**k overflows, and inf * 0 gives NaN."""
        v = rng.standard_normal(3)
        model = single_mode_model(4.0, v, 1.0)
        with pytest.raises(ValueError, match="step 600 overflows"):
            reconstruct(model, 600, 3)
        # entries near 1e304 are finite, but their sum of squares is not
        assert np.all(np.isfinite(4.0 ** 505 * v))
        with pytest.raises(ValueError, match="step 505 overflows"):
            reconstruct(model, 505, 1)
        # a window names its first such step; each step scales the sum of squares
        # by 16, so the window's roundoff cannot move the step the oracle finds
        with np.errstate(over="ignore"):
            first = next(k for k in range(200, 300)
                         if not np.isfinite(np.linalg.norm(4.0 ** k * v)))
        with pytest.raises(ValueError, match=f"step {first} overflows"):
            reconstruct(model, 200, 100)
        snapshot, _ = reconstruct(model, 200, 1)
        assert np.all(np.isfinite(snapshot)) and np.all(snapshot != 0)
        np.testing.assert_allclose(snapshot[:, 0], 4.0 ** 200 * v, rtol=1e-12)

    def test_growing_pair_overflow_raises(self, rng):
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        model = pair_model(1.5 * np.exp(0.7j), w, 0.8 - 0.3j)
        with pytest.raises(ValueError, match="step 2000 overflows"):
            reconstruct(model, 2000, 2)
        with pytest.raises(ValueError, match=r"step \d+ overflows") as info:
            reconstruct(model, 0, 2000)
        first = int(str(info.value).split("step ")[1].split()[0])
        assert 800 < first < 1000  # 1.5**k * |w| * |b| near 1e154
        snapshots, residuals = reconstruct(model, 0, first)  # the steps before it
        assert np.all(np.isfinite(snapshots)) and residuals.max() <= 1e-12

    def test_invalid_horizon(self, rng):
        model = single_mode_model(1.0, rng.standard_normal(2), 1.0)
        with pytest.raises(ValueError):
            reconstruct(model, 5, 0)


def on_grid(vec, grid_shape, mask=None, cycles=1) -> np.ndarray:
    """vec mapped onto its grids by a snapshot matrix of that layout."""
    X = SnapshotMatrix(np.zeros((len(vec), 2)), grid_shape=grid_shape, mask=mask,
                       cycles=cycles)
    return X.grids(vec)


class TestModeMagnitudeGrid:
    def test_full_grid_no_stacking(self, rng):
        mode = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        grids = on_grid(np.abs(mode), (10, 60))
        assert grids.shape == (1, 10, 60)
        np.testing.assert_allclose(grids[0].reshape(-1), np.abs(mode))

    def test_uniform_mode(self):
        grids = on_grid(np.ones(6), (2, 3))
        np.testing.assert_array_equal(grids, np.ones((1, 2, 3)))
        # without a grid shape, one row of the points per cycle, or of the mask's
        assert on_grid(np.ones(6), None, cycles=2).shape == (2, 1, 3)
        flat = on_grid(np.ones(2), None, mask=[True, False, True]).reshape(-1)
        np.testing.assert_array_equal(np.isnan(flat), [False, True, False])

    def test_masked_index_bookkeeping_oracle(self, rng):
        mask = np.array([True, False, True, True, False, True])
        mode = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        flat = on_grid(np.abs(mode), (2, 3), mask=mask).reshape(-1)
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
        grids = on_grid(np.abs(mode[:10]), (2, 3), mask=mask, cycles=2)
        assert grids.shape == (2, 2, 3)
        np.testing.assert_allclose(grids[1].reshape(-1)[mask], np.abs(mode[5:10]))
        assert np.isnan(grids[:, 0, 2]).all()
        grids = on_grid(np.abs(mode), (2, 3), cycles=2)
        np.testing.assert_allclose(grids[1].reshape(-1), np.abs(mode[6:]))
        np.testing.assert_allclose(grids.mean(axis=0).reshape(-1),
                                   (np.abs(mode[:6]) + np.abs(mode[6:])) / 2)

    def test_length_mismatch(self, rng):
        X = SnapshotMatrix(np.zeros((6, 2)), grid_shape=(2, 3))
        with pytest.raises(ValueError, match="vector shape"):
            X.grids(np.ones(5))
        # the layout itself is checked when the matrix is built: exactly
        with pytest.raises(ValueError, match="grid 2x3 holds 6 points, not the 5 rows"):
            SnapshotMatrix(np.zeros((5, 2)), grid_shape=(2, 3))
        with pytest.raises(ValueError, match="not the 5 mask entries"):
            SnapshotMatrix(np.zeros((5, 2)), grid_shape=(2, 3), mask=np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="mask keeps 6 points but data has 5 rows"):
            SnapshotMatrix(np.zeros((5, 2)), mask=np.ones(6, dtype=bool))


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
        # a conjugate pair sorts by its larger |b|; its members' |b| agree to roundoff
        X, _ = planted_matrix(8, 30, [0.95 * np.exp(0.4j), 0.9], [1.0, 0.5], seed=4)
        model = fitted_model(X)
        mags = np.abs(model.amplitudes)
        key = np.maximum(mags, mags[conjugate_pairs(model.eigenvalues)])
        assert all(k1 >= k2 for k1, k2 in zip(key, key[1:]))
        np.testing.assert_allclose(mags, key, rtol=1e-12)

    def test_top_subset_minimizes_k0_error_for_orthogonal_modes(self, rng):
        # orthogonal spatial directions: truncating to the largest amplitudes
        # is the best size-m choice at k = 0
        from itertools import combinations
        p, r = 8, 4
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        amps = np.array([5.0, 3.0, 2.0, 0.5])  # already amplitude-sorted
        full = decomposition([0.9] * r, Q[:, :r].T, amps)
        target = reconstruct(full, 0, 1)[0][:, 0]

        def sub_error(idx):
            idx = list(idx)
            sub = decomposition(full.eigenvalues[idx], full.modes[:, idx].T,
                                full.amplitudes[idx])
            return np.linalg.norm(reconstruct(sub, 0, 1)[0][:, 0] - target)

        for m in (1, 2, 3):
            best = sub_error(range(m))
            for idx in combinations(range(r), m):
                assert best <= sub_error(idx) + 1e-10
