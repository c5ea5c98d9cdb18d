from __future__ import annotations

import numpy as np
import pytest

from koopmode import (
    SnapshotMatrix,
    load_mask,
    load_matrix,
    save_matrix,
    stack_cycles,
    subtract_mean,
    unstack_cycles,
    write_csv,
)


class TestLoadMatrix:
    def test_minimal_csv(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("3.0,4.0\n")
        X = load_matrix(path)
        assert X.p == 1 and X.n_steps == 2
        np.testing.assert_array_equal(X.data, [[3.0, 4.0]])

    def test_monthly_sized_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((600, 1548))
        path = tmp_path / "monthly.csv"
        save_matrix(SnapshotMatrix(data), path, "csv")
        X = load_matrix(path)
        assert X.p == 600 and X.n_steps == 1548
        assert np.max(np.abs(X.data - data)) <= 1e-12 * np.max(np.abs(data))

    def test_raw_float64_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 5))
        path = tmp_path / "raw.bin"
        save_matrix(SnapshotMatrix(data), path, "raw-float64")
        X = load_matrix(path, format="raw-float64")
        assert X.data.shape == (4, 5)
        assert np.array_equal(X.data, data)  # bit-identical

    def test_raw_header_payload_mismatch(self, tmp_path):
        path = tmp_path / "raw.bin"
        save_matrix(SnapshotMatrix(np.ones((4, 5))), path, "raw-float64")
        path.with_suffix(".bin.json").write_text('{"rows": 4, "cols": 6}')
        with pytest.raises(ValueError, match="header"):
            load_matrix(path, format="raw-float64")

    def test_raw_payload_with_trailing_bytes_is_rejected(self, tmp_path):
        """np.fromfile drops a partial last value, so the file's size is checked first."""
        path = tmp_path / "raw.bin"
        save_matrix(SnapshotMatrix(np.ones((2, 3))), path, "raw-float64")
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 3)
        with pytest.raises(ValueError, match="payload holds 51 bytes"):
            load_matrix(path, format="raw-float64")

    def test_header_with_raw_input_is_rejected(self, tmp_path):
        """A raw payload has no header line to skip: the flag is an error, not ignored."""
        path = tmp_path / "raw.bin"
        save_matrix(SnapshotMatrix(np.ones((4, 5))), path, "raw-float64")
        with pytest.raises(ValueError, match="header applies to csv input only"):
            load_matrix(path, format="raw-float64", header=True)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_matrix(path)

    def test_header_and_transpose(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        X = load_matrix(path, header=True, transpose=True)
        np.testing.assert_array_equal(X.data, [[1, 4], [2, 5], [3, 6]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_matrix(tmp_path / "nope.csv")

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            SnapshotMatrix(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("grid", [(-2, -3), (-1, -6), (0, 6), (6, 0)])
    def test_grid_dimension_below_1_rejected(self, tmp_path, grid):
        """(-2, -3) and (-1, -6) hold 6 points, the rows per snapshot, by
        their product alone."""
        name = f"grid {grid[0]}x{grid[1]}"
        with pytest.raises(ValueError, match=f"{name} has a dimension below 1"):
            SnapshotMatrix(np.ones((6, 3)), grid_shape=grid)
        path = tmp_path / "six.csv"
        save_matrix(SnapshotMatrix(np.ones((6, 3))), path, "csv")
        with pytest.raises(ValueError) as error:
            load_matrix(path, grid_shape=grid)
        assert str(error.value).startswith(f"{path}: {name} has a dimension below 1")

    def test_complex_rejected(self):
        """Casting to float64 would drop the imaginary parts."""
        with pytest.raises(ValueError, match="complex"):
            SnapshotMatrix(np.ones((3, 4)) * (1 + 1j))


class TestApplyMask:
    """load_matrix keeps the rows a mask flags true before the matrix is
    checked, so the rows it drops may hold anything; the mask's grid and
    point count are checked by SnapshotMatrix."""

    @staticmethod
    def masked(tmp_path, data, mask, **kwargs):
        path = tmp_path / "data.csv"
        np.savetxt(path, data, delimiter=",")
        return load_matrix(path, mask=mask, **kwargs)

    def test_direct_selection(self, tmp_path):
        data = np.arange(8.0).reshape(4, 2)
        out = self.masked(tmp_path, data, np.array([True, False, True, False]))
        np.testing.assert_array_equal(out.data, data[[0, 2]])
        np.testing.assert_array_equal(out.mask, [True, False, True, False])

    def test_all_true_identity(self, tmp_path):
        data = np.arange(8.0).reshape(4, 2)
        out = self.masked(tmp_path, data, np.ones(4, dtype=bool))
        np.testing.assert_array_equal(out.data, data)

    def test_random_against_row_filter_oracle(self, tmp_path, rng):
        data = rng.standard_normal((10, 3))
        mask = rng.random(10) > 0.4
        mask[0] = True  # keep at least one row
        out = self.masked(tmp_path, data, mask)
        oracle = np.stack([row for row, keep in zip(data, mask) if keep])
        np.testing.assert_array_equal(out.data, oracle)

    def test_mask_indexes_the_rows_after_transpose(self, tmp_path):
        data = np.arange(8.0).reshape(2, 4)  # time x space
        out = self.masked(tmp_path, data, [False, True, True, False], transpose=True)
        np.testing.assert_array_equal(out.data, data.T[[1, 2]])

    def test_non_finite_masked_out_rows_load(self, tmp_path):
        data = np.array([[1.0, 2.0], [np.nan, np.nan], [3.0, np.inf], [4.0, 5.0]])
        out = self.masked(tmp_path, data, np.array([True, False, False, True]),
                          grid_shape=(2, 2))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [4.0, 5.0]])
        with pytest.raises(ValueError, match="NaN"):  # a kept row is still checked
            self.masked(tmp_path, data, np.array([True, True, False, True]))

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="mask has 5 entries, data has 4 rows"):
            self.masked(tmp_path, np.ones((4, 2)), np.ones(5, dtype=bool))

    def test_zero_true_entries(self, tmp_path):
        with pytest.raises(ValueError, match="zero rows"):
            self.masked(tmp_path, np.ones((4, 2)), np.zeros(4, dtype=bool))
        with pytest.raises(ValueError, match="zero rows"):
            SnapshotMatrix(np.zeros((0, 5)))

    def test_load_mask_file(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("1,0,1\n0,1,0\n")
        mask = load_mask(path)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [True, False, True, False, True, False])

    @pytest.mark.parametrize("cell", ["2", "0.5", "nan", "-1", "inf"])
    def test_load_mask_rejects_values_other_than_0_and_1(self, tmp_path, cell):
        path = tmp_path / "mask.csv"
        path.write_text(f"1,{cell},0\n1,0,1\n")
        with pytest.raises(ValueError, match="other than 0 and 1"):
            load_mask(path)


class TestStackCycles:
    def test_seasonal_dimensions(self):
        X = SnapshotMatrix(np.zeros((600, 1548)) + 1.0)
        out = stack_cycles(X, 3)
        assert out.data.shape == (1800, 516)
        assert out.data[:, :-1].shape == (1800, 515)  # the fit's zero-lag snapshots

    def test_annual_dimensions(self):
        X = SnapshotMatrix(np.ones((600, 1548)))
        out = stack_cycles(X, 12)
        assert out.data.shape == (7200, 129)
        assert out.data[:, :-1].shape[1] == 128

    def test_identity_cycle(self, rng):
        X = SnapshotMatrix(rng.standard_normal((5, 7)))
        np.testing.assert_array_equal(stack_cycles(X, 1).data, X.data)

    def test_column_stacking_order(self):
        data = np.arange(12.0).reshape(2, 6)
        out = stack_cycles(SnapshotMatrix(data), 3)
        assert out.data.shape == (6, 2)
        # column j stacks source columns 3j, 3j+1, 3j+2 vertically
        np.testing.assert_array_equal(out.data[:, 0],
                                      np.concatenate([data[:, 0], data[:, 1], data[:, 2]]))
        np.testing.assert_array_equal(out.data[:, 1],
                                      np.concatenate([data[:, 3], data[:, 4], data[:, 5]]))

    @pytest.mark.filterwarnings("error")  # the caller knows N and c: the command warns
    def test_trailing_columns_dropped_silently(self, rng):
        data = rng.standard_normal((3, 7))
        out = stack_cycles(SnapshotMatrix(data), 3)
        assert out.data.shape == (9, 2)
        np.testing.assert_array_equal(out.data[:, -1], data[:, 3:6].T.reshape(-1))

    def test_unstack_roundtrip(self, rng):
        data = rng.standard_normal((4, 9))
        stacked = stack_cycles(SnapshotMatrix(data), 2)
        np.testing.assert_array_equal(unstack_cycles(stacked, 2), data[:, :8])

    def test_unstack_inverts_stack_over_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p, n = int(rng.integers(1, 9)), int(rng.integers(4, 40))
            c = int(rng.integers(1, n // 2 + 1))  # at least two stacked snapshots
            data = rng.standard_normal((p, n))
            stacked = stack_cycles(SnapshotMatrix(data), c)
            assert stacked.data.shape == (p * c, n // c)
            np.testing.assert_array_equal(unstack_cycles(stacked, c), data[:, : n // c * c])

    def test_invalid_cycle_counts(self):
        X = SnapshotMatrix(np.ones((2, 4)))
        with pytest.raises(ValueError):
            stack_cycles(X, 0)
        with pytest.raises(ValueError):
            stack_cycles(X, 5)


class TestSubtractMean:
    def test_constant_row(self):
        X = SnapshotMatrix(np.array([[5.0, 5.0, 5.0]]))
        centered, mean = subtract_mean(X)
        np.testing.assert_array_equal(centered.data, [[0.0, 0.0, 0.0]])
        assert mean[0] == 5.0

    def test_arithmetic(self):
        centered, mean = subtract_mean(SnapshotMatrix(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_array_equal(centered.data, [[-1.0, 0.0, 1.0]])
        assert mean[0] == 2.0

    def test_reconstruction_oracle(self, rng):
        data = rng.standard_normal((6, 11)) * 3 + 2
        centered, mean = subtract_mean(SnapshotMatrix(data))
        assert np.max(np.abs(centered.data + mean[:, None] - data)) <= 1e-12
        assert np.max(np.abs(centered.data.mean(axis=1))) <= 1e-12


def test_csv_roundtrip_tolerance(tmp_path, rng):
    data = rng.standard_normal((7, 9)) * 1e3
    path = tmp_path / "rt.csv"
    save_matrix(SnapshotMatrix(data), path, "csv")
    back = load_matrix(path)
    assert np.max(np.abs(back.data - data)) <= 1e-12 * np.max(np.abs(data))


def test_write_csv_formats_special_values(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(path, np.array([[-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0]]),
              ",".join(["%.17g"] * 6), header="a,b,c,d,e,f")
    assert path.read_text() == "a,b,c,d,e,f\n-0,nan,inf,-inf,4.9406564584124654e-324,1\n"
    write_csv(path, [(3, 0.5, "true")], "%d,%.17g,%s")
    assert path.read_text() == "3,0.5,true\n"


def test_write_csv_roundtrip_bit_exact(tmp_path, rng):
    # random bit patterns cover every exponent, subnormals and signed zeros
    bits = rng.integers(0, 2**64, size=(50, 40), dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = -0.0
    path = tmp_path / "w.csv"
    write_csv(path, values, ",".join(["%.17g"] * 40))
    back = np.loadtxt(path, delimiter=",")
    assert back.tobytes() == values.tobytes()


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: SnapshotMatrix(np.ones(4)), ValueError, r"must be 2-D, got shape \(4,\)"),
    (lambda tmp: SnapshotMatrix(np.ones((5, 3)), cycles=2), ValueError,
     "p=5 does not split into 2 cycles"),
    (lambda tmp: load_matrix(tmp / "x.csv", format="npy"), ValueError, "format must be one of"),
    (lambda tmp: save_matrix(SnapshotMatrix(np.ones((2, 3))), tmp / "x.npy", format="npy"),
     ValueError, "format must be one of"),
    (lambda tmp: load_matrix(tmp / "x.bin", format="raw-float64"), FileNotFoundError,
     "missing sidecar header .*x.bin.json"),
    (lambda tmp: unstack_cycles(SnapshotMatrix(np.ones((5, 3))), 2), ValueError,
     "p=5 not divisible by cycle length 2"),
], ids=["not-2d", "cycles", "load-format", "save-format", "no-sidecar", "unstack"])
def test_invalid_argument_names_its_fault(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing written
