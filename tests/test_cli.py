from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import koopmode
from koopmode import (AdmmParams, SnapshotMatrix, conjugate_pairs,
                      conjugate_representatives, exact_dmd, gamma_sweep, load_matrix,
                      log_gamma_grid, quadratic_form, read_csv, reconstruct, save_matrix,
                      stack_cycles, truncated_svd, write_csv)
from koopmode.dmd import real_matmul
from koopmode import __main__ as entry, cli, dmd, spdmd
from koopmode.cli import main, render_heatmap
from conftest import allocation_peak, planted_matrix, real_exponentials, smoke_matrix

# a warning that the companion fit or the command raises is asserted where it is raised
pytestmark = pytest.mark.filterwarnings(r"error::UserWarning:koopmode\.(cdmd|cli)\Z")


@pytest.fixture
def planted_csv(tmp_path):
    lams = [0.95 * np.exp(0.4j), 0.9]
    X, full = planted_matrix(12, 50, lams, [2.0, 1.0], seed=13)
    path = tmp_path / "data.csv"
    save_matrix(X, path, "csv")
    return path, full


@pytest.fixture
def smoke_csv(tmp_path):
    path = tmp_path / "smoke.csv"
    save_matrix(SnapshotMatrix(smoke_matrix()), path, "csv")
    return path


def run(*args) -> int:
    return main([str(a) for a in args])


KRYLOV = "rank-deficient Krylov sequence"  # the companion fit's warning
NEAR_SINGULAR = "near-singular amplitude system"  # the command's finding


def warns_of(*messages):
    """A context that fails unless each message is found in a UserWarning raised in it."""
    stack = contextlib.ExitStack()
    for message in messages:
        stack.enter_context(pytest.warns(UserWarning, match=message))
    return stack


def read_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def read_model(art):
    """The fields of a decompose output directory's model/, by name."""
    return {path.stem: np.load(path, allow_pickle=False)
            for path in sorted((art / "model").glob("*.npy"))}


def rewrite_model(art, **fields):
    """Rewrite the given fields' files in art/model/, one given as None deleted;
    np.save pickles an object array, as another writer might."""
    for name, value in fields.items():
        path = art / "model" / f"{name}.npy"
        path.unlink() if value is None else np.save(path, value)


def make_older_layout(art, layout):
    """Rewrite a decompose output directory in an older layout, without
    model/: every field in model.npz, as versions before model/ wrote them,
    the modes alone in modes_matrix.npy, as versions before that did, or in
    modes_matrix.csv, as interleaved re/im %.17g columns, as the first did."""
    model = read_model(art)
    shutil.rmtree(art / "model")
    if layout == "model.npz":
        np.savez(art / layout, **model)
    elif layout == "modes_matrix.npy":
        np.save(art / layout, model["modes"])
    else:
        np.savetxt(art / layout, model["modes"].view(float), fmt="%.17g", delimiter=",")


def every_mode(art):
    """The p x r modes of a decompose output directory, each conjugate partner
    rebuilt as the conjugate of its pair's one stored column."""
    model = read_model(art)
    lam, stored = model["eigenvalues"], model["modes"]
    shown = conjugate_representatives(lam)
    assert stored.shape[1] == shown.size  # one column per pair or unpaired mode
    modes = np.empty((stored.shape[0], lam.size), dtype=complex)
    modes[:, conjugate_pairs(lam)[shown]] = stored.conj()
    modes[:, shown] = stored  # an unpaired mode is its own partner
    return modes


class TestDecompose:
    def test_planted_spectrum_in_eigenvalues_csv(self, tmp_path, planted_csv):
        path, full = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", out) == 0
        rows = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        eigs = rows[:, 1] + 1j * rows[:, 2]
        for lam in full:
            assert np.min(np.abs(eigs - lam)) <= 1e-8
        # sorted by |amplitude| descending
        assert np.all(np.diff(rows[:, 8]) <= 1e-12)

    def test_minimal_two_column_input(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,0.5\n")
        out = tmp_path / "art"
        assert run("decompose", path, "--out", out) == 0
        rows = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[0] == 1
        assert abs(rows[0, 1] - 0.5) <= 1e-10

    def test_artifact_set_and_summary_schema(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", out) == 0
        for name in ("model", "eigenvalues.csv", "temporal.csv", "summary.json"):
            assert (out / name).exists()
        for name in ("model.npz", "modes_matrix.npy", "modes_matrix.csv"):
            assert not (out / name).exists()
        assert sorted(path.name for path in (out / "model").iterdir()) == sorted(
            f"{name}.npy" for name in cli.MODEL_FIELDS)
        assert (out / "modes").is_dir()
        summary = json.loads((out / "summary.json").read_text())
        for key in ("toolkit_version", "method", "rank", "data_shape",
                    "full_fit_loss_percent", "config"):
            assert key in summary
        assert "admm" not in summary  # spdmd only
        assert summary["rank"] == 3
        assert summary["data_shape"] == [12, 50]
        assert summary["full_fit_loss_percent"] <= 1e-5
        model = read_model(out)
        assert sorted(model) == sorted(cli.MODEL_FIELDS)
        # one column for the planted pair, one for the real mode
        assert model["modes"].dtype == np.complex128 and model["modes"].shape == (12, 2)

    def test_modes_matrix_round_trips_bit_exact(self, tmp_path, planted_csv, monkeypatch):
        fitted = []
        fit = cli._fit

        def fit_and_keep(args, X, findings):
            fitted.append(fit(args, X, findings))
            return fitted[-1]

        monkeypatch.setattr(cli, "_fit", fit_and_keep)
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        result = fitted[0][0]
        shown = conjugate_representatives(result.eigenvalues)
        want = real_matmul(result.basis, result.coefficients[:, shown])
        assert read_model(art)["modes"].tobytes() == want.tobytes()

        # the loaded basis holds the stored bits, -0 and subnormals included
        specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1.0 / 3.0, -1e308])
        rng = np.random.default_rng(5)
        modes = np.empty(want.shape, dtype=complex)
        modes.real = rng.choice(specials, modes.shape)
        modes.imag = rng.choice(specials, modes.shape)
        rewrite_model(art, modes=modes)
        model, _, _ = cli._load_model(art)
        assert np.isrealobj(model.basis)
        assert model.basis.view(complex).view(np.uint64).tolist() == modes.view(np.uint64).tolist()
        # and a NaN, whatever its payload, or an infinity is refused
        for bad in (np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf):
            modes.imag[1, 0] = bad
            rewrite_model(art, modes=modes)
            with pytest.raises(ValueError, match="modes holds a non-finite value"):
                cli._load_model(art)

    @pytest.mark.parametrize("flags", [("--rank", 6), ("--method", "cdmd", "--subtract-mean"),
                                       ("--method", "spdmd", "--rank", 6, "--gamma", 1e-3,
                                        "--subtract-mean")], ids=["dmd", "cdmd", "spdmd"])
    def test_model_round_trips_bit_exact(self, tmp_path, rng, monkeypatch, flags):
        """_load_model returns the fit's eigenvalues (complex128, as model/
        stores them), amplitudes, original indices, row means (zeros without
        --subtract-mean) and n_train bit for bit."""
        seen = []

        def keep(function):
            def kept(*args):
                seen.append(function(*args))
                return seen[-1]
            return kept

        monkeypatch.setattr(cli, "_load_input", keep(cli._load_input))
        monkeypatch.setattr(cli, "_fit", keep(cli._fit))
        path, art = tmp_path / "data.csv", tmp_path / "art"
        save_matrix(SnapshotMatrix(rng.standard_normal((40, 20)) + 3.0), path, "csv")
        assert run("decompose", path, *flags, "--out", art) == 0
        (X, mean, _), (result, _, _) = seen
        model, loaded_mean, n_train = cli._load_model(art)
        for got, want in ((model.eigenvalues, result.eigenvalues.astype(complex)),
                          (model.amplitudes, result.amplitudes),
                          (model.original_indices, result.original_indices),
                          (loaded_mean, mean)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert n_train == X.n_steps - 1 and model.method == result.method
        # each file holds the bytes of np.savez's member of that name
        np.savez(tmp_path / "savez.npz", **read_model(art))
        with zipfile.ZipFile(tmp_path / "savez.npz") as zf:
            assert {name: zf.read(name) for name in zf.namelist()} == {
                path.name: path.read_bytes() for path in (art / "model").iterdir()}

    def test_rerun_replaces_a_pre_npy_directory(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        make_older_layout(art, "modes_matrix.csv")
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert (art / "model").is_dir()
        assert not (art / "modes_matrix.csv").exists()

    def test_rerun_replaces_a_pre_model_directory(self, tmp_path, planted_csv):
        """A directory in a layout before model/, with modes_matrix.npy or with
        model.npz, is decompose's own: a rerun replaces it."""
        path, _ = planted_csv
        art = tmp_path / "art"
        for layout in ("modes_matrix.npy", "model.npz"):
            assert run("decompose", path, "--rank", 3, "--out", art) == 0
            make_older_layout(art, layout)
            assert run("decompose", path, "--rank", 3, "--out", art) == 0
            assert (art / "model").is_dir()
            assert not (art / layout).exists()

    def test_spdmd_method_selects_sparse_modes(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--method", "spdmd", "--rank", 3,
                   "--gamma", 0.0, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "spdmd"
        # gamma = 0 keeps every mode, with the least-squares amplitudes of --method dmd
        assert run("decompose", path, "--rank", 3, "--out", tmp_path / "dmd") == 0
        amplitudes = []
        for art in (out, tmp_path / "dmd"):
            rows = np.loadtxt(art / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
            rows = rows[np.argsort(rows[:, 0])]
            amplitudes.append((rows[:, 0].tolist(), rows[:, 6] + 1j * rows[:, 7]))
        (index, got), (dmd_index, want) = amplitudes
        assert index == dmd_index == [0, 1, 2]
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_cdmd_method(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        with warns_of(KRYLOV, NEAR_SINGULAR):
            assert run("decompose", path, "--method", "cdmd", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "cdmd"
        assert summary["rank"] == 49
        # the companion fit reproduces the training window
        assert summary["full_fit_loss_percent"] <= 1e-5

    @pytest.mark.filterwarnings("error")  # the error alone
    def test_rank_above_the_numerical_rank_exits_2(self, tmp_path, capsys):
        """A constant input has numerical rank 1: --rank 3 once failed in the
        eigensolver, after numpy's overflow warnings. The error names the
        flag and the input."""
        path = tmp_path / "const.csv"
        np.savetxt(path, np.full((6, 11), 3.0), fmt="%.17g", delimiter=",")
        assert run("decompose", path, "--rank", 3, "--method", "dmd",
                   "--out", tmp_path / "art") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: --rank 3 exceeds the numerical rank 1, the count of singular "
            "values above 1e-10 sigma_1"]

    @pytest.mark.filterwarnings("error")  # the error alone
    @pytest.mark.parametrize("command", ["decompose", "sweep"])
    def test_rank_above_min_p_n_exits_2_naming_flag_and_input(self, tmp_path, rng, capsys,
                                                              command):
        """An 8 x 2 input has one snapshot pair: the error once named the
        library's M, min(p, M)=1, not the flag and the file."""
        path, out = tmp_path / "short.csv", tmp_path / "art"
        np.savetxt(path, rng.standard_normal((8, 2)), fmt="%.17g", delimiter=",")
        assert run(command, path, "--rank", 8, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: --rank 8 exceeds min(p, N - 1) = 1 of its p x N = 8 x 2 snapshots"]
        assert not out.exists()

    def test_cdmd_rejects_rank(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--method", "cdmd", "--rank", 3, "--out", out) == 1
        assert not out.exists()

    def test_each_conjugate_pair_is_written_once(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        rows = np.loadtxt(art / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        index, lam = rows[:, 0].astype(int), rows[:, 1] + 1j * rows[:, 2]
        partner = conjugate_pairs(lam)
        shown = [j for j in range(lam.size) if partner[j] == j or lam[j].imag >= 0]
        assert len(shown) == 2  # the planted pair and the real mode
        assert sorted(p.name for p in (art / "modes").iterdir()) == sorted(
            f"{index[j]}_{tag}.csv" for j in shown for tag in ("real", "imag", "abs"))
        assert read_model(art)["modes"].shape[1] == len(shown)
        # the stored columns and their conjugates are the fitted modes, partners included;
        # index names each column's place in the fit before the amplitude sort
        fit = exact_dmd(load_matrix(path).data, rank=3).modes[:, index]
        modes = every_mode(art)
        for j in range(lam.size):
            scale = np.linalg.norm(fit[:, j])
            assert np.linalg.norm(modes[:, j] - fit[:, j]) <= 1e-12 * scale
        header = (art / "temporal.csv").read_text().splitlines()[0]
        assert header == ",".join(["t"] + [f"mode{index[j]}" for j in shown])
        # each temporal.csv column is Re(amp lam^t) of the row it names
        table = np.loadtxt(art / "temporal.csv", delimiter=",", skiprows=1, ndmin=2)
        b = rows[shown, 6] + 1j * rows[shown, 7]
        want = np.real(b[:, None] * lam[shown, None] ** table[:, 0])
        assert np.linalg.norm(table[:, 1:].T - want) <= 1e-10 * np.linalg.norm(want)
        assert lam[0].imag != 0  # the pair leads, and counts once
        assert run("decompose", path, "--rank", 3, "--top-modes", 1, "--out", art) == 0
        assert len(list((art / "modes").iterdir())) == 3
        assert run("decompose", path, "--rank", 3, "--pair-collapse", "--out", art) == 1

    def test_cdmd_exports_an_exact_zero_eigenvalue(self, tmp_path, rng):
        # a zero first snapshot makes the minimum-norm companion fit set c_0 = 0 exactly
        X = rng.standard_normal((12, 10))
        X[:, 0] = 0.0
        path, art, rec = tmp_path / "zero.csv", tmp_path / "art", tmp_path / "rec"
        save_matrix(SnapshotMatrix(X), path, "csv")
        with warns_of(KRYLOV):
            assert run("decompose", path, "--method", "cdmd", "--out", art) == 0
        rows = np.loadtxt(art / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.any((rows[:, 1] == 0) & (rows[:, 2] == 0))
        assert run("reconstruct", "--artifacts", art, "--input", path, "--at", 3,
                   "--out", rec) == 0
        report = json.loads((rec / "recon_report.json").read_text())
        assert report["relative_errors"]["3"] <= 1e-8

    def test_rerun_replaces_the_whole_directory(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art, rec = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert run("decompose", path, "--rank", 3, "--top-modes", 1, "--out", art) == 0
        assert len(list((art / "modes").iterdir())) == 3  # one mode, three grids
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--at", 5,
                   "--horizon", 2, "--out", rec) == 0
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--out", rec) == 0
        assert sorted(p.name for p in rec.iterdir()) == ["recon_0.csv", "recon_report.json"]
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--out", art) == 1
        assert (art / "summary.json").exists()
        assert not list(tmp_path.glob(".stage-*"))

    @pytest.mark.parametrize("reads", ["artifacts", "input", "mask"])
    def test_out_holding_a_path_the_run_reads_is_refused(self, tmp_path, planted_csv, reads):
        """--out is replaced as a whole, so an --out that is or holds the
        artifacts, the input or the mask exits 1 and leaves its tree as it was."""
        path, _ = planted_csv
        results = tmp_path / "results"
        art = results / "modes"  # results' one child matches an artifact name
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        if reads == "artifacts":
            runs = [("reconstruct", "--artifacts", art, "--at", 0, "--out", out)
                    for out in (results, art)]
        elif reads == "input":
            inside, other = art / "data.csv", tmp_path / "other"
            inside.write_bytes(path.read_bytes())
            assert run("decompose", path, "--rank", 3, "--out", other) == 0
            runs = [("decompose", inside, "--rank", 3, "--out", results),
                    ("sweep", inside, "--rank", 3, "--gamma-count", 2, "--out", results),
                    ("reconstruct", "--artifacts", other, "--input", inside,
                     "--at", 0, "--out", results)]
        else:
            (art / "mask.csv").write_text("1,1,1,1\n1,1,1,1\n1,1,1,1\n")
            runs = [("decompose", path, "--grid-shape", 3, 4, "--mask", art / "mask.csv",
                     "--rank", 3, "--out", results)]
        before = read_tree(results)
        for args in runs:
            assert run(*args) == 1, args
            assert read_tree(results) == before
        assert not list(tmp_path.rglob(".stage-*"))

    def test_foreign_output_directory_is_kept(self, tmp_path, planted_csv):
        path, _ = planted_csv
        keep = tmp_path / "notes.txt"
        keep.write_text("mine\n")
        assert run("decompose", path, "--rank", 3, "--out", tmp_path) == 1
        assert run("decompose", path, "--rank", 3, "--out", keep) == 1
        assert keep.read_text() == "mine\n"
        assert not (tmp_path / "summary.json").exists()

    def test_cycles_with_grid_shape(self, tmp_path, rng):
        """A stacked run's mode grids are means over the cycle's slots: of the
        mode's real part, its imaginary part and its modulus, so the abs grid
        is the mean of |phi|, which exceeds |mean phi| where the slots differ."""
        path = tmp_path / "small.csv"
        save_matrix(SnapshotMatrix(rng.standard_normal((12, 30))), path, "csv")
        out = tmp_path / "art"
        assert run("decompose", path, "--grid-shape", 3, 4, "--cycles", 3, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["data_shape"] == [36, 10]
        rows = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        shown = conjugate_representatives(rows[:, 1] + 1j * rows[:, 2])
        modes = read_model(out)["modes"]
        assert len(list((out / "modes").iterdir())) == 3 * shown.size
        gaps = []
        for index, col in zip(rows[shown, 0].astype(int), modes.T):
            for tag, values in (("real", col.real), ("imag", col.imag), ("abs", np.abs(col))):
                grid = read_csv(out / "modes" / f"{index}_{tag}.csv")
                np.testing.assert_array_equal(grid, values.reshape(3, 12).mean(axis=0)
                                              .reshape(3, 4))
            gaps.append(np.max(grid - np.abs(col.reshape(3, 12).mean(axis=0)).reshape(3, 4)))
        assert max(gaps) > 0.1  # 0.17 on this input

    def test_cycles_with_mask(self, tmp_path, rng):
        path = tmp_path / "small.csv"
        save_matrix(SnapshotMatrix(rng.standard_normal((12, 30))), path, "csv")
        mask = tmp_path / "mask.csv"
        mask.write_text("1,1,1,1\n1,0,1,1\n1,1,1,0\n")
        out = tmp_path / "art"
        assert run("decompose", path, "--mask", mask, "--grid-shape", 3, 4,
                   "--cycles", 3, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["data_shape"] == [30, 10]
        grid = read_csv(out / "modes" / "0_abs.csv")
        np.testing.assert_array_equal(np.isnan(grid).reshape(-1),
                                      [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1])

    @pytest.mark.parametrize("flags", [
        ("--rank", 3), ("--method", "cdmd"),
        ("--method", "spdmd", "--rank", 3), ("--method", "spdmd", "--rank", 3, "--gamma", 0.5),
    ])
    def test_fit_factors_the_amplitude_system_once(self, tmp_path, planted_csv, monkeypatch,
                                                   flags):
        calls = []
        for name in ("eigh", "eigvalsh", "lstsq"):
            def counting(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls.append((_name, a.shape))
                return _f(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        path, _ = planted_csv
        with warns_of(*((KRYLOV, NEAR_SINGULAR) if "cdmd" in flags else ())):
            assert run("decompose", path, *flags, "--out", tmp_path / "art") == 0
        if "cdmd" in flags:  # the companion fit's own least squares, not on P
            calls = [c for c in calls if c[0] != "lstsq"]
        (name, shape), = calls
        assert name == "eigh" and shape[0] == shape[1]

    def test_failed_run_leaves_no_artifacts(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,oops\n")
        out = tmp_path / "art"
        assert run("decompose", bad, "--out", out) == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".stage-*"))

    def test_missing_input_is_runtime_error(self, tmp_path):
        assert run("decompose", tmp_path / "nope.csv", "--out", tmp_path / "a") == 2

    def test_bad_flag_is_usage_error(self, planted_csv, tmp_path):
        path, _ = planted_csv
        assert run("decompose", path, "--method", "bogus") == 1

    @pytest.mark.parametrize("flags", [
        ("--rank", 0), ("--rank", -1), ("--top-modes", -1), ("--cycles", 0),
        ("--method", "spdmd", "--rho", 0), ("--method", "spdmd", "--max-iter", 0),
        ("--method", "spdmd", "--gamma", -1), ("--method", "spdmd", "--rho", "nan"),
        ("--method", "spdmd", "--gamma", "inf"), ("--method", "spdmd", "--rho", "inf"),
        ("--method", "spdmd", "--eps-abs", "inf"),
    ])
    def test_out_of_range_value_is_usage_error(self, tmp_path, planted_csv, capsys, flags):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, *flags, "--out", out) == 1
        assert f"argument {flags[-2]}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--gamma", 5), ("--method", "cdmd", "--gamma", 5),
        ("--method", "cdmd", "--mode-style", "projected"),
        ("--rho", 2), ("--eps-abs", 1e-8), ("--eps-rel", 1e-3), ("--max-iter", 50),
        ("--method", "cdmd", "--rho", 2), ("--no-warm-start",),
    ])
    def test_flag_the_method_ignores_is_rejected(self, tmp_path, planted_csv, flags):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, *flags, "--out", out) == 1
        assert not out.exists()

    def test_method_flags_accepted_where_read(self, tmp_path, planted_csv):
        path, _ = planted_csv
        assert run("decompose", path, "--method", "spdmd", "--gamma", 0.5, "--rho", 2,
                   "--eps-abs", 1e-8, "--max-iter", 500, "--out", tmp_path / "a") == 0
        assert run("decompose", path, "--mode-style", "projected", "--rho", 1.0,
                   "--gamma", 0, "--out", tmp_path / "b") == 0

    def test_config_block_holds_the_parsed_flags(self, tmp_path, rng):
        path = tmp_path / "small.csv"
        save_matrix(SnapshotMatrix(rng.standard_normal((12, 30))), path, "csv")
        out = tmp_path / "art"
        assert run("decompose", path, "--grid-shape", 3, 4, "--rank", 2, "--out", out) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert sorted(config) == [
            "cycles", "dt_label", "eps_abs", "eps_rel", "format", "gamma", "grid_shape",
            "header", "input", "mask", "max_iter", "method", "mode_style", "out",
            "rank", "rho", "subtract_mean", "top_modes", "transpose"]
        assert config["grid_shape"] == [3, 4] and config["rank"] == 2
        assert config["input"] == str(path) and config["rho"] == 1.0


def unread(*args, **kwargs):
    raise AssertionError("read before the flags were checked")


class TestForeignOut:
    """An existing --out that is not what the command writes there, a
    directory of koopmode's artifacts or heatmap's image file, is refused
    before the run reads anything: exit 1, one error that names it, the
    directory as it was and no stage left next to it."""

    @pytest.fixture
    def foreign(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        return out

    @pytest.mark.parametrize("command", [
        ("decompose", "--rank", 3), ("sweep", "--rank", 3, "--gamma-count", 2),
        ("reconstruct", "--at", 0),
    ], ids=lambda command: command[0])
    @pytest.mark.filterwarnings("error")
    def test_is_refused_before_the_input_is_read(self, tmp_path, planted_csv, monkeypatch,
                                                 capsys, foreign, command):
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        monkeypatch.setattr(cli, "load_matrix", unread)
        monkeypatch.setattr(cli, "_load_model", unread)
        name, *flags = command
        args = ((name, "--artifacts", art, "--input", path) if name == "reconstruct"
                else (name, path))
        capsys.readouterr()
        assert run(*args, *flags, "--out", foreign) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: refusing to replace --out {foreign.resolve()}: "
            "not a koopmode output directory"]
        assert read_tree(foreign) == {"notes.txt": b"mine\n"}
        assert not list(tmp_path.glob(".stage-*"))

    def test_cdmd_prints_only_its_error(self, tmp_path, foreign):
        """Nothing is fitted, so the companion fit's rank-deficient Krylov
        warning that criterion 7's period-4 input raises is not printed."""
        vs = np.random.default_rng(707).standard_normal((4, 6))
        path = tmp_path / "periodic.csv"
        save_matrix(SnapshotMatrix(np.column_stack([vs[k % 4] for k in range(9)])), path, "csv")
        proc = _run_python("-m", "koopmode", "decompose", str(path), "--method", "cdmd",
                           "--out", str(foreign))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: refusing to replace --out {foreign.resolve()}: "
            "not a koopmode output directory"]

    @pytest.mark.parametrize("holding", [True, False], ids=["holding-a-file", "empty"])
    def test_heatmap_onto_a_directory_is_refused(self, tmp_path, capsys, foreign, holding):
        if not holding:
            (foreign / "notes.txt").unlink()
        grid, image = tmp_path / "g.csv", tmp_path / "g.ppm"
        grid.write_text("0,1\n")
        before = read_tree(foreign)
        assert run("heatmap", grid, foreign) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: refusing to replace {foreign.resolve()}: not a file"]
        assert read_tree(foreign) == before and foreign.is_dir()
        assert not list(tmp_path.glob(".stage-*"))
        assert run("heatmap", grid, image) == 0
        assert run("heatmap", grid, image) == 0  # its own image is replaced
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "g.ppm", "out"]


class TestGridLayout:
    """The grid holds exactly one cycle's rows, or the mask's points: a
    mismatch is an error when the input loads, before any fit."""

    @pytest.mark.parametrize("command", [
        ("decompose", "--rank", 2), ("sweep", "--rank", 2, "--gamma-count", 2),
        ("ingest-info",), ("reconstruct", "--at", 0),
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("grid, mask", [((2, 4), None), ((1, 5), None),
                                            ((2, 4), "1,1,0\n1,1,1\n")],
                             ids=["2x4", "1x5", "2x4-mask"])
    def test_mismatch_exits_2_at_load(self, tmp_path, rng, monkeypatch, capsys, command,
                                      grid, mask):
        path, art, out = tmp_path / "six.csv", tmp_path / "art", tmp_path / "out"
        save_matrix(SnapshotMatrix(rng.standard_normal((6, 30))), path, "csv")
        load = ()
        if mask is not None:  # the grid must hold the mask's 6 entries
            (tmp_path / "mask.csv").write_text(mask)
            load = ("--mask", tmp_path / "mask.csv")
        assert run("decompose", path, "--rank", 2, "--out", art) == 0
        fits = []
        monkeypatch.setattr(cli, "exact_dmd", lambda *args, **kwargs: fits.append(args))
        name, *flags = command
        args = ((name, "--artifacts", art, "--input", path) if name == "reconstruct"
                else (name, path))
        if name != "ingest-info":
            flags += ["--out", out]
        assert run(*args, *flags, *load, "--grid-shape", *grid) == 2
        n_lat, n_lon = grid
        assert (f"grid {n_lat}x{n_lon} holds {n_lat * n_lon} points, not the 6 "
                f"{'rows per cycle' if mask is None else 'mask entries'}"
                ) in capsys.readouterr().err
        assert fits == [] and not out.exists()

    @pytest.mark.parametrize("command, grid", [
        (("ingest-info",), (-2, -3)), (("decompose", "--rank", 2), (-1, -6)),
        (("sweep", "--rank", 2, "--gamma-count", 2), (-6, -1)),
        (("reconstruct", "--at", 0), (0, 6)),
    ], ids=["ingest-info", "decompose", "sweep", "reconstruct"])
    def test_dimension_below_1_is_a_usage_error(self, tmp_path, rng, monkeypatch, capsys,
                                                command, grid):
        """Each of these grids but 0x6 holds the 6 rows by its product."""
        path, art, out = tmp_path / "six.csv", tmp_path / "art", tmp_path / "out"
        save_matrix(SnapshotMatrix(rng.standard_normal((6, 20))), path, "csv")
        assert run("decompose", path, "--rank", 2, "--out", art) == 0
        monkeypatch.setattr(cli, "load_matrix", unread)
        name, *flags = command
        args = ((name, "--artifacts", art, "--input", path) if name == "reconstruct"
                else (name, path))
        if name != "ingest-info":
            flags += ["--out", out]
        capsys.readouterr()
        assert run(*args, *flags, "--grid-shape", *grid) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: argument --grid-shape: must be finite and >= 1, "
            f"got {next(d for d in grid if d < 1)}"]
        assert not out.exists()

    def test_matching_grid_is_summarized(self, tmp_path, rng):
        path, out = tmp_path / "six.csv", tmp_path / "art"
        save_matrix(SnapshotMatrix(rng.standard_normal((6, 30))), path, "csv")
        assert run("decompose", path, "--rank", 2, "--grid-shape", 2, 3, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["grid_shape"] == [2, 3]
        assert read_csv(out / "modes" / "0_abs.csv").shape == (2, 3)
        assert run("decompose", path, "--rank", 2, "--cycles", 2, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["grid_shape"] == [1, 6]


class TestRawInputHeader:
    """--header skips one CSV line. Raw input has none, so with raw-float64
    the flag is a usage error, exit 1, in every subcommand that loads input,
    publishing nothing."""

    @pytest.mark.parametrize("command", [
        ("decompose", "--rank", 2), ("sweep", "--rank", 2, "--gamma-count", 2),
        ("ingest-info",), ("reconstruct", "--at", 0),
    ], ids=lambda command: command[0])
    def test_is_a_usage_error_and_publishes_nothing(self, tmp_path, rng, capsys, command):
        X = SnapshotMatrix(rng.standard_normal((6, 30)))
        raw, art, out = tmp_path / "six.bin", tmp_path / "art", tmp_path / "out"
        save_matrix(X, raw, "raw-float64")
        name, *flags = command
        args = (name, raw)
        if name == "reconstruct":
            save_matrix(X, tmp_path / "six.csv", "csv")
            assert run("decompose", tmp_path / "six.csv", "--rank", 2, "--out", art) == 0
            args = (name, "--artifacts", art, "--input", raw)
        if name != "ingest-info":
            flags += ["--out", out]
        capsys.readouterr()
        assert run(*args, *flags, "--format", "raw-float64", "--header") == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --header applies to --format csv only, not raw-float64"]
        assert captured.out == "" and not out.exists()
        assert run(*args, *flags, "--format", "raw-float64") == 0  # the flag alone fails


class TestRawSidecar:
    """A raw-float64 sidecar must give rows and cols as non-negative JSON
    integers; any other sidecar exits 2 naming it."""

    @pytest.mark.parametrize("text", [
        '{"rows": 4}', '{"rows": "x", "cols": 3}', '{"rows": -3, "cols": -4}',
        '{"rows": true, "cols": 12}', '[4, 3]', '{rows: 4, cols: 3}',
    ], ids=["no-cols", "string-rows", "negative", "boolean", "not-an-object", "not-json"])
    def test_malformed_sidecar_exits_2_naming_it(self, tmp_path, capsys, text):
        raw = tmp_path / "raw.bin"
        save_matrix(SnapshotMatrix(np.ones((4, 3))), raw, "raw-float64")  # 96 bytes
        raw.with_suffix(".bin.json").write_text(text)
        capsys.readouterr()
        assert run("ingest-info", raw, "--format", "raw-float64") == 2
        assert f"error: sidecar {raw}.json " in capsys.readouterr().err


class TestLandMask:
    """--mask drops the rows it flags 0 before the input is checked, so land
    cells may hold NaN or inf: the run is the one on the same input with
    finite values there."""

    MASK = "1,1,0\n1,0,1\n"  # rows 2 and 4 are land

    @pytest.fixture
    def inputs(self, tmp_path):
        X, _ = planted_matrix(6, 40, [0.95 * np.exp(0.4j), 0.9], [2.0, 1.0], seed=13)
        land = X.data.copy()
        land[2] = np.nan
        land[4, ::2], land[4, 1::2] = np.inf, -np.inf
        (tmp_path / "mask.csv").write_text(self.MASK)
        return X.data, land

    @pytest.mark.parametrize("command", [
        ("decompose", "--rank", 3, "--out"), ("decompose", "--method", "cdmd", "--out"),
        ("sweep", "--rank", 3, "--gamma-count", 3, "--out"), ("ingest-info",),
        ("reconstruct", "--at", 0, "--at", 5, "--horizon", 2, "--out"),
    ], ids=lambda command: "-".join(map(str, command[:3])))
    def test_non_finite_land_loads_as_its_finite_twin(self, tmp_path, inputs, capsys,
                                                     command):
        path, out, art = tmp_path / "data.csv", tmp_path / "out", tmp_path / "art"
        load = ("--mask", tmp_path / "mask.csv", "--grid-shape", 2, 3)
        name, *flags = command
        if name == "reconstruct":
            save_matrix(SnapshotMatrix(inputs[0]), path, "csv")
            assert run("decompose", path, *load, "--rank", 3, "--out", art) == 0
        reports = []
        for data in inputs:  # the same path and --out, so the bytes can be compared
            write_csv(path, data, ",".join(["%.17g"] * data.shape[1]))
            args = (("reconstruct", "--artifacts", art, "--input", path) if name == "reconstruct"
                    else (name, path))
            with warns_of(*((KRYLOV, NEAR_SINGULAR) if "cdmd" in flags else ())):
                assert run(*args, *flags, *([out] if flags[-1:] == ["--out"] else []),
                           *load) == 0
            reports.append((capsys.readouterr().out, read_tree(out) if out.exists() else {}))
        assert b"nan" in path.read_bytes() and b"-inf" in path.read_bytes()
        assert reports[0] == reports[1] and any(reports[0])
        if name == "decompose":
            grid = read_csv(out / "modes" / "0_abs.csv")
            np.testing.assert_array_equal(np.isnan(grid), [[0, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize("mask, status", [("1,2,0\n1,1,1\n", 2), ("1,0.5,0\n1,1,1\n", 2),
                                              ("1,nan,0\n1,1,1\n", 2), (None, 1)])
    def test_bad_mask_leaves_no_output(self, tmp_path, inputs, mask, status):
        path, out = tmp_path / "data.csv", tmp_path / "out"
        save_matrix(SnapshotMatrix(inputs[0]), path, "csv")
        if mask is None:  # --mask without --grid-shape is a usage error
            (tmp_path / "mask.csv").write_text("1,1,1\n1,1,1\n")
            load = ("--mask", tmp_path / "mask.csv")
        else:
            (tmp_path / "mask.csv").write_text(mask)
            load = ("--mask", tmp_path / "mask.csv", "--grid-shape", 2, 3)
        assert run("decompose", path, *load, "--out", out) == status
        assert not out.exists()


class TestSubtractMean:
    def test_mean_csv_holds_the_subtracted_row_means(self, tmp_path, rng):
        path, out = tmp_path / "small.csv", tmp_path / "art"
        save_matrix(SnapshotMatrix(rng.standard_normal((4, 30)) + 5.0), path, "csv")
        flags = ("--cycles", 3, "--rank", 2, "--out", out)
        assert run("decompose", path, *flags, "--subtract-mean") == 0
        mean = np.loadtxt(out / "mean.csv", ndmin=1)
        expected = stack_cycles(load_matrix(path), 3).data.mean(axis=1)
        assert mean.shape == (12,) and mean.tobytes() == expected.tobytes()
        assert run("decompose", path, *flags) == 0  # replaces the directory
        assert not (out / "mean.csv").exists()

    @pytest.fixture
    def anomaly_model(self, tmp_path, rng):
        """decompose --subtract-mean, masked and cycle-stacked, of two planted
        oscillations on row offsets far from zero: the input, its load flags
        and the artifacts."""
        # whole periods of the stacked steps (20 of them), so the row means are the
        # offsets and the anomalies are the two planted pairs: the fit is exact
        lams = [np.exp(2j * np.pi / 10), np.exp(2j * np.pi / 20)]
        X, _ = planted_matrix(12, 60, lams, [2.0, 1.0], seed=13)
        path, mask, art = tmp_path / "data.csv", tmp_path / "mask.csv", tmp_path / "art"
        save_matrix(SnapshotMatrix(X.data + rng.uniform(5.0, 10.0, (12, 1))), path, "csv")
        mask.write_text("1,1,1,1\n1,0,1,1\n1,1,1,0\n")
        load = ("--mask", mask, "--grid-shape", 3, 4, "--cycles", 3)
        assert run("decompose", path, *load, "--rank", 4, "--subtract-mean", "--out", art) == 0
        return path, load, art

    def test_reconstruct_adds_the_mean_back(self, tmp_path, anomaly_model):
        path, load, art = anomaly_model
        out = tmp_path / "rec"
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--at", 10, "--at", 18,
                   "--horizon", 4, "--input", path, *load, "--out", out) == 0
        # the raw input, not its anomalies: without the mean each error would be about 1
        errors = json.loads((out / "recon_report.json").read_text())["relative_errors"]
        assert sorted(errors) == ["0", "10", "18"] and max(errors.values()) <= 1e-8
        model, mean, n_train = cli._load_model(art)
        assert mean.tobytes() == np.loadtxt(art / "mean.csv", ndmin=1).tobytes()  # the report's
        anomaly = reconstruct(model, n_train, 4)[0]
        written = np.loadtxt(out / "forecast.csv", delimiter=",", ndmin=2)
        assert written.tobytes() == (anomaly + mean[:, None]).tobytes()

    @pytest.mark.parametrize("case", ["missing", "wrong-length"])
    def test_unusable_mean_exits_2(self, tmp_path, art, capsys, case):
        """The model's mean: its file missing, or not one per row of the modes."""
        model_fails(tmp_path, art, capsys, case)


class TestDataOutsideFloat64:
    """Data whose fitted snapshots' sum of squares is not a finite positive
    float64 exits 2 before any fit, with one error naming the input: once it
    wrote NaN into summary.json and sweep.csv, or failed with warnings and an
    error about an internal quantity."""

    @pytest.mark.filterwarnings("error")  # the error alone
    @pytest.mark.parametrize("shape, scale, flags, energy", [
        ((1, 13), 1e200, ("decompose", "--method", "spdmd", "--gamma", 1, "--rho", 1e8), "inf"),
        ((3, 11), 0.0, ("decompose", "--method", "cdmd"), "0"),
        ((1, 13), 1e-300, ("decompose", "--method", "dmd"), "0"),
        ((3, 11), 1e200, ("sweep", "--subtract-mean", "--gamma-count", 3), "inf"),
    ], ids=["scaled-1e200", "all-zero", "scaled-1e-300", "sweep-scaled-1e200"])
    def test_exits_2_naming_the_input(self, tmp_path, rng, capsys, shape, scale, flags,
                                      energy):
        path = tmp_path / "data.csv"
        np.savetxt(path, scale * rng.standard_normal(shape), fmt="%.17g", delimiter=",")
        out = tmp_path / "out"
        assert run(flags[0], path, *flags[1:], "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: the sum of squares of the snapshots to fit is {energy}, not a "
            "finite positive float64 (the data is all zero, or its magnitude is outside "
            "about 1e-154 to 1e154)"]
        assert not out.exists()

    def test_json_artifacts_refuse_nan(self):
        with pytest.raises(ValueError, match="JSON"):
            cli._json_text({"full_fit_loss_percent": float("nan")})


class TestModesFormedOnce:
    """The amplitude problem is built from the modes' factors B W: sweep and
    decompose never form the p x r complex modes, and a caller of the fitted
    result forms them once, in their final order. The SVD is computed up
    front, since its own factors are not what these tests measure."""

    P, M, RANK = 4000, 60, 20

    @pytest.fixture
    def tall(self, rng, monkeypatch):
        X = SnapshotMatrix(rng.standard_normal((self.P, self.M)))
        svd = truncated_svd(X.data[:, :-1], self.RANK)
        monkeypatch.setattr(dmd, "truncated_svd", lambda Y, rank=None: svd)
        return X, 16 * self.P * self.RANK  # the bytes of one p x r complex array

    def test_sweep_allocates_no_complex_modes(self, tall):
        X, modes_bytes = tall
        args = cli.build_parser().parse_args(["sweep", "in.csv", "--rank", str(self.RANK)])
        _, peak = allocation_peak(cli._decompose, args, X, [])
        assert peak < modes_bytes

    @pytest.mark.parametrize("flags", [(), ("--method", "spdmd", "--gamma", "1")])
    def test_decompose_forms_the_modes_once(self, tall, flags):
        X, modes_bytes = tall
        args = cli.build_parser().parse_args(
            ["decompose", "in.csv", "--rank", str(self.RANK), *flags])

        def fit_and_form():
            result, _, _ = cli._fit(args, X, [])
            return result, result.modes

        (result, modes), peak = allocation_peak(fit_and_form)
        assert modes.shape == (self.P, result.rank) and modes.dtype == complex
        assert peak < 2 * modes_bytes  # never a second p x r complex array
        assert result.modes is modes  # formed once, then kept

    @pytest.fixture
    def written(self, tall, tmp_path):
        """A fitted result, and the artifacts _write_decomposition wrote of it
        with the peak bytes it allocated doing so. The grid writes one short
        line per latitude, as a map does, not one p-wide line."""
        X = SnapshotMatrix(tall[0].data, grid_shape=(40, self.P // 40))
        args = cli.build_parser().parse_args(["decompose", "in.csv", "--rank", str(self.RANK)])
        result, loss, admm = cli._fit(args, X, [])
        art = tmp_path / "art"
        art.mkdir()
        _, peak = allocation_peak(cli._write_decomposition, art, args, X, np.zeros(X.p), result,
                                  loss, admm)
        return result, art, peak

    def test_write_allocates_no_complex_modes(self, tall, written):
        _, modes_bytes = tall
        result, art, peak = written
        stored = read_model(art)["modes"]
        assert stored.shape == (self.P, conjugate_representatives(result.eigenvalues).size)
        assert peak < modes_bytes
        assert "modes" not in vars(result)  # the cached p x r product was never formed

    def test_load_allocates_no_complex_modes(self, tall, written):
        _, modes_bytes = tall
        _, art, _ = written
        (model, _, _), peak = allocation_peak(cli._load_model, art)
        assert peak < modes_bytes
        assert np.isrealobj(model.basis) and model.basis.shape[1] < 2 * self.RANK


class TestFullFitLoss:
    """summary.json's full_fit_loss_percent is the written model's residual,
    100 ||Y - Re(Phi diag(b) Xi)||_F / ||Y||_F, which does not cancel when the
    fit is close, as the expansion b*Pb - 2 Re(q*b) + s does."""

    @pytest.mark.parametrize("flags", [("--rank", 9),
                                       ("--method", "spdmd", "--rank", 9, "--gamma", 1e-6)])
    def test_matches_a_residual_oracle(self, tmp_path, rng, flags):
        lams = [0.99 * np.exp(0.3j), 0.97 * np.exp(0.9j), 0.9 * np.exp(1.7j), 0.8,
                0.6 * np.exp(2.5j)]
        X, _ = planted_matrix(20, 60, lams, [5.0, 2.0, 1.0, 0.5, 0.3], seed=13)
        data = X.data + 1e-9 * rng.standard_normal(X.data.shape)
        path, art = tmp_path / "data.csv", tmp_path / "art"
        save_matrix(SnapshotMatrix(data), path, "csv")
        assert run("decompose", path, *flags, "--out", art) == 0
        loss = json.loads((art / "summary.json").read_text())["full_fit_loss_percent"]
        rows = np.loadtxt(art / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        lam, b = rows[:, 1] + 1j * rows[:, 2], rows[:, 6] + 1j * rows[:, 7]
        Y = data[:, :-1]
        fit = np.real((every_mode(art) * b) @ lam[:, None] ** np.arange(Y.shape[1]))
        oracle = 100 * np.linalg.norm(Y - fit) / np.linalg.norm(Y)
        assert 0 < oracle < 1e-5  # a close fit, where the expansion cancels
        assert abs(loss - oracle) <= 1e-6 * oracle


class TestSweep:
    def test_single_gamma_zero(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "sw"
        assert run("sweep", path, "--rank", 3, "--gamma-min", 0, "--gamma-max", 0,
                   "--gamma-count", 1, "--out", out) == 0
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1,
                          usecols=(0, 1, 2, 3, 4), ndmin=2)
        assert rows.shape[0] == 1
        assert rows[0, 1] == 3  # cardinality = rank at gamma 0

    def test_pareto_cardinality_strictly_decreasing(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "sw"
        assert run("sweep", path, "--rank", 3, "--gamma-min", 1e-3,
                   "--gamma-max", 1e4, "--gamma-count", 25, "--out", out) == 0
        pareto = np.loadtxt(out / "pareto.csv", delimiter=",", skiprows=1,
                            usecols=(0, 1, 3), ndmin=2)
        cards = pareto[:, 1]
        assert np.all(np.diff(cards) < 0)

    def test_sweep_rows_ascending_in_gamma(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "sw"
        assert run("sweep", path, "--rank", 3, "--gamma-min", 1e-2,
                   "--gamma-max", 1e3, "--gamma-count", 8, "--out", out) == 0
        gammas = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1,
                            usecols=0, ndmin=1)
        assert np.all(np.diff(gammas) > 0)

    def test_requires_positive_gamma_min_for_grid(self, planted_csv, tmp_path):
        path, _ = planted_csv
        assert run("sweep", path, "--gamma-min", 0, "--gamma-count", 5,
                   "--out", tmp_path / "sw") == 1

    @pytest.mark.parametrize("flags", [
        ("--gamma-count", 0), ("--rho", 0), ("--rho", -1), ("--max-iter", 0),
        ("--eps-abs", -0.001), ("--gamma-min", -1, "--gamma-count", 1), ("--rank", 0),
        ("--gamma-min", 10, "--gamma-max", 1),
        ("--gamma-min", 0.5, "--gamma-max", 1e9, "--gamma-count", 1),
        ("--gamma-max", "inf"),
    ])
    def test_out_of_range_value_is_usage_error(self, planted_csv, tmp_path, flags):
        path, _ = planted_csv
        out = tmp_path / "sw"
        assert run("sweep", path, *flags, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # CI's development-mode setting
    def test_zero_mode_is_thresholded_silently(self, tmp_path):
        """This series' one eigenvalue, and so its exact mode, is exactly 0; the
        threshold of its zero coordinate overflowed once kappa passed about 2.8."""
        path = tmp_path / "zero_mode.csv"
        np.savetxt(path, [[-1, -3, 1, 0, 2, 0, 2, 0, 0]], fmt="%.17g", delimiter=",")
        out = tmp_path / "sw"
        with warns_of(NEAR_SINGULAR):
            assert run("sweep", path, "--gamma-count", 5, "--out", out) == 0
        assert [(row["cardinality"], float(row["loss_percent"]))
                for row in read_rows(out / "sweep.csv")] == [("0", 100.0)] * 5

    def test_takes_no_method_flag(self, planted_csv, tmp_path):
        path, _ = planted_csv
        assert run("sweep", path, "--method", "spdmd", "--out", tmp_path / "sw") == 1

    def test_one_gamma_row_is_the_decompose_fit(self, tmp_path, smoke_csv):
        """A one-gamma sweep solves what decompose --method spdmd solves at
        that gamma: the same loss, splitting report and mode count."""
        sw, art = tmp_path / "sw", tmp_path / "art"
        assert run("sweep", smoke_csv, "--rank", 4, "--gamma-min", 1, "--gamma-max", 1,
                   "--gamma-count", 1, "--out", sw) == 0
        assert run("decompose", smoke_csv, "--rank", 4, "--method", "spdmd", "--gamma", 1,
                   "--out", art) == 0
        (row,) = read_rows(sw / "sweep.csv")
        summary = json.loads((art / "summary.json").read_text())
        admm = summary["admm"]
        assert (float(row["loss_percent"]), int(row["iterations"]), float(row["rho"]),
                row["converged"] == "true", int(row["cardinality"])) == (
            summary["full_fit_loss_percent"], admm["iterations"], admm["rho"],
            admm["converged"], summary["rank"])

    def test_takes_no_dt_label_flag(self, planted_csv, tmp_path, capsys):
        """sweep writes no summary.json, so it has no time unit to record."""
        path, _ = planted_csv
        out = tmp_path / "sw"
        assert run("sweep", path, "--rank", 3, "--gamma-count", 3, "--dt-label", "month",
                   "--out", out) == 1
        assert "--dt-label" in capsys.readouterr().err
        assert not out.exists()


FIVE_MODE_RANK = 9  # four conjugate pairs and one real eigenvalue


@pytest.fixture
def five_mode_csv(tmp_path):
    lams = [0.99 * np.exp(0.3j), 0.97 * np.exp(0.9j), 0.9 * np.exp(1.7j), 0.8,
            0.6 * np.exp(2.5j)]
    X, _ = planted_matrix(20, 60, lams, [5.0, 2.0, 1.0, 0.5, 0.3], seed=13)
    path = tmp_path / "five.csv"
    save_matrix(X, path, "csv")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fixed_rho_sweep(path, gammas):
    """The library's sweep on a CSV with rho held at 1 (no rho changes),
    converged well inside its cap."""
    data = load_matrix(path).data
    result = exact_dmd(data, rank=FIVE_MODE_RANK)
    form = quadratic_form(data[:, :-1], result.basis, result.coefficients, result.eigenvalues)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spdmd, "RHO_MAX_CHANGES", 0)
        solutions = gamma_sweep(form, gammas, AdmmParams(max_iter=100000))
    assert all(s.admm.converged for s in solutions)
    return solutions


class TestSpdmdSplittingReport:
    """decompose --method spdmd records what its splitting did, and an empty
    support from a solve cut short names --max-iter, not gamma."""

    def test_summary_records_the_splitting(self, tmp_path, five_mode_csv):
        out = tmp_path / "art"
        for max_iter, want_converged in ((20, False), (10000, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run("decompose", five_mode_csv, "--rank", FIVE_MODE_RANK, "--method",
                           "spdmd", "--gamma", 100, "--max-iter", max_iter, "--out", out) == 0
            # a fit the splitting stopped short of still warns, once, from the CLI
            assert [str(w.message) for w in caught] == ([] if want_converged else [
                "the splitting stopped at --max-iter 20 without converging at gamma=100.0"])
            assert not caught or caught[0].filename == cli.__file__
            admm = json.loads((out / "summary.json").read_text())["admm"]
            assert sorted(admm) == ["converged", "iterations", "rho"]
            assert admm["converged"] is want_converged
            assert (admm["iterations"] < max_iter) is want_converged
            assert math.log2(admm["rho"]).is_integer()
        with warnings.catch_warnings(record=True) as caught:  # a filter by module still holds
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", module=r"koopmode\.cli\Z")
            assert run("decompose", five_mode_csv, "--rank", FIVE_MODE_RANK, "--method",
                       "spdmd", "--gamma", 100, "--max-iter", 20, "--out", out) == 0
        assert caught == []

    def test_unconverged_sweep_warns_once_counting_its_false_cells(self, tmp_path,
                                                                   five_mode_csv):
        out = tmp_path / "sw"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("sweep", five_mode_csv, "--rank", FIVE_MODE_RANK, "--gamma-min", 1e-2,
                       "--gamma-max", 1e3, "--gamma-count", 8, "--max-iter", 20,
                       "--out", out) == 0
        stalled = [row["converged"] for row in read_rows(out / "sweep.csv")].count("false")
        assert stalled > 1  # one line for all of them
        assert [(str(w.message), w.filename) for w in caught] == [(
            f"the splitting stopped at --max-iter 20 without converging at {stalled} of 8 "
            "gamma values (sweep.csv's converged column)", cli.__file__)]

    @pytest.mark.filterwarnings("error")  # the library returns convergence and warns of nothing
    def test_library_sweep_reports_convergence_as_data(self, five_mode_csv):
        data = load_matrix(five_mode_csv).data
        result = exact_dmd(data, rank=FIVE_MODE_RANK)
        form = quadratic_form(data[:, :-1], result.basis, result.coefficients,
                              result.eigenvalues)
        solutions = gamma_sweep(form, log_gamma_grid(1e-2, 1e3, 8), AdmmParams(max_iter=20))
        assert not all(s.admm.converged for s in solutions)

    @pytest.mark.filterwarnings("error")  # the error alone
    def test_converged_empty_support_names_gamma(self, tmp_path, five_mode_csv, capsys):
        out = tmp_path / "art"
        assert run("decompose", five_mode_csv, "--rank", FIVE_MODE_RANK, "--method", "spdmd",
                   "--gamma", 1e9, "--out", out) == 2
        err = capsys.readouterr().err
        assert "--gamma 1000000000.0 zeroed out every amplitude" in err and "--max-iter" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # the error alone: the solver's warning is dropped
    def test_unconverged_empty_support_names_max_iter(self, tmp_path, five_mode_csv, capsys):
        out = tmp_path / "art"
        assert run("decompose", five_mode_csv, "--rank", FIVE_MODE_RANK, "--method", "spdmd",
                   "--gamma", 1000, "--max-iter", 20, "--out", out) == 2
        err = capsys.readouterr().err
        assert "--max-iter 20" in err and "zeroed out" not in err
        assert not out.exists()


class TestBalancedSplitting:
    """At --max-iter 100, fixed rho = 1 stops short on the three largest gammas
    (it needs 154 to 337 iterations) and, cold at gamma 1000, keeps no mode
    of the two the optimum keeps; residual balancing converges everywhere."""

    def test_sweep_converges_where_fixed_rho_stops_at_the_cap(self, tmp_path, five_mode_csv):
        out = tmp_path / "sw"
        assert run("sweep", five_mode_csv, "--rank", FIVE_MODE_RANK, "--gamma-min", 1e-2,
                   "--gamma-max", 1e3, "--gamma-count", 16, "--max-iter", 100,
                   "--out", out) == 0
        sweep, pareto = read_rows(out / "sweep.csv"), read_rows(out / "pareto.csv")
        assert [row["converged"] for row in sweep + pareto] == ["true"] * (16 + len(pareto))
        reference = fixed_rho_sweep(five_mode_csv, log_gamma_grid(1e-2, 1e3, 16))
        assert [int(row["cardinality"]) for row in sweep] == [s.cardinality for s in reference]
        assert list(sweep[0]) == ["gamma", "cardinality", "cost", "loss_percent",
                                  "iterations", "converged", "rho"]
        # rho starts at --rho 1 and stays on its powers of two
        assert all(math.log2(float(row["rho"])).is_integer() for row in sweep + pareto)

    def test_decompose_amplitudes_match_the_fixed_rho_optimum(self, tmp_path, five_mode_csv):
        out = tmp_path / "art"
        assert run("decompose", five_mode_csv, "--rank", FIVE_MODE_RANK, "--method", "spdmd",
                   "--gamma", 1000, "--max-iter", 100, "--out", out) == 0
        rows = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        (optimum,) = fixed_rho_sweep(five_mode_csv, np.array([1000.0]))
        assert optimum.cardinality == 2
        assert sorted(rows[:, 0].astype(int)) == optimum.support.tolist()
        want = optimum.b_polished[rows[:, 0].astype(int)]
        np.testing.assert_allclose(rows[:, 6] + 1j * rows[:, 7], want, rtol=1e-10, atol=0)


class TestReconstruct:
    def test_full_model_reconstruction_error(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        out = tmp_path / "rec"
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--at", 7,
                   "--horizon", 5, "--input", path, "--out", out) == 0
        report = json.loads((out / "recon_report.json").read_text())
        assert max(report["relative_errors"].values()) <= 1e-8
        assert (out / "recon_0.csv").exists()
        assert (out / "recon_7.csv").exists()
        fc = np.loadtxt(out / "forecast.csv", delimiter=",", ndmin=2)
        assert fc.shape == (12, 5)

    def test_report_records_the_forecast_imag_residual(self, tmp_path, planted_csv):
        """recon_report.json records the largest imaginary residual of the
        forecast window, as rom.reconstruct returns it, and null without one."""
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        with warns_of(KRYLOV, NEAR_SINGULAR):
            assert run("decompose", path, "--method", "cdmd", "--out", art) == 0
        model, _, n_train = cli._load_model(art)
        assert n_train == json.loads((art / "summary.json").read_text())["data_shape"][1] - 1
        for horizon in (1, 40):
            assert run("reconstruct", "--artifacts", art, "--at", 3, "--horizon", horizon,
                       "--out", out) == 0
            report = json.loads((out / "recon_report.json").read_text())
            worst = report["forecast_imag_residual"]
            assert worst == np.max(reconstruct(model, n_train, horizon)[1]) and worst <= 1e-12
        assert run("reconstruct", "--artifacts", art, "--at", 3, "--out", out) == 0
        assert json.loads((out / "recon_report.json").read_text())["forecast_imag_residual"] is None

    @pytest.mark.parametrize("signal, flags", [
        ("smoke", ("--method", "spdmd", "--rank", 4, "--gamma", 1)),
        ("smoke", ("--rank", 4, "--mode-style", "projected")),
        ("smoke", ("--method", "cdmd", "--subtract-mean")),
        ("real", ("--rank", 2)),
    ], ids=["spdmd", "projected", "cdmd-mean", "real-spectrum"])
    def test_exact_fit_rebuilds_the_raw_input(self, tmp_path, rng, signal, flags):
        """Each fit here is exact, so the model the artifacts hold rebuilds the
        first and last training snapshots of the raw input: from the modes SPDMD
        keeps, from the SVD's U as the basis, with mean.csv added back, and from
        the float64 eigenvectors of an all-real spectrum."""
        data = smoke_matrix() if signal == "smoke" else real_exponentials(rng, 6, [0.9, 0.5], 40)
        path, art, out = tmp_path / "data.csv", tmp_path / "art", tmp_path / "rec"
        save_matrix(SnapshotMatrix(data), path, "csv")
        with warns_of(*((KRYLOV,) if "cdmd" in flags else ())):
            assert run("decompose", path, *flags, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--input", path, "--at", 0, "--at", 38,
                   "--out", out) == 0
        errors = json.loads((out / "recon_report.json").read_text())["relative_errors"]
        assert sorted(errors) == ["0", "38"] and max(errors.values()) <= 1e-8

    def test_input_with_cycles_mask_and_grid_shape(self, tmp_path):
        X, _ = planted_matrix(12, 60, [0.95 * np.exp(0.4j), 0.9], [2.0, 1.0], seed=13)
        path, mask = tmp_path / "data.csv", tmp_path / "mask.csv"
        save_matrix(X, path, "csv")
        mask.write_text("1,1,1,1\n1,0,1,1\n1,1,1,0\n")
        load = ("--mask", mask, "--grid-shape", 3, 4, "--cycles", 3)
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, *load, "--rank", 3, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--at", 10, "--at", 18,
                   "--input", path, *load, "--out", out) == 0
        report = json.loads((out / "recon_report.json").read_text())
        assert sorted(report["relative_errors"]) == ["0", "10", "18"]
        assert max(report["relative_errors"].values()) <= 1e-8
        assert np.loadtxt(out / "recon_0.csv").shape == (30,)

    def test_index_past_the_input_has_a_null_error(self, tmp_path):
        X, _ = planted_matrix(12, 40, [0.95 * np.exp(0.4j), 0.9], [2.0, 1.0], seed=13)
        path, art, out = tmp_path / "data.csv", tmp_path / "art", tmp_path / "rec"
        save_matrix(X, path, "csv")
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--at", 60,
                   "--input", path, "--out", out) == 0
        errors = json.loads((out / "recon_report.json").read_text())["relative_errors"]
        assert sorted(errors) == ["0", "60"]
        assert errors["0"] <= 1e-8 and errors["60"] is None
        assert (out / "recon_60.csv").exists()

    def test_negative_index_rejected(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--at", -1, "--out", out) == 1
        assert not out.exists()

    def test_indices_without_horizon(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--at", 3, "--out", out) == 0
        report = json.loads((out / "recon_report.json").read_text())
        assert report["horizon"] is None and report["indices"] == [3]
        assert report["forecast_imag_residual"] is None
        assert (out / "recon_3.csv").exists() and not (out / "forecast.csv").exists()

    def test_nothing_requested_is_usage_error(self, tmp_path, planted_csv, capsys):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--input", path, "--out", out) == 1
        assert "need --at indices or --horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_input_with_other_row_count_exits_2(self, tmp_path, rng, capsys):
        path, short = tmp_path / "six.csv", tmp_path / "five.csv"
        art, out = tmp_path / "art", tmp_path / "rec"
        data = rng.standard_normal((6, 30))
        save_matrix(SnapshotMatrix(data), path, "csv")
        save_matrix(SnapshotMatrix(data[:5]), short, "csv")
        assert run("decompose", path, "--rank", 2, "--out", art) == 0
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--input", short,
                   "--out", out) == 2
        assert (f"--input {short} has p=5 rows, model expects 6"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_horizon_rejected(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--horizon", 0,
                   "--out", tmp_path / "rec") == 1

    def test_stationary_only_model_constant_forecast(self, tmp_path, rng):
        v = rng.standard_normal(5) + 2.0
        X = SnapshotMatrix(np.column_stack([v] * 12))
        path = tmp_path / "const.csv"
        save_matrix(X, path, "csv")
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 1, "--out", art) == 0
        out = tmp_path / "rec"
        assert run("reconstruct", "--artifacts", art, "--horizon", 4,
                   "--out", out) == 0
        fc = np.loadtxt(out / "forecast.csv", delimiter=",", ndmin=2)
        for step in range(1, 4):
            np.testing.assert_allclose(fc[:, step], fc[:, 0], atol=1e-9)

    @pytest.mark.parametrize("request_flags", [("--horizon", 20000), ("--at", 20000)],
                             ids=["horizon", "at"])
    def test_overflowing_snapshot_exits_2(self, tmp_path, capsys, request_flags):
        # a 1.05-growth mode: its snapshots' sum of squares overflows float64 near
        # step 7,000, so neither request can be written
        X, _ = planted_matrix(8, 40, [1.05, 0.9 * np.exp(0.5j)], [1.0, 1.0], seed=5)
        path, art, out = tmp_path / "data.csv", tmp_path / "art", tmp_path / "rec"
        save_matrix(X, path, "csv")
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--at", 0, *request_flags,
                   "--out", out) == 2
        assert re.search(r"error: the snapshot at step \d+ overflows float64",
                         capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--cycles", 3), ("--grid-shape", 3, 4),
                                       ("--mask", "mask.csv"), ("--format", "raw-float64"),
                                       ("--header",), ("--transpose",)],
                             ids=lambda flags: flags[0])
    def test_load_flag_without_input_is_usage_error(self, tmp_path, planted_csv, capsys,
                                                    flags):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--at", 0, *flags, "--out", out) == 1
        assert f"{flags[0]} without --input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, error", [
        (("--mask", "mask.csv"), "--mask requires --grid-shape"),
        (("--format", "raw-float64", "--header"),
         "--header applies to --format csv only, not raw-float64"),
    ], ids=["mask", "header"])
    def test_input_layout_error_reads_no_file(self, tmp_path, monkeypatch, capsys, flags,
                                              error):
        """--input's layout rules are usage errors, found before the run reads
        the model or the input: the model here is an empty directory."""
        art, out = tmp_path / "art", tmp_path / "rec"
        (art / "model").mkdir(parents=True)
        monkeypatch.setattr(cli, "_load_model", unread)
        monkeypatch.setattr(cli, "load_matrix", unread)
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--input",
                   tmp_path / "in.csv", *flags, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    def test_takes_no_subtract_mean_flag(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--input", path,
                   "--subtract-mean", "--out", out) == 1
        assert not out.exists()

    def test_missing_artifacts(self, tmp_path):
        assert run("reconstruct", "--artifacts", tmp_path / "ghost",
                   "--horizon", 2, "--out", tmp_path / "rec") == 2

    @staticmethod
    def _older_layout_fails(tmp_path, planted_csv, capsys, layout):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        make_older_layout(art, layout)
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {art / 'model'} is not a koopmode model (decompose again): [Errno 2] No "
            f"such file or directory: '{art / 'model' / 'method.npy'}'"]
        assert not out.exists()

    def test_pre_npy_artifacts_are_missing_the_modes(self, tmp_path, planted_csv, capsys):
        self._older_layout_fails(tmp_path, planted_csv, capsys, "modes_matrix.csv")

    def test_pre_model_artifacts_are_missing_the_model(self, tmp_path, planted_csv, capsys):
        """The layouts before model/, modes_matrix.npy or model.npz with the
        reports, are not read: reconstruct takes the model from model/ alone."""
        for layout in ("modes_matrix.npy", "model.npz"):
            self._older_layout_fails(tmp_path, planted_csv, capsys, layout)

    @pytest.mark.parametrize("case", ["object-dtype", "real-1d", "rank-mismatch"])
    def test_malformed_modes_matrix_rejected(self, tmp_path, art, capsys, case):
        """The model's modes: an object array, which is not unpickled, a real
        vector, or a column per eigenvalue, the layout before one column per
        conjugate pair."""
        model_fails(tmp_path, art, capsys, case)


def _with_first(value):
    """A copy of a field with its first entry set to value."""
    def change(field):
        field = field.copy()
        field.flat[0] = value
        return field
    return change


def _set_field(name, change):
    """Damage to the model: field name becomes change(its value), None deleting its file."""
    return lambda art: rewrite_model(art, **{name: change(read_model(art)[name])})


def _model_a_file(art):
    """Damage to the model: model is a plain file of CSV text, not a directory."""
    shutil.rmtree(art / "model")
    (art / "model").write_text("index,re,im\n0,1,0\n")


def _modes_npz(art):
    """Damage to the model: modes.npy is an .npz archive holding the modes."""
    modes = read_model(art)["modes"]
    with open(art / "model" / "modes.npy", "wb") as fh:
        np.savez(fh, modes=modes)


def _no_eigenvalues(art):
    """Damage to the model: every eigenvalue dropped, with its amplitude, index and mode."""
    model = read_model(art)
    rewrite_model(art, eigenvalues=model["eigenvalues"][:0], amplitudes=model["amplitudes"][:0],
                  original_indices=model["original_indices"][:0], modes=model["modes"][:, :0])


# Damage to the model/ of the art fixture (p = 12, three eigenvalues, two of
# them a pair), and what reconstruct's one error line says after
# "error: <art>/model is not a koopmode model (decompose again): ", with
# "<model>" standing for <art>/model. A field file that is missing is the
# "missing" and "n_train-missing" cases.
MODEL_DAMAGE = {
    "model-a-file": (_model_a_file, "[Errno 20] Not a directory: '<model>/method.npy'"),
    "modes-npz": (_modes_npz, r"the magic string is not correct; expected b'\x93NUMPY', "
                              r"got b'PK\x03\x04-\x00'"),  # a zip64 member's local header
    "modes-not-npy": (lambda art: (art / "model" / "modes.npy").write_text("index,re,im\n0,1,0\n"),
                      r"the magic string is not correct; expected b'\x93NUMPY', got b'index,'"),
    "object-dtype": (_set_field("modes", lambda _: np.array([1, "a"], dtype=object)),
                     "Object arrays cannot be loaded when allow_pickle=False"),
    "missing": (_set_field("mean", lambda _: None),
                "[Errno 2] No such file or directory: '<model>/mean.npy'"),
    "n_train-missing": (_set_field("n_train", lambda _: None),
                        "[Errno 2] No such file or directory: '<model>/n_train.npy'"),
    "real-1d": (_set_field("modes", lambda modes: modes.real[:, 0]),
                "modes is not complex128 of 2 dimensions"),
    "real-eigenvalues": (_set_field("eigenvalues", np.real),
                         "eigenvalues is not complex128 of 1 dimensions"),
    "complex64-amplitudes": (_set_field("amplitudes", lambda b: b.astype(np.complex64)),
                             "amplitudes is not complex128 of 1 dimensions"),
    "float-indices": (_set_field("original_indices", lambda index: index.astype(float)),
                      "original_indices is not integer of 1 dimensions"),
    "n_train-vector": (_set_field("n_train", np.atleast_1d),
                       "n_train is not integer of 0 dimensions"),
    "method-number": (_set_field("method", lambda _: np.float64(1.0)),
                      "method is not str_ of 0 dimensions"),
    "mean-nan": (_set_field("mean", _with_first(np.nan)), "mean holds a non-finite value"),
    "modes-nan": (_set_field("modes", _with_first(complex(np.nan, 0.0))),
                  "modes holds a non-finite value"),
    "amplitude-inf": (_set_field("amplitudes", _with_first(complex(np.inf, 0.0))),
                      "amplitudes holds a non-finite value"),
    "eigenvalue-nan": (_set_field("eigenvalues", _with_first(complex(0.0, np.nan))),
                       "eigenvalues holds a non-finite value"),
    # the layout before one column per conjugate pair: a column per eigenvalue
    "rank-mismatch": (_set_field("modes", lambda modes: np.ones((12, 3), dtype=complex)),
                      "modes has shape (12, 3), expected (12, 2)"),
    "amplitudes-short": (_set_field("amplitudes", lambda b: b[:-1]),
                         "amplitudes has shape (2,), expected (3,)"),
    "indices-long": (_set_field("original_indices", lambda index: np.arange(4)),
                     "original_indices has shape (4,), expected (3,)"),
    "wrong-length": (_set_field("mean", lambda mean: mean[:-1]),
                     "mean has shape (11,), expected (12,)"),
    "n_train-negative": (_set_field("n_train", lambda _: np.int64(-5)), "n_train is -5, not >= 0"),
    "no-eigenvalues": (_no_eigenvalues, "eigenvalues is empty"),
}


def model_fails(tmp_path, art, capsys, case):
    """Damage art/model as MODEL_DAMAGE[case] does: reconstruct exits 2
    with one error line naming the model, and publishes nothing."""
    damage, message = MODEL_DAMAGE[case]
    damage(art)
    out = tmp_path / "rec"
    capsys.readouterr()
    assert run("reconstruct", "--artifacts", art, "--at", 0, "--horizon", 2, "--out", out) == 2
    [line] = capsys.readouterr().err.splitlines()
    model = art / "model"
    prefix = f"error: {model} is not a koopmode model (decompose again): "
    assert line == prefix + message.replace("<model>", str(model))
    assert not out.exists() and not list(tmp_path.glob(".stage-*"))


@pytest.fixture
def art(tmp_path, planted_csv):
    """decompose --subtract-mean's artifacts of the planted input, mean.csv among them."""
    path, _ = planted_csv
    art = tmp_path / "art"
    assert run("decompose", path, "--rank", 3, "--subtract-mean", "--out", art) == 0
    return art


class TestReconstructArtifacts:
    """reconstruct reads decompose's model/, and no other artifact, as data
    from outside the program: a model of another kind, without a field, or
    with a field of another type, shape or a non-finite value exits 2 naming
    it, and writes nothing. TestReconstruct and TestSubtractMean take the
    cases of the modes and the mean from MODEL_DAMAGE too."""

    @pytest.mark.parametrize("case", ["mean-nan", "modes-nan", "amplitude-inf",
                                      "eigenvalue-nan"])
    def test_non_finite_artifact_exits_2(self, tmp_path, art, capsys, case):
        model_fails(tmp_path, art, capsys, case)

    @pytest.mark.parametrize("case", [
        "model-a-file", "modes-npz", "modes-not-npy", "n_train-missing", "real-eigenvalues",
        "complex64-amplitudes", "float-indices", "n_train-vector", "method-number",
        "amplitudes-short", "indices-long", "n_train-negative", "no-eigenvalues"])
    def test_unreadable_artifact_exits_2_naming_it(self, tmp_path, art, capsys, case):
        model_fails(tmp_path, art, capsys, case)

    def test_intact_artifacts_reconstruct(self, tmp_path, art, planted_csv):
        """The fixture's artifacts pass every check: the damage alone fails."""
        path, _ = planted_csv
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--horizon", 2,
                   "--input", path, "--out", tmp_path / "rec") == 0

    def test_reads_the_model_alone(self, tmp_path, art, planted_csv):
        """With every other artifact deleted, the reports eigenvalues.csv,
        summary.json and mean.csv among them, reconstruct writes the same bytes."""
        path, _ = planted_csv
        flags = ("--at", 0, "--at", 7, "--horizon", 5, "--input", path)
        assert run("reconstruct", "--artifacts", art, *flags, "--out", tmp_path / "rec1") == 0
        assert (art / "mean.csv").exists()
        for child in art.iterdir():
            if child.name != "model":
                shutil.rmtree(child) if child.is_dir() else child.unlink()
        assert run("reconstruct", "--artifacts", art, *flags, "--out", tmp_path / "rec2") == 0
        assert read_tree(tmp_path / "rec2") == read_tree(tmp_path / "rec1")


class TestHeatmap:
    def test_single_black_pixel(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("0.0\n")
        out = tmp_path / "g.ppm"
        assert run("heatmap", grid, out) == 0
        data = out.read_bytes()
        assert data == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_grid_as_out_is_refused(self, tmp_path):
        """out is replaced as a whole, so naming the grid it reads exits 1
        and leaves the grid as it was."""
        grid = tmp_path / "g.csv"
        grid.write_text("0,1\n1,0\n")
        assert run("heatmap", grid, tmp_path / "." / "g.csv") == 1
        assert grid.read_text() == "0,1\n1,0\n"
        assert list(tmp_path.iterdir()) == [grid]

    def test_checkerboard_min_max(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("0,1\n1,0\n")
        out = tmp_path / "g.ppm"
        assert run("heatmap", grid, out) == 0
        body = out.read_bytes().split(b"255\n", 1)[1]
        pixels = [body[i:i + 3] for i in range(0, 12, 3)]
        assert pixels == [b"\x00" * 3, b"\xff" * 3, b"\xff" * 3, b"\x00" * 3]

    def test_rescale_oracle(self, tmp_path, rng):
        grid_vals = rng.standard_normal((10, 60)) * 4 + 1
        grid = tmp_path / "g.csv"
        grid.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in grid_vals))
        out = tmp_path / "g.ppm"
        assert run("heatmap", grid, out) == 0
        body = out.read_bytes().split(b"255\n", 1)[1]
        lo, hi = grid_vals.min(), grid_vals.max()
        for i in range(10):
            for j in range(60):
                g = body[(i * 60 + j) * 3]
                want = int(round(255.0 * (grid_vals[i, j] - lo) / (hi - lo)))
                assert g == want

    def test_power_of_two_scale_renders_the_same_image(self, rng):
        """Also where hi - lo overflows, as for [1e308, -1e308, 0]: that grid
        renders, without a warning, as its copy at 2^-1024 times its values.
        Its middle cell is the exact tie 127.5, which rounds to even, 128."""
        grid = np.array([[1e308, -1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            image = render_heatmap(grid)
        assert image[-9::3] == bytes([255, 0, 128])
        assert image == render_heatmap(np.ldexp(grid, -1024))
        grid = rng.standard_normal((6, 7)) * 3 + 1
        grid[2, 3] = np.nan
        for exponent in (-1000, -1, 7, 1000):
            assert render_heatmap(np.ldexp(grid, exponent)) == render_heatmap(grid)

    @pytest.mark.parametrize("step", [1.0, 0.556, 0.1, 3.0 ** 0.5, 1e308 / 8, 1e-300, 5e-324])
    def test_levels_round_the_exact_quotient(self, rng, step):
        """Grids of small multiples of one step put many cells on exact ties,
        where float arithmetic can land either side of the half. Each level is
        255 (v - lo) / (hi - lo) in rationals, rounded half to even."""
        for _ in range(40):
            grid = rng.integers(-8, 9, size=(2, 5)) * step
            lo, hi = Fraction(grid.min()), Fraction(grid.max())
            want = [0 if hi == lo else round(255 * (Fraction(v) - lo) / (hi - lo))
                    for v in grid.ravel()]
            assert list(render_heatmap(grid).split(b"\n", 3)[3][::3]) == want

    def test_nan_sentinel_color(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("0.0,nan\n1.0,0.5\n")
        out = tmp_path / "g.ppm"
        assert run("heatmap", grid, out) == 0
        body = out.read_bytes().split(b"255\n", 1)[1]
        assert body[3:6] == b"\xff\x00\xff"

    def test_ragged_rows_rejected(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("1,2\n3\n")
        assert run("heatmap", grid, tmp_path / "g.ppm") == 2
        with pytest.raises(ValueError, match="ragged"):
            read_csv(grid)

    def test_non_numeric_cell_rejected(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("1,2\n3,oops\n")
        assert run("heatmap", grid, tmp_path / "g.ppm") == 2
        assert not (tmp_path / "g.ppm").exists()
        with pytest.raises(ValueError, match="non-numeric cells in " + re.escape(str(grid))):
            read_csv(grid)

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_grid_rejected(self, tmp_path, text):
        grid = tmp_path / "g.csv"
        grid.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no values in " + re.escape(str(grid))):
                read_csv(grid)

    def test_other_writers_temp_file_untouched(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("0,1\n")
        other = tmp_path / "g.ppm.tmp"  # e.g. a concurrent run's temporary file
        other.write_bytes(b"other")
        assert run("heatmap", grid, tmp_path / "g.ppm") == 0
        assert other.read_bytes() == b"other"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "g.ppm", "g.ppm.tmp"]

    def test_rerun_replaces_the_image_and_leaves_no_stage(self, tmp_path):
        grid, out = tmp_path / "g.csv", tmp_path / "g.ppm"
        grid.write_text("0.0\n")
        assert run("heatmap", grid, out) == 0
        grid.write_text("0,1\n")
        assert run("heatmap", grid, out) == 0
        assert out.read_bytes() == b"P6\n2 1\n255\n" + b"\x00" * 3 + b"\xff" * 3
        assert not list(tmp_path.glob(".stage-*"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "g.ppm"]

    def test_render_deterministic(self, rng):
        grid = rng.standard_normal((4, 5))
        assert render_heatmap(grid) == render_heatmap(grid)


class TestEveryCsvReader:
    """Every CSV koopmode parses goes through read_csv: a ragged or an empty
    file of any kind exits 2 naming the file, and numpy's empty-input warning
    does not leak."""

    CONTENT = {"ragged": ("1,2,3\n4,5\n", "ragged rows or non-numeric cells in "),
               "empty": ("", "no values in ")}

    @pytest.mark.parametrize("content", sorted(CONTENT))
    @pytest.mark.parametrize("kind", ["input", "input-header", "mask", "grid"])
    def test_ragged_or_empty_file_exits_2_naming_it(self, tmp_path, smoke_csv, capsys, kind,
                                                    content):
        path, head, argv = {
            "input": (tmp_path / "in.csv", "", ("ingest-info", tmp_path / "in.csv")),
            "input-header": (tmp_path / "in.csv", "a,b,c\n",
                             ("ingest-info", tmp_path / "in.csv", "--header")),
            "mask": (tmp_path / "mask.csv", "", ("ingest-info", smoke_csv, "--grid-shape", 2, 3,
                                                 "--mask", tmp_path / "mask.csv")),
            "grid": (tmp_path / "g.csv", "", ("heatmap", tmp_path / "g.csv", tmp_path / "g.ppm")),
        }[kind]
        text, message = self.CONTENT[content]
        path.write_text(head + text)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv) == 2
        assert message + str(path) in capsys.readouterr().err
        assert not caught


class TestDeterminism:
    def test_decompose_and_sweep_byte_identical(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art = tmp_path / "art"
        sw = tmp_path / "sw"
        trees = []
        for _ in range(2):  # identical config, same output dirs, run twice
            assert run("decompose", path, "--rank", 3, "--out", art) == 0
            assert run("sweep", path, "--rank", 3, "--gamma-min", 1e-2,
                       "--gamma-max", 1e3, "--gamma-count", 10, "--out", sw) == 0
            trees.append((read_tree(art), read_tree(sw)))
        assert trees[0][0] == trees[1][0]
        assert trees[0][1] == trees[1][1]


class TestIngestInfo:
    def test_reports_shape(self, planted_csv, capsys):
        path, _ = planted_csv
        assert run("ingest-info", path, "--dt-label", "month") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["p"] == 12 and info["n_steps"] == 50
        assert info["dt_label"] == "month" and info["masked_points"] is None

    def test_masked_points_counts_the_cells_the_mask_drops(self, tmp_path, rng, capsys):
        data = rng.standard_normal((6, 30))
        data[2] = np.nan
        path, mask = tmp_path / "land.csv", tmp_path / "mask.csv"
        write_csv(path, data, ",".join(["%.17g"] * data.shape[1]))
        mask.write_text("1,1,0\n1,1,1\n")
        load = ("--grid-shape", 2, 3, "--mask", mask)
        assert run("ingest-info", path, *load) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["masked_points"], info["p"]) == (1, 5)
        # the mask describes one cycle's grid, so stacking leaves the count
        assert run("ingest-info", path, *load, "--cycles", 2) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["masked_points"], info["p"]) == (1, 10)

    def test_cycle_stacking_reported(self, planted_csv, capsys):
        path, _ = planted_csv
        assert run("ingest-info", path, "--cycles", 5) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["p"] == 60 and info["n_steps"] == 10

    @pytest.mark.parametrize("flags", [(), ("--cycles", 2), ("--grid-shape", 2, 3),
                                       ("--grid-shape", 2, 3, "--cycles", 2)])
    def test_grid_shape_is_the_one_decompose_reports(self, tmp_path, rng, capsys, flags):
        path, out = tmp_path / "six.csv", tmp_path / "art"
        save_matrix(SnapshotMatrix(rng.standard_normal((6, 30))), path, "csv")
        assert run("ingest-info", path, *flags) == 0
        info = json.loads(capsys.readouterr().out)
        assert run("decompose", path, "--rank", 2, *flags, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert info["grid_shape"] == summary["grid_shape"]
        assert info["grid_shape"] == ([2, 3] if "--grid-shape" in flags else [1, 6])


def test_version_flag(capsys):
    assert run("--version") == 0


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args, **env):
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestRuntimeImports:
    def test_cli_import_loads_no_scipy(self):
        proc = _run_python("-c", "import sys, koopmode, koopmode.cli; print(sorted(m for m in "
                                 "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_csv_load_loads_no_hashlib(self, tmp_path):
        """The parse cache hashes with _blake2: hashlib would load OpenSSL, 3.6 MB
        of memory in every run."""
        path = tmp_path / "x.csv"
        path.write_text("1,2,3\n4,5,6\n")
        check = ("import sys, koopmode.cli; from koopmode import load_matrix; "
                 "load_matrix(sys.argv[1]); "
                 "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
        for _ in ("miss", "hit"):
            proc = _run_python("-c", check, str(path))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]"

    def test_decompositions_load_no_snapshot_layer(self):
        """The decompositions and the model take arrays: importing them loads
        no koopmode.snapshots, which owns only the input's layout."""
        proc = _run_python("-c", "import sys, koopmode.spdmd, koopmode.cdmd, koopmode.rom; "
                                 "print('koopmode.snapshots' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_version_exits_zero(self):
        proc = _run_python("-m", "koopmode", "--version")
        assert proc.returncode == 0, proc.stderr
        library = _run_python("-m", "koopmode.cli", "--version")  # the package is the one entry
        assert (library.returncode, library.stdout, library.stderr) == (0, "", "")

    def test_package_import_loads_no_numpy_and_sets_no_thread_count(self, monkeypatch):
        for name in entry.THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        proc = _run_python("-c", "import json, os, sys, koopmode; print(json.dumps(["
                                 "'numpy' in sys.modules, sorted(n for n in os.environ "
                                 "if n.endswith('_NUM_THREADS')), "
                                 "sorted(set(koopmode.__all__) - set(dir(koopmode)))]))")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, [], []]  # dir lists the unloaded exports

    @pytest.mark.parametrize("name", ["read_csv", "reconstruct", "select_modes"])
    def test_package_exports_load_on_first_use(self, name):
        assert name in dir(koopmode) and getattr(koopmode, name).__name__ == name
        with pytest.raises(AttributeError, match=f"module 'koopmode' has no attribute '{name}_'"):
            getattr(koopmode, name + "_")

    @pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                        {"OMP_NUM_THREADS": "4"}])
    def test_entry_sets_one_blas_thread_unless_the_caller_set_one(self, monkeypatch, preset):
        for name in entry.THREAD_VARS:
            monkeypatch.delenv(name, raising=False)  # also restores them afterwards
        for name, value in preset.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(warnings, "formatwarning", warnings.formatwarning)  # main sets it
        seen = {}
        monkeypatch.setattr(cli, "main", lambda: seen.update(
            (name, os.environ[name]) for name in entry.THREAD_VARS if name in os.environ) or 0)
        assert entry.main() == 0
        assert seen == (preset or dict.fromkeys(entry.THREAD_VARS, "1"))

    def test_command_prints_each_warning_and_error_as_one_line(self, tmp_path, five_mode_csv):
        """The command prints a warning as `warning: <message>`, without the
        source location and line of Python's format, as it prints an error; in
        process, cli.main leaves warnings to the caller. A splitting cut short
        with no amplitude left prints its error alone, and so does a usage error
        that argparse finds, without the usage; --help prints the usage."""
        vs = np.random.default_rng(0).standard_normal((4, 6))
        path = tmp_path / "periodic.csv"  # period 4: a rank-deficient Krylov sequence
        save_matrix(SnapshotMatrix(np.column_stack([vs[k % 4] for k in range(9)])), path, "csv")
        warned = _run_python("-m", "koopmode", "decompose", str(path), "--method", "cdmd",
                             "--out", str(tmp_path / "art"))
        assert warned.returncode == 0
        lines = warned.stderr.splitlines()
        assert "warning: rank-deficient Krylov sequence (rank 4 of 8), " \
               "using minimum-norm coefficients" in lines
        assert all(line.startswith("warning: ") and ".py:" not in line for line in lines)
        stalled = _run_python("-m", "koopmode", "decompose", str(five_mode_csv), "--rank",
                              str(FIVE_MODE_RANK), "--method", "spdmd", "--gamma", "100",
                              "--max-iter", "20", "--out", str(tmp_path / "st"))
        assert stalled.returncode == 0
        assert stalled.stderr.splitlines() == [
            "warning: the splitting stopped at --max-iter 20 without converging at gamma=100.0"]
        failed = _run_python("-m", "koopmode", "decompose", str(five_mode_csv), "--rank",
                             str(FIVE_MODE_RANK), "--method", "spdmd", "--gamma", "1000",
                             "--max-iter", "20", "--out", str(tmp_path / "sp"))
        assert failed.returncode == 2
        assert [line[:37] for line in failed.stderr.splitlines()] == [
            "error: the splitting stopped at --max"]
        with warns_of(KRYLOV, NEAR_SINGULAR):
            assert run("decompose", path, "--method", "cdmd", "--out", tmp_path / "art") == 0
        for argv in (("decompose", path, "--rank", "x"), ("sweep", path, "--gamma-count", 0),
                     ("reconstruct", "--at", 0), ("bogus",)):
            usage = _run_python("-m", "koopmode", *map(str, argv))
            assert usage.returncode == 1
            (line,) = usage.stderr.splitlines()
            assert line.startswith("error: ")
        helped = _run_python("-m", "koopmode", "decompose", "--help")
        assert helped.returncode == 0 and helped.stdout.startswith("usage: koopmode decompose")


class TestBlasThreads:
    """A caller's BLAS thread count does not change the artifacts: the bytes
    where the arithmetic is the same, and within roundoff where it is not."""

    @pytest.fixture
    def run_at(self, monkeypatch):
        for name in entry.THREAD_VARS:
            monkeypatch.delenv(name, raising=False)

        def run_at(threads, *args):
            proc = _run_python("-m", "koopmode", *map(str, args),
                               OPENBLAS_NUM_THREADS=str(threads))
            assert proc.returncode == 0, proc.stderr

        return run_at

    def test_smoke_artifacts_are_byte_identical(self, tmp_path, smoke_csv, run_at):
        files = []
        for threads in (1, 2):
            sw, art = tmp_path / f"sweep{threads}", tmp_path / f"dmd{threads}"
            run_at(threads, "sweep", smoke_csv, "--rank", 4, "--gamma-count", 5, "--out", sw)
            run_at(threads, "decompose", smoke_csv, "--rank", 4, "--method", "dmd", "--out", art)
            files.append([(sw / "sweep.csv").read_bytes(), (art / "eigenvalues.csv").read_bytes(),
                          read_tree(art / "model")])
        assert files[0] == files[1]

    @pytest.mark.parametrize("flags, n_steps",
                             [(("--rank", 50), 400), (("--method", "cdmd"), 100)],
                             ids=["dmd", "cdmd"])
    def test_decompose_agrees_across_thread_counts(self, tmp_path, run_at, flags, n_steps):
        """On this 200 x 400 input, one and two threads round the rank-50
        operator differently, and LAPACK returns one of its eigenvector pairs
        negated. Each eigenvector's phase is taken from the vector, so the
        amplitudes and modes still agree to TOL of their largest entry. CDMD,
        of order 99 on the first 100 columns, keeps the same |eigenvalue|
        order and so the same index labels."""
        TOL = 1e-9
        rng = np.random.default_rng(0)  # its own seed: the sign LAPACK picks depends on the data
        t = np.arange(400)
        waves = np.array([np.cos(w * t + phase) * 0.99 ** t
                          for w, phase in zip(rng.uniform(0.1, 3, 8), rng.uniform(0, 6, 8))])
        data = rng.standard_normal((200, 8)) @ waves + 0.1 * rng.standard_normal((200, 400))
        path = tmp_path / "data.csv"
        save_matrix(SnapshotMatrix(data[:, :n_steps]), path, "csv")
        fits = []
        for threads in (1, 2):
            art = tmp_path / f"art{threads}"
            run_at(threads, "decompose", path, *flags, "--out", art)
            rows = np.loadtxt(art / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
            fits.append((rows[:, 0], rows[:, 6] + 1j * rows[:, 7], read_model(art)["modes"]))
        (index, b, modes), (index2, b2, modes2) = fits
        np.testing.assert_array_equal(index2, index)
        assert np.abs(b2 - b).max() <= TOL * np.abs(b).max()
        assert np.abs(modes2 - modes).max() <= TOL * np.abs(modes).max()


def jordan_chain(n_steps: int = 20) -> np.ndarray:
    """Snapshots of the 6 x 6 Jordan chain 0.9 I + N from ones: its operator
    is defective, so the eigenbasis is near-defective (cond(W) about 2e13)
    and the amplitude system near-singular."""
    A = 0.9 * np.eye(6) + np.eye(6, k=1)
    cols = [np.ones(6)]
    for _ in range(n_steps - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


@pytest.fixture
def jordan_csv(tmp_path):
    path = tmp_path / "jordan.csv"
    save_matrix(SnapshotMatrix(jordan_chain()), path, "csv")
    return path


def recorded(*args) -> tuple[int, list[str]]:
    """run(*args)'s exit status and the messages of the warnings it raised,
    each from cli, whatever the caller's filters."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = run(*args)
    assert all(w.filename == cli.__file__ for w in caught)
    return status, [str(w.message) for w in caught]


NEAR_SINGULAR = "near-singular amplitude system, using minimum-norm solution"


class TestFindings:
    """The library returns what it finds and the command warns: each finding
    once, from cli, after the run's last step that can fail and before its
    output is published. A failed run prints only its error."""

    def test_each_finding_prints_one_line(self, tmp_path, jordan_csv):
        proc = _run_python("-m", "koopmode", "decompose", str(jordan_csv),
                           "--out", str(tmp_path / "art"))
        assert proc.returncode == 0
        defective, singular = proc.stderr.splitlines()
        assert re.fullmatch(r"warning: near-defective eigenbasis, condition 2\.1\d\de\+13",
                            defective)
        assert singular == f"warning: {NEAR_SINGULAR}"

    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_sweep_warns_of_the_form_once_whatever_its_grid(self, tmp_path, jordan_csv, count):
        """At the parent polish warned again for each singular support block."""
        status, messages = recorded("sweep", jordan_csv, "--gamma-min", 1e-3,
                                    "--gamma-max", 1e-3 if count == 1 else 1e3,
                                    "--gamma-count", count, "--max-iter", 300,
                                    "--out", tmp_path / "sw")
        assert status == 0
        assert messages.count(NEAR_SINGULAR) == 1
        assert len(messages) == len(set(messages))

    def test_dropped_snapshots_are_a_finding(self, tmp_path, jordan_csv, capsys):
        dropped = f"{jordan_csv}: dropped 2 trailing snapshot(s) not filling a cycle of --cycles 3"
        assert recorded("ingest-info", jordan_csv, "--cycles", 3) == (0, [dropped])
        assert json.loads(capsys.readouterr().out)["n_steps"] == 6
        status, messages = recorded("decompose", jordan_csv, "--cycles", 3, "--rank", 2,
                                    "--out", tmp_path / "art")
        assert status == 0 and messages[0] == dropped
        assert recorded("ingest-info", jordan_csv, "--cycles", 4) == (0, [])

    @pytest.mark.parametrize("flags, error", [
        (("decompose", "--method", "spdmd", "--gamma", 1e9), "zeroed out every amplitude"),
        (("decompose", "--cycles", 3, "--rank", 6), "--rank 6 exceeds min(p, N - 1) = 5"),
        (("sweep", "--cycles", 3, "--rank", 6), "--rank 6 exceeds min(p, N - 1) = 5"),
    ], ids=["empty-support", "decompose-rank", "sweep-rank"])
    def test_a_failed_run_prints_only_its_error(self, tmp_path, jordan_csv, capsys, flags,
                                                error):
        """Each of these runs finds something (dropped snapshots, a
        near-defective eigenbasis, a near-singular form) before it fails."""
        out = tmp_path / "out"
        assert recorded(flags[0], jordan_csv, *flags[1:], "--out", out) == (2, [])
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and error in line
        assert not out.exists()

    def test_a_finding_made_an_error_publishes_nothing(self, tmp_path, jordan_csv):
        out = tmp_path / "D"
        proc = _run_python("-W", "error::UserWarning", "-m", "koopmode", "decompose",
                           str(jordan_csv), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: near-defective eigenbasis, condition ")
        assert not out.exists()


class TestThresholdPastFloat64:
    """A gamma at which zero amplitudes are optimal, 2|q_g| <= sqrt2 gamma on
    every pair and |2q_k| <= gamma on every unpaired mode, ends the splitting
    before its first iteration, however small --rho is and even where
    gamma / rho passes float64's range: converged, at the starting rho."""

    @pytest.fixture
    def normal_csv(self, tmp_path):
        path = tmp_path / "normal.csv"
        np.savetxt(path, np.random.default_rng(0).standard_normal((4, 12)), fmt="%.17g",
                   delimiter=",")
        return path

    @pytest.mark.filterwarnings("error")  # the error alone
    def test_decompose_prints_only_its_error(self, tmp_path, normal_csv, capsys):
        assert run("decompose", normal_csv, "--method", "spdmd", "--gamma", 1e300,
                   "--rho", 1e-300, "--out", tmp_path / "art") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --gamma 1e+300 zeroed out every amplitude"]

    def test_sweep_rows_stay_finite_with_no_mode(self, tmp_path, normal_csv):
        """No row runs an iteration, so none stops at --max-iter, and the run
        warns of nothing."""
        out = tmp_path / "sw"
        assert recorded("sweep", normal_csv, "--gamma-min", 1e300, "--gamma-max", 1e308,
                        "--gamma-count", 3, "--rho", 1e-300, "--out", out) == (0, [])
        rows = read_rows(out / "sweep.csv")
        assert [(row["cardinality"], row["iterations"], row["converged"], row["rho"])
                for row in rows] == [("0", "0", "true", "1e-300")] * 3
        assert all(math.isfinite(float(row[key])) for row in rows
                   for key in ("gamma", "cost", "loss_percent"))


class TestErrorsNameAFlagOrAFile:
    """An error names the flag or the file it is about, not only an internal
    quantity."""

    @pytest.mark.parametrize("data, flags, error", [
        (np.ones((4, 1)), ("ingest-info",), "{input}: need at least 2 snapshots, got N=1"),
        (np.full((4, 3), np.nan), ("ingest-info",),
         "{input}: snapshot data contains NaN/Inf after masking"),
        (np.ones((4, 12)), ("ingest-info", "--grid-shape", 3, 3),
         "{input}: grid 3x3 holds 9 points, not the 4 rows per cycle"),
        (np.ones((4, 12)), ("ingest-info", "--cycles", 20),
         "{input}: --cycles 20: cycle length 20 exceeds N=12"),
        (np.ones((4, 12)), ("ingest-info", "--cycles", 7),
         "{input}: --cycles 7: need at least 2 snapshots, got N=1"),
        (np.eye(4, 2), ("decompose", "--method", "cdmd"),
         "{input}: --method cdmd: companion fit needs N >= 3, got N=2"),
    ], ids=["one-snapshot", "nan", "grid-shape", "cycles-past-n", "cycles-to-one", "cdmd-n2"])
    @pytest.mark.filterwarnings("error")
    def test_input_errors_name_the_input(self, tmp_path, capsys, data, flags, error):
        path = tmp_path / "in.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
        command, *rest = flags
        out = () if command == "ingest-info" else ("--out", tmp_path / "out")
        assert run(command, path, *rest, *out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + error.format(input=path)]

    def test_gamma_grid_error_names_its_flags(self, tmp_path, smoke_csv, capsys):
        assert run("sweep", smoke_csv, "--gamma-min", 2, "--gamma-max", 1,
                   "--out", tmp_path / "sw") == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: --gamma-min/--gamma-max/--gamma-count: gamma_min must not exceed gamma_max")
