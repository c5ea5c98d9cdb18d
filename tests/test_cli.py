from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from koopmode import (AdmmParams, SnapshotMatrix, build_pairs, exact_dmd, gamma_sweep,
                      load_matrix, log_gamma_grid, quadratic_form, save_matrix, vandermonde)
from koopmode import cli, spdmd
from koopmode.cli import main, read_grid_csv, render_heatmap
from conftest import planted_matrix


@pytest.fixture
def planted_csv(tmp_path):
    lams = [0.95 * np.exp(0.4j), 0.9]
    X, full = planted_matrix(12, 50, lams, [2.0, 1.0], seed=13)
    path = tmp_path / "data.csv"
    save_matrix(X, path, "csv")
    return path, full


def run(*args) -> int:
    return main([str(a) for a in args])


def read_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def make_pre_npy(art):
    """Rewrite a decompose output directory in the layout of versions before
    modes_matrix.npy: the modes as interleaved re/im %.17g CSV columns."""
    modes = np.load(art / "modes_matrix.npy")
    np.savetxt(art / "modes_matrix.csv", modes.view(float), fmt="%.17g", delimiter=",")
    (art / "modes_matrix.npy").unlink()


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
        for name in ("eigenvalues.csv", "modes_matrix.npy", "temporal.csv",
                     "summary.json"):
            assert (out / name).exists()
        assert not (out / "modes_matrix.csv").exists()
        assert (out / "modes").is_dir()
        summary = json.loads((out / "summary.json").read_text())
        for key in ("toolkit_version", "method", "rank", "data_shape",
                    "full_fit_loss_percent", "config"):
            assert key in summary
        assert "admm" not in summary  # spdmd only
        assert summary["rank"] == 3
        assert summary["data_shape"] == [12, 50]
        assert summary["full_fit_loss_percent"] <= 1e-5
        modes = np.load(out / "modes_matrix.npy", allow_pickle=False)
        assert modes.dtype == np.complex128 and modes.shape == (12, 3)

    def test_modes_matrix_round_trips_bit_exact(self, tmp_path, planted_csv, monkeypatch):
        specials = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                             5e-324, -2.5e-310, 1.0 / 3.0, -1e308])
        rng = np.random.default_rng(5)
        written = []
        fit = cli._fit

        def fit_with_special_modes(args, X):
            result, loss, admm = fit(args, X)
            modes = np.empty(result.modes.shape, dtype=complex)
            modes.real = rng.choice(specials, modes.shape)
            modes.imag = rng.choice(specials, modes.shape)
            written.append(modes)
            return replace(result, modes=modes), loss, admm

        monkeypatch.setattr(cli, "_fit", fit_with_special_modes)
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        model, _ = cli._load_model(art)
        assert model.modes.view(np.uint64).tolist() == written[0].view(np.uint64).tolist()

    def test_rerun_replaces_a_pre_npy_directory(self, tmp_path, planted_csv):
        path, _ = planted_csv
        art = tmp_path / "art"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        make_pre_npy(art)
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        assert (art / "modes_matrix.npy").exists()
        assert not (art / "modes_matrix.csv").exists()

    def test_spdmd_method_selects_sparse_modes(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--method", "spdmd", "--rank", 3,
                   "--gamma", 0.0, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "spdmd"

    def test_cdmd_method(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--method", "cdmd", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "cdmd"
        assert summary["rank"] == 49
        # the companion fit reproduces the training window
        assert summary["full_fit_loss_percent"] <= 1e-5

    def test_cdmd_rejects_rank(self, tmp_path, planted_csv):
        path, _ = planted_csv
        out = tmp_path / "art"
        assert run("decompose", path, "--method", "cdmd", "--rank", 3, "--out", out) == 1
        assert not out.exists()

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

    def test_foreign_output_directory_is_kept(self, tmp_path, planted_csv):
        path, _ = planted_csv
        keep = tmp_path / "notes.txt"
        keep.write_text("mine\n")
        assert run("decompose", path, "--rank", 3, "--out", tmp_path) == 1
        assert run("decompose", path, "--rank", 3, "--out", keep) == 1
        assert keep.read_text() == "mine\n"
        assert not (tmp_path / "summary.json").exists()

    def test_cycles_with_grid_shape(self, tmp_path, rng):
        path = tmp_path / "small.csv"
        save_matrix(SnapshotMatrix(rng.standard_normal((12, 30))), path, "csv")
        out = tmp_path / "art"
        assert run("decompose", path, "--grid-shape", 3, 4, "--cycles", 3, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["data_shape"] == [36, 10]
        grid = read_grid_csv(out / "modes" / "0_abs.csv")
        assert grid.shape == (3, 4) and np.all(np.isfinite(grid))

    def test_cycles_with_mask(self, tmp_path, rng):
        path = tmp_path / "small.csv"
        save_matrix(SnapshotMatrix(rng.standard_normal((12, 30))), path, "csv")
        mask = tmp_path / "mask.csv"
        mask.write_text("1,1,1,1\n1,0,1,1\n1,1,1,0\n")
        out = tmp_path / "art"
        assert run("decompose", path, "--mask", mask, "--grid-shape", 3, 4,
                   "--cycles", 3, "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["data_shape"] == [30, 10]
        grid = read_grid_csv(out / "modes" / "0_abs.csv")
        np.testing.assert_array_equal(np.isnan(grid).reshape(-1),
                                      [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1])

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
            "pair_collapse", "rank", "rho", "subtract_mean", "top_modes", "transpose"]
        assert config["grid_shape"] == [3, 4] and config["rank"] == 2
        assert config["input"] == str(path) and config["rho"] == 1.0


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
    ])
    def test_out_of_range_value_is_usage_error(self, planted_csv, tmp_path, flags):
        path, _ = planted_csv
        out = tmp_path / "sw"
        assert run("sweep", path, *flags, "--out", out) == 1
        assert not out.exists()

    def test_takes_no_method_flag(self, planted_csv, tmp_path):
        path, _ = planted_csv
        assert run("sweep", path, "--method", "spdmd", "--out", tmp_path / "sw") == 1


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
    pair = build_pairs(load_matrix(path))
    result = exact_dmd(pair, rank=FIVE_MODE_RANK)
    form = quadratic_form(pair.Y, result.modes, vandermonde(result.eigenvalues, pair.Y.shape[1]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spdmd, "RHO_MAX_CHANGES", 0)
        solutions = gamma_sweep(form, gammas, AdmmParams(max_iter=100000))
    assert all(s.converged for s in solutions)
    return solutions


class TestSpdmdSplittingReport:
    """decompose --method spdmd records what its splitting did, and an empty
    support from a solve cut short names --max-iter, not gamma."""

    def test_summary_records_the_splitting(self, tmp_path, five_mode_csv):
        out = tmp_path / "art"
        for max_iter, want_converged in ((20, False), (10000, True)):
            assert run("decompose", five_mode_csv, "--rank", FIVE_MODE_RANK, "--method",
                       "spdmd", "--gamma", 100, "--max-iter", max_iter, "--out", out) == 0
            admm = json.loads((out / "summary.json").read_text())["admm"]
            assert sorted(admm) == ["converged", "iterations", "rho"]
            assert admm["converged"] is want_converged
            assert (admm["iterations"] < max_iter) is want_converged
            assert math.log2(admm["rho"]).is_integer()

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
        assert (out / "recon_3.csv").exists() and not (out / "forecast.csv").exists()

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

    def test_missing_artifacts(self, tmp_path):
        assert run("reconstruct", "--artifacts", tmp_path / "ghost",
                   "--horizon", 2, "--out", tmp_path / "rec") == 2

    def test_pre_npy_artifacts_are_missing_the_modes(self, tmp_path, planted_csv, capsys):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        make_pre_npy(art)
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--out", out) == 2
        assert re.search(r"missing artifact \S*modes_matrix\.npy", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (np.array([1, "a"], dtype=object), "Object arrays cannot be loaded"),
        (np.arange(12.0), r"holds float64 \(12,\)"),
        (np.ones((12, 2), dtype=complex), r"holds complex128 \(12, 2\).* 3 columns"),
    ], ids=["object-dtype", "real-1d", "rank-mismatch"])
    def test_malformed_modes_matrix_rejected(self, tmp_path, planted_csv, capsys, bad, message):
        path, _ = planted_csv
        art, out = tmp_path / "art", tmp_path / "rec"
        assert run("decompose", path, "--rank", 3, "--out", art) == 0
        np.save(art / "modes_matrix.npy", bad, allow_pickle=True)
        capsys.readouterr()
        assert run("reconstruct", "--artifacts", art, "--at", 0, "--out", out) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()


class TestHeatmap:
    def test_single_black_pixel(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("0.0\n")
        out = tmp_path / "g.ppm"
        assert run("heatmap", grid, out) == 0
        data = out.read_bytes()
        assert data == b"P6\n1 1\n255\n\x00\x00\x00"

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
            read_grid_csv(grid)

    def test_other_writers_temp_file_untouched(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text("0,1\n")
        other = tmp_path / "g.ppm.tmp"  # e.g. a concurrent run's temporary file
        other.write_bytes(b"other")
        assert run("heatmap", grid, tmp_path / "g.ppm") == 0
        assert other.read_bytes() == b"other"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "g.ppm", "g.ppm.tmp"]

    def test_render_deterministic(self, rng):
        grid = rng.standard_normal((4, 5))
        assert render_heatmap(grid) == render_heatmap(grid)


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
        assert run("ingest-info", path) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["p"] == 12 and info["n_steps"] == 50

    def test_cycle_stacking_reported(self, planted_csv, capsys):
        path, _ = planted_csv
        assert run("ingest-info", path, "--cycles", 5) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["p"] == 60 and info["n_steps"] == 10


def test_version_flag(capsys):
    assert run("--version") == 0


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestRuntimeImports:
    def test_cli_import_loads_no_scipy(self):
        proc = _run_python("-c", "import sys, koopmode, koopmode.cli; print(sorted(m for m in "
                                 "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_version_exits_zero(self):
        proc = _run_python("-m", "koopmode", "--version")
        assert proc.returncode == 0, proc.stderr
