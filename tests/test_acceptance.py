"""Acceptance gate: one test per shipping criterion, printed pass/fail lines.

Criterion 10 needs the real monthly sea-surface-temperature matrix; point
KOOPMODE_SST_DATA at a 600 x 1548 CSV (rows = grid points, columns = months)
to enable it, otherwise it is skipped.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from koopmode import (
    AdmmParams,
    SnapshotMatrix,
    admm_solve,
    companion_dmd,
    exact_dmd,
    gamma_sweep,
    load_matrix,
    log_gamma_grid,
    mode_stats,
    optimal_amplitudes,
    performance_loss,
    quadratic_form,
    stack_cycles,
    unit_circle_deviation,
    vandermonde,
)
from conftest import planted_snapshots, random_unitary

SST_ENV = "KOOPMODE_SST_DATA"


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_planted_spectrum_recovery():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    mags = rng.uniform(0.8, 1.0, size=5)
    phases = np.pi * np.array([0.05, 0.2, 0.45, 0.7, 0.9])
    lams = mags * np.exp(1j * phases)
    Y, full = planted_snapshots(50, 200, lams, rng.uniform(0.5, 2.0, size=5), rng)
    result = exact_dmd(Y, rank=10)
    worst = max(np.min(np.abs(result.eigenvalues - lam)) for lam in full)
    elapsed = time.monotonic() - start
    report("1 planted-spectrum recovery", worst <= 1e-7 and elapsed < 1.0)


def test_criterion_2_quadratic_form_oracle():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        p = rng.integers(2, 9)
        r = rng.integers(1, 5)
        M = rng.integers(max(r, 2), 13)
        modes = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        lam = rng.random(r) * np.exp(2j * np.pi * rng.random(r))
        vand = vandermonde(lam, M)
        Y = rng.standard_normal((p, M))
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        b = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        direct = np.linalg.norm(Y - modes @ np.diag(b) @ vand, "fro") ** 2
        if abs(form.objective(b) - direct) > 1e-6 * max(1.0, direct):
            ok = False
            break
    report("2 quadratic-form oracle", ok)


def test_criterion_3_spdmd_optimality():
    rng = np.random.default_rng(303)
    start = time.monotonic()
    ok = True
    tight = AdmmParams(eps_abs=1e-9, eps_rel=1e-9, max_iter=100000)
    for _ in range(50):
        p, r, M = 8, 4, 14
        modes = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        lam = rng.random(r) * np.exp(2j * np.pi * rng.random(r))
        Y = rng.standard_normal((p, M))
        form = quadratic_form(Y, modes, np.eye(modes.shape[1]), lam)
        # gamma = 0 matches the normal-equation solution
        b0 = admm_solve(form, 0.0).z
        want, *_ = np.linalg.lstsq(form.P, form.q, rcond=None)
        if np.max(np.abs(b0 - want)) > 1e-6 * max(1.0, np.max(np.abs(want))):
            ok = False
        # gamma above the shutdown bound forces exact zero
        shutdown = 2.0 * np.max(np.abs(form.q)) * 1.1
        if np.any(admm_solve(form, shutdown).z != 0.0):
            ok = False
        # subgradient optimality at an intermediate gamma
        gamma = 0.4 * 2.0 * np.max(np.abs(form.q))
        b = admm_solve(form, gamma, tight).z
        tol = 1e-4 * (1 + np.linalg.norm(form.q))
        grad = 2.0 * (form.P @ b - form.q)
        for i in range(r):
            if b[i] != 0 and abs(grad[i] + gamma * b[i] / abs(b[i])) > tol:
                ok = False
            if b[i] == 0 and abs(grad[i]) > gamma + tol:
                ok = False
    elapsed = time.monotonic() - start
    report("3 spdmd optimality", ok and elapsed < 10.0)


def _planted_sparse_form(rng, r=10, active=(0, 3, 7), amps=(100.0, 70.0, 40.0),
                         M=200, p=40):
    lam = np.exp(2j * np.pi * (np.arange(r) + 0.5) / (r + 3))
    vand = vandermonde(lam, M)
    modes = random_unitary(p, rng)[:, :r]
    b_true = np.zeros(r, dtype=complex)
    for i, a in zip(active, amps):
        b_true[i] = a * np.exp(2j * np.pi * rng.random())
    Y = modes @ np.diag(b_true) @ vand
    return quadratic_form(Y, modes, np.eye(modes.shape[1]), lam), np.array(sorted(active))


def test_criterion_4_planted_support_recovery():
    rng = np.random.default_rng(404)
    # amplitude gap >= 10x between active and absent modes (absent are zero)
    form, active = _planted_sparse_form(rng)
    solutions = gamma_sweep(form, log_gamma_grid(1e-2, 1e6, 60))
    plateau = [s for s in solutions if s.cardinality == 3]
    ok = bool(plateau) and all(
        np.array_equal(np.sort(s.support), active) for s in plateau)
    report("4 planted-support recovery", ok)


def test_criterion_5_sweep_shape():
    rng = np.random.default_rng(505)
    form, _ = _planted_sparse_form(
        rng, r=10, active=tuple(range(10)),
        amps=(100, 70, 50, 35, 25, 18, 12, 8, 5, 3))
    points = gamma_sweep(form, log_gamma_grid(1e-2, 1e6, 80))
    cards = [pt.cardinality for pt in points]
    losses = [pt.loss_percent for pt in points]
    ok = (all(c1 >= c2 for c1, c2 in zip(cards, cards[1:]))
          and all(l1 <= l2 + 1e-10 for l1, l2 in zip(losses, losses[1:])))
    report("5 sweep shape", ok)


def test_criterion_6_reconstruction_identity():
    rng = np.random.default_rng(606)
    lams = [0.97 * np.exp(0.35j), 0.9]
    Y, _ = planted_snapshots(20, 60, lams, [2.0, 1.0], rng)
    result = exact_dmd(Y, rank=3)
    Y = Y[:, :-1]
    vand = vandermonde(result.eigenvalues, Y.shape[1])
    b = optimal_amplitudes(quadratic_form(Y, result.basis, result.coefficients,
                                          result.eigenvalues))
    recon = np.real(result.modes @ np.diag(b) @ vand)
    ok = True
    for k in range(Y.shape[1]):
        err = np.linalg.norm(recon[:, k] - Y[:, k]) / np.linalg.norm(Y[:, k])
        if err > 1e-8:
            ok = False
    # two-way loss agreement on a truncated fit, where the residual is O(1)
    # and the quadratic expansion of the cost is well conditioned
    lams4 = [0.97 * np.exp(0.35j), 0.9, 0.8 * np.exp(1.2j)]
    Y4, _ = planted_snapshots(20, 60, lams4, [2.0, 1.0, 0.3], rng)
    r4 = exact_dmd(Y4, rank=3)
    Y4 = Y4[:, :-1]
    vand4 = vandermonde(r4.eigenvalues, Y4.shape[1])
    form = quadratic_form(Y4, r4.basis, r4.coefficients, r4.eigenvalues)
    b4 = optimal_amplitudes(form)
    via_formula = performance_loss(form.objective(b4), form.s)
    direct = 100.0 * np.linalg.norm(
        Y4 - r4.modes @ np.diag(b4) @ vand4, "fro"
    ) / np.linalg.norm(Y4, "fro")
    ok = ok and abs(via_formula - direct) <= 1e-8 * max(1.0, direct)
    report("6 reconstruction identity", ok)


def test_criterion_7_cdmd_spectrum():
    rng = np.random.default_rng(707)
    # exactly period-4 sequence
    vs = rng.standard_normal((4, 6))
    data = np.column_stack([vs[k % 4] for k in range(9)])
    with pytest.warns(UserWarning):
        cd = companion_dmd(data)
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    ok = all(np.min(np.abs(cd.eigenvalues - r)) <= 1e-8 for r in roots)
    # damped data: companion spectrum hugs the unit circle more than DMD's
    lams = [0.85 * np.exp(0.7j), 0.8 * np.exp(1.9j), 0.75 * np.exp(2.6j)]
    Yd, _ = planted_snapshots(20, 30, lams, [1.0, 0.8, 0.6], rng)
    noisy = Yd + 1e-8 * rng.standard_normal(Yd.shape)
    dmd_dev = unit_circle_deviation(exact_dmd(noisy, rank=6).eigenvalues).mean()
    cdmd_dev = unit_circle_deviation(companion_dmd(noisy).eigenvalues).mean()
    ok = ok and cdmd_dev <= dmd_dev
    report("7 cdmd spectrum", ok)


def test_criterion_8_mode_stats_values():
    s1 = mode_stats(1.0)
    s2 = mode_stats(-1j)
    s3 = mode_stats(np.exp(-0.1))
    ok = (np.isinf(s1.e_folding) and np.isinf(s1.period)
          and abs(abs(s2.period) - 4.0) <= 1e-12
          and abs(s3.e_folding - 10.0) <= 1e-12)
    report("8 mode_stats values", ok)


def test_criterion_9_pipeline_determinism(tmp_path):
    from koopmode import save_matrix
    from koopmode.cli import main

    rng = np.random.default_rng(909)
    Y, _ = planted_snapshots(12, 50, [0.95 * np.exp(0.4j), 0.9], [2.0, 1.0], rng)
    path = tmp_path / "data.csv"
    save_matrix(SnapshotMatrix(Y), path, "csv")
    art, sw = tmp_path / "art", tmp_path / "sw"
    snapshots = []
    for _ in range(2):
        assert main(["decompose", str(path), "--rank", "3", "--out", str(art)]) == 0
        assert main(["sweep", str(path), "--rank", "3", "--gamma-min", "0.01",
                     "--gamma-max", "1000", "--gamma-count", "10",
                     "--out", str(sw)]) == 0
        tree = {}
        for root in (art, sw):
            for f in sorted(root.rglob("*")):
                if f.is_file():
                    tree[str(f)] = f.read_bytes()
        snapshots.append(tree)
    report("9 pipeline determinism", snapshots[0] == snapshots[1])


@pytest.mark.skipif(SST_ENV not in os.environ,
                    reason=f"real dataset not provided via {SST_ENV}")
def test_criterion_10_real_dataset_regressions():
    X = load_matrix(os.environ[SST_ENV])
    assert X.p == 600 and X.n_steps == 1548

    # monthly sweep: maximum loss within +/- 1.0 points of 5.034%
    base = exact_dmd(X.data, rank=600)
    form = quadratic_form(X.data[:, :-1], base.basis, base.coefficients, base.eigenvalues)
    points = gamma_sweep(form, log_gamma_grid(1e-3, 1e3, 350))
    max_loss = max(pt.loss_percent for pt in points)
    ok = abs(max_loss - 5.034) <= 1.0

    # seasonal sweep endpoints against the published table
    Xs = stack_cycles(X, 3)
    base_s = exact_dmd(Xs.data)
    form_s = quadratic_form(Xs.data[:, :-1], base_s.basis, base_s.coefficients,
                            base_s.eigenvalues)
    pts = gamma_sweep(form_s, np.array([1e-4, 16000.0]))
    lo, hi = pts
    ok = ok and abs(lo.loss_percent - 0.6010) <= 0.5
    ok = ok and abs(lo.cardinality - 511) <= 0.1 * 511
    ok = ok and abs(hi.loss_percent - 3.5880) <= 0.5
    ok = ok and hi.cardinality == 4
    report("10 real-dataset regressions", ok)
