"""Output checks of the benchmark workloads. Each check raises CheckError on
the first violation and otherwise returns the facts it read, for the record."""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# Planted eigenvalues are found within this distance by CDMD on the stand-in
# (largest observed miss 1.8e-4; neighbouring spurious eigenvalues sit about
# 1e-2 apart).
EIGENVALUE_TOL = 1e-3
# CDMD fits the training window exactly; 5e-12 was observed.
RECON_REL_TOL = 1e-8
# Sweep losses move in the last digits with the BLAS thread count; a changed
# support moves them by about 1e-5 relative.
LOSS_RTOL = 1e-7
# Sweep results of the commit that added the benchmark (seed 1; every seed
# poses the same problem, see gen.py).
REFERENCE = Path(__file__).with_name("reference.json")


class CheckError(Exception):
    """An invocation's output is wrong."""


# What a check raises on wrong or missing output.
FAILURES = (CheckError, OSError, ValueError, KeyError)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def read_sweep(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"gamma": float(r["gamma"]), "cardinality": int(float(r["cardinality"])),
             "loss_percent": float(r["loss_percent"]),
             "iterations": int(float(r["iterations"])),
             "converged": r["converged"] == "true"} for r in rows]


def reference(workload: str) -> dict:
    """The reference sweep of one workload: cardinality and loss_percent lists."""
    return json.loads(REFERENCE.read_text())[workload]


def check_sweep(out: Path, expected: dict) -> dict:
    """sweep.csv matches the reference sweep: the same cardinality at every
    gamma, and the same loss within LOSS_RTOL.

    The reference stands in for a monotonicity check. On this stand-in the
    optimal support is not monotone in gamma: tightly converged cold solves
    (eps_rel 1e-10) give 49 modes at gamma 0.379 and 50 at gamma 0.394, as a
    lasso path can re-admit a correlated variable. The facts returned count
    those rises, and digest the cardinalities and the losses to 7 digits,
    which ignores the last digits that move with the BLAS thread count.
    """
    rows = sorted(read_sweep(out / "sweep.csv"), key=lambda r: r["gamma"])
    cards = [r["cardinality"] for r in rows]
    losses = [r["loss_percent"] for r in rows]
    if len(rows) != len(expected["cardinality"]):
        raise CheckError(f"sweep.csv has {len(rows)} rows, expected {len(expected['cardinality'])}")
    for row, card, loss in zip(rows, expected["cardinality"], expected["loss_percent"]):
        if row["cardinality"] != card:
            raise CheckError(f"cardinality {row['cardinality']} at gamma {row['gamma']:.6g}, "
                             f"reference {card}")
        if not abs(row["loss_percent"] - loss) <= LOSS_RTOL * loss:
            raise CheckError(f"loss {row['loss_percent']!r} at gamma {row['gamma']:.6g}, "
                             f"reference {loss!r}")
    if not (out / "pareto.csv").is_file():
        raise CheckError("pareto.csv missing")
    return {
        "cardinality_digest": hashlib.sha256(json.dumps(cards).encode()).hexdigest()[:16],
        "loss_digest": hashlib.sha256(",".join(f"{x:.6e}" for x in losses).encode()).hexdigest()[:16],
        "cardinality_range": [cards[0], cards[-1]],
        "loss_range": [losses[0], losses[-1]],
        "cardinality_rises": sum(b > a for a, b in zip(cards, cards[1:])),
        "loss_falls": sum(b < a for a, b in zip(losses, losses[1:])),
        "iterations": sum(r["iterations"] for r in rows),
        "converged": sum(r["converged"] for r in rows),
    }


def check_roundtrip(art: Path, rec: Path, planted: list[complex], cycles: int,
                    indices: list[int], horizon: int) -> dict:
    """CDMD artifacts recover every planted eigenvalue (raised to the cycle
    length, since one stacked step spans `cycles` months), and the
    reconstruction report shows the training columns rebuilt."""
    eig = np.loadtxt(art / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
    lam = eig[:, 1] + 1j * eig[:, 2]
    misses = [float(np.abs(lam - mu**cycles).min()) for mu in planted]
    if max(misses) > EIGENVALUE_TOL:
        raise CheckError(f"planted eigenvalue missed by {max(misses):.3e}")
    report = json.loads((rec / "recon_report.json").read_text())
    errors = report["relative_errors"]
    if sorted(map(int, errors)) != sorted(indices):
        raise CheckError(f"relative errors reported for {sorted(errors)}, expected {indices}")
    worst = max(errors.values())
    if not worst <= RECON_REL_TOL:
        raise CheckError(f"reconstruction relative error {worst:.3e}")
    for k in indices:
        if not (rec / f"recon_{k}.csv").is_file():
            raise CheckError(f"recon_{k}.csv missing")
    forecast = np.loadtxt(rec / "forecast.csv", delimiter=",", ndmin=2)
    if forecast.shape[1] != horizon or not np.all(np.isfinite(forecast)):
        raise CheckError(f"forecast.csv has shape {forecast.shape}, expected {horizon} columns")
    return {"order": int(lam.size), "max_eigenvalue_miss": max(misses),
            "max_relative_error": worst}
