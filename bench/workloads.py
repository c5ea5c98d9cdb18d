"""The benchmark workloads: CLI invocations on the generated input and the
checks on what they write. Why each workload exists is in README.md.

Invocations run with the work directory as their current directory and use
relative paths, and every repeat writes to the same --out path, because
summary.json embeds it and the artifacts must be byte-identical across
repeats.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

DATA = "in/data.csv"
HALF = "in/half.csv"  # the first 774 months of DATA
OUT = "out"
MONTHLY_GAMMAS = 100
SEASONAL_GAMMAS = 2
CYCLES = 3
RECON_AT = [0, 128, 256]  # first, middle and last training column of HALF stacked
HORIZON = 120


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: list[list[str]]  # koopmode arguments, one list per process
    check: Callable[[Path], dict]  # work directory -> facts for the record


def _planted(work: Path) -> list[complex]:
    planted = json.loads((work / "in" / "planted.json").read_text())
    return [complex(re, im) for re, im in planted["eigenvalues"]]


WORKLOADS = {
    "sweep_monthly": Workload(
        "sweep_monthly",
        [["sweep", DATA, "--rank", "50", "--gamma-min", "1e-3", "--gamma-max", "1e3",
          "--gamma-count", str(MONTHLY_GAMMAS), "--out", f"{OUT}/sweep"]],
        lambda work: checks.check_sweep(work / OUT / "sweep", checks.reference("sweep_monthly")),
    ),
    "sweep_seasonal": Workload(
        "sweep_seasonal",
        [["sweep", HALF, "--cycles", str(CYCLES), "--gamma-min", "1e-4",
          "--gamma-max", "16000", "--gamma-count", str(SEASONAL_GAMMAS),
          "--out", f"{OUT}/sweep"]],
        lambda work: checks.check_sweep(work / OUT / "sweep", checks.reference("sweep_seasonal")),
    ),
    "cdmd_roundtrip": Workload(
        "cdmd_roundtrip",
        [["decompose", HALF, "--method", "cdmd", "--cycles", str(CYCLES),
          "--out", f"{OUT}/art"],
         ["reconstruct", "--artifacts", f"{OUT}/art", "--cycles", str(CYCLES),
          *[arg for k in RECON_AT for arg in ("--at", str(k))],
          "--horizon", str(HORIZON), "--input", HALF, "--out", f"{OUT}/rec"]],
        lambda work: checks.check_roundtrip(work / OUT / "art", work / OUT / "rec",
                                            _planted(work), CYCLES, RECON_AT, HORIZON),
    ),
}
