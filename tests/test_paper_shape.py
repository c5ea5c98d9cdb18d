"""The sweep at the paper's shape: the rank-600, 350-gamma SPDMD sweep of the
seed-1 stand-in for the 600 x 1548 monthly matrix (bench/gen.py), compared
with tests/data/paper_shape.json, the sweep's record at the commit that added
it.

Each gamma's cardinality must match the record exactly, and its loss within
1e-7 relative. The test prints every gamma that differs, and the total ADMM
iterations beside the record's, which it does not assert: a solver change
that keeps every row may change them.

It takes about 20 s at one BLAS thread, so it runs only with KOOPMODE_SLOW=1:

    KOOPMODE_SLOW=1 PYTHONPATH=src python -m pytest -s tests/test_paper_shape.py

The input is built by bench/gen.py, run from its source (read only, and no
bytecode is written next to it); the command runs in a subprocess at one
BLAS thread, as the installed command runs unless told otherwise.
"""
from __future__ import annotations

import csv
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "data" / "paper_shape.json"
LOSS_RTOL = 1e-7

pytestmark = pytest.mark.skipif(os.environ.get("KOOPMODE_SLOW") != "1",
                                reason="the rank-600 sweep takes about 20 s: set KOOPMODE_SLOW=1")


def test_rank_600_sweep_matches_the_record(tmp_path):
    record = json.loads(RECORD.read_text())
    runpy.run_path(str(ROOT / "bench" / "gen.py"))["write_inputs"](1, tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, "-m", "koopmode", *record["argv"], "--out", "sw"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "sw" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    print(f"\ntotal ADMM iterations {sum(int(row['iterations']) for row in rows)}, "
          f"recorded {record['total_iterations']}")
    assert len(rows) == len(record["rows"])
    differ = []
    for row, (gamma, cardinality, loss) in zip(rows, record["rows"]):
        got = (float(row["gamma"]), int(row["cardinality"]), float(row["loss_percent"]))
        if (got[:2] != (gamma, cardinality)
                or abs(got[2] - loss) > LOSS_RTOL * abs(loss)):
            differ.append(f"gamma {gamma!r}: cardinality {got[1]} (recorded {cardinality}), "
                          f"loss {got[2]!r} (recorded {loss!r})")
    print("\n".join(differ))
    assert not differ, f"{len(differ)} of {len(rows)} gamma values differ from the record"
