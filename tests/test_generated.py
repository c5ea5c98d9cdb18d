"""Generated command-line runs: small p x N inputs of nine kinds, each run
through cli.main as a random decompose, sweep or ingest-info with random
flags. numpy's RNG alone draws them, from fixed seeds, so a failing case is
rerun by its id.

A share of the runs draws --rho down to 1e-300 and --gamma or --gamma-max
up to 1e308, so some reach a gamma whose optimum has no amplitude, at a
gamma / rho that may pass float64's range. A share draws --grid-shape with
dimensions from -1 up, some a factorization of the rows per snapshot, some
not, and a share of the decompose and sweep runs writes into an --out that
already holds a file koopmode does not write.

Every run must exit 0, 1 or 2, raise no RuntimeWarning and leave no staging
directory. A run that exits 1 or 2 prints only its error, one line that names
a flag (`--`) or the input file, and raises no warning at all: cli.main holds
back every warning, the library's too, until the run succeeds. A refused
--out exits 1 before anything is read, and leaves the directory as it was. A
run that exits 0 writes only strict JSON (no NaN or infinity) and a finite
sweep table, and `reconstruct --at 0 --horizon 3 --input` of a decompose's
own artifacts exits 0 too.
"""
from __future__ import annotations

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from koopmode.cli import main

SEED = 20261020
N_CASES = 240
KINDS = ("normal", "two-oscillators", "constant", "zeros", "rank-1", "scaled-1e200",
         "scaled-1e-300", "one-nan", "integers")


def make_input(rng: np.random.Generator, kind: str, p: int, n: int) -> np.ndarray:
    t = np.arange(n)
    if kind == "two-oscillators":
        return (np.outer(rng.standard_normal(p), np.cos(0.3 * t))
                + np.outer(rng.standard_normal(p), np.sin(0.3 * t)))
    if kind == "constant":
        return np.full((p, n), 3.0)
    if kind == "zeros":
        return np.zeros((p, n))
    if kind == "rank-1":
        return np.outer(rng.standard_normal(p), rng.standard_normal(n))
    if kind == "integers":
        return rng.integers(-3, 4, (p, n)).astype(float)
    X = rng.standard_normal((p, n))
    if kind == "scaled-1e200":
        X *= 1e200
    elif kind == "scaled-1e-300":
        X *= 1e-300
    elif kind == "one-nan":
        X[rng.integers(p), rng.integers(n)] = np.nan
    return X


def load_flags(rng: np.random.Generator, p: int, n: int) -> list[str]:
    flags, rows = [], p
    if rng.random() < 0.2:
        flags.append("--transpose")
        rows = n
    if rng.random() < 0.3:
        flags += ["--cycles", str(rng.integers(1, 4))]
    if rng.random() < 0.3:
        if rng.random() < 0.5:  # a grid that holds the rows per snapshot
            n_lat = int(rng.choice([d for d in range(1, rows + 1) if rows % d == 0]))
            shape = [n_lat, rows // n_lat]
        else:
            shape = rng.integers(-1, rows + 2, 2)
        flags += ["--grid-shape", *map(str, shape)]
    return flags


def log_uniform(rng: np.random.Generator, low: float, high: float) -> str:
    return repr(float(10.0 ** rng.uniform(low, high)))


def extreme(rng: np.random.Generator, usual: float, far: float) -> float:
    """An exponent bound: far in a quarter of the draws, else usual."""
    return far if rng.random() < 0.25 else usual


def solver_flags(rng: np.random.Generator, p: int, n: int, admm: bool = True) -> list[str]:
    """--rank up to max(p, N), so some exceed the data's rank or min(p, N - 1),
    and with admm the splitting's flags, --max-iter small enough to stop some
    solves."""
    flags = []
    if rng.random() < 0.5:
        flags += ["--rank", str(rng.integers(1, max(p, n) + 1))]
    if not admm:
        return flags
    if rng.random() < 0.3:
        flags += ["--rho", log_uniform(rng, extreme(rng, -3, -300), 3)]
    if rng.random() < 0.3:
        flags += ["--max-iter", str(rng.integers(1, 50))]
    return flags


def random_command(rng: np.random.Generator, path: str, out: str, p: int,
                   n: int) -> tuple[list[str], list[str]]:
    """(argv, its load flags): a subcommand drawn at random, with random flags."""
    load = load_flags(rng, p, n)
    argv = [path, *load]
    command = str(rng.choice(["decompose", "sweep", "ingest-info"], p=[0.5, 0.3, 0.2]))
    if command == "ingest-info":
        return ["ingest-info", *argv], load
    if rng.random() < 0.3:
        argv.append("--subtract-mean")
    if command == "sweep":
        count = int(rng.integers(1, 6))
        low = log_uniform(rng, -3, 0)
        high = log_uniform(rng, 0, extreme(rng, 3, 308))
        argv += ["--gamma-min", low, "--gamma-max", low if count == 1 else high,
                 "--gamma-count", str(count), *solver_flags(rng, p, n)]
        if rng.random() < 0.3:
            argv.append("--no-warm-start")
    else:
        method = str(rng.choice(["dmd", "cdmd", "spdmd"]))
        argv += ["--method", method]
        if method != "cdmd":
            argv += solver_flags(rng, p, n, admm=method == "spdmd")
            if rng.random() < 0.3:
                argv += ["--mode-style", "projected"]
        if method == "spdmd":
            argv += ["--gamma", "0" if rng.random() < 0.2
                     else log_uniform(rng, -3, extreme(rng, 3, 308))]
        if rng.random() < 0.3:
            argv += ["--top-modes", str(rng.integers(0, 4))]
    return [command, *argv, "--out", out], load


def _reject(constant: str):
    raise ValueError(f"not strict JSON: {constant}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject)


def run(argv: list[str]) -> tuple[int, str, str, list[warnings.WarningMessage]]:
    """cli.main's exit status, its stdout and stderr, and the warnings it
    raised, each recorded whatever the caller's filters."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        status = main(argv)
    return status, stdout.getvalue(), stderr.getvalue(), caught


@pytest.mark.parametrize("case", range(N_CASES))
def test_generated_run_keeps_the_invariants(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    p, n = int(rng.integers(1, 9)), int(rng.integers(1, 14))
    kind = KINDS[rng.integers(len(KINDS))]
    path = tmp_path / "data.csv"
    np.savetxt(path, make_input(rng, kind, p, n), fmt="%.17g", delimiter=",")
    out = tmp_path / "out"
    argv, load = random_command(rng, str(path), str(out), p, n)
    foreign = argv[0] != "ingest-info" and rng.random() < 0.15
    if foreign:
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
    status, stdout, stderr, caught = run(argv)
    assert status in (0, 1, 2)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not list(tmp_path.glob(".stage-*"))
    if foreign:
        assert status == 1 and [str(w.message) for w in caught] == []
        assert [entry.name for entry in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "mine\n"
    if status != 0:
        assert [str(w.message) for w in caught] == []
        (error,) = stderr.splitlines()
        assert error.startswith("error: ") and ("--" in error or str(path) in error)
        return
    if argv[0] == "ingest-info":
        strict_json(stdout)
    elif argv[0] == "sweep":
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2,
                          usecols=(0, 1, 2, 3, 4, 6))
        assert np.isfinite(rows).all()
    else:
        strict_json((out / "summary.json").read_text())
        status, _, _, caught = run(["reconstruct", "--artifacts", str(out), "--at", "0",
                                 "--horizon", "3", "--input", str(path), *load,
                                 "--out", str(tmp_path / "rec")])
        assert status == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        strict_json((tmp_path / "rec" / "recon_report.json").read_text())
