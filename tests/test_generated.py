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

The damage cases feed the one .npy reader damaged files, drawn from seeds of
their own: an input, a parse-cache entry or a field of decompose's model/,
truncated, with bytes appended, with the header's shape, dtype or
fortran_order edited, or with its magic string or version corrupted. Each
damage leaves a file no reader can take for the array it held: a damaged
input or model field exits 2 with one error line naming the file, and a
damaged cache entry is a miss, parsed again to np.loadtxt's array.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from numpy.lib import format as npy

from koopmode import load_matrix
from koopmode.cli import MODEL_FIELDS, main
from conftest import npy_with_header

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
        rng.random()  # a spent draw, which keeps each later draw of a case as it was
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


DAMAGE_SEED = 20261022
DAMAGE_TARGETS = ("input", "cache", "model")
DAMAGE_KINDS = ("truncate", "append", "shape", "dtype", "fortran_order", "magic", "version")
DAMAGE_DRAWS = 3  # cases of each target and kind
DESCRS = ("<f2", "<f4", "<f8", "<c16", "|u1", "<i2", "<U3")


def damage(rng: np.random.Generator, kind: str, path) -> None:
    """Damage the version 1.0 .npy file of at least one value at path as kind
    says. An edited shape or dtype declares another number of bytes, or no
    valid dtype, and an edited fortran_order is no bool: fortran_order True,
    a shape of the same size or a dtype of the same itemsize would be another
    array, not a damaged one."""
    raw = path.read_bytes()
    if kind in ("magic", "version"):  # bytes 0-5 are the magic string, 6-7 the version
        at = int(rng.integers(6) if kind == "magic" else rng.integers(6, 8))
        path.write_bytes(raw[:at] + bytes([raw[at] ^ int(rng.integers(1, 256))]) + raw[at + 1:])
        return
    if kind in ("truncate", "append"):
        path.write_bytes(raw[:rng.integers(len(raw))] if kind == "truncate"
                         else raw + rng.bytes(int(rng.integers(1, 65))))
        return
    head = io.BytesIO(raw)
    npy.read_magic(head)
    shape, fortran_order, dtype = npy.read_array_header_1_0(head)
    texts = {"descr": repr(npy.dtype_to_descr(dtype)), "fortran_order": repr(fortran_order),
             "shape": repr(shape)}
    if kind == "shape":
        new = shape
        while math.prod(new) == math.prod(shape):
            new = ((10**6, 10**6) if rng.random() < 0.25
                   else tuple(int(d) for d in rng.integers(0, 9, rng.integers(0, 4))))
        texts["shape"] = repr(new)
    elif kind == "dtype":
        texts["descr"] = str(rng.choice([repr(descr) for descr in DESCRS
                                         if np.dtype(descr).itemsize != dtype.itemsize]
                                        + ["'|O'", "'<x9'", "3"]))
    else:
        texts["fortran_order"] = str(rng.choice(["0", "1", "None", "'False'", "()"]))
    header = "{" + "".join(f"'{key}': {text}, " for key, text in texts.items()) + "}"
    npy_with_header(path, header, raw[head.tell():])


@pytest.mark.parametrize("target, kind, draw",
                         itertools.product(DAMAGE_TARGETS, DAMAGE_KINDS, range(DAMAGE_DRAWS)),
                         ids=lambda value: str(value))
def test_damaged_npy_is_refused_naming_it(tmp_path, monkeypatch, target, kind, draw):
    rng = np.random.default_rng([DAMAGE_SEED, DAMAGE_TARGETS.index(target),
                                 DAMAGE_KINDS.index(kind), draw])
    X = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(4, 14))))
    if target == "cache":
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = tmp_path / "data.csv"
        np.savetxt(path, X, fmt="%.17g", delimiter=",")
        expected = np.loadtxt(path, delimiter=",", ndmin=2)
        load_matrix(path)
        [entry] = (tmp_path / "xdg" / "koopmode").iterdir()
        good = entry.read_bytes()
        damage(rng, kind, entry)
        assert load_matrix(path).data.tobytes() == expected.tobytes()
        assert entry.read_bytes() == good  # the miss replaced it
        return
    if target == "input":
        path = tmp_path / "data.npy"
        np.save(path, X.astype(str(rng.choice(["<f8", "<f4", "<i8", "|b1"]))))
        argv = (["ingest-info", str(path)] if rng.random() < 0.5
                else ["decompose", str(path), "--rank", "1", "--out", str(tmp_path / "out")])
        named = f"error: {path}: "
    else:
        csv = tmp_path / "data.csv"
        np.savetxt(csv, X, fmt="%.17g", delimiter=",")
        art = tmp_path / "art"
        assert run(["decompose", str(csv), "--rank", "1", "--out", str(art)])[0] == 0
        path = art / "model" / f"{rng.choice(list(MODEL_FIELDS))}.npy"
        argv = ["reconstruct", "--artifacts", str(art), "--at", "0", "--out",
                str(tmp_path / "out")]
        named = f"error: {art / 'model'} is not a koopmode model (decompose again): {path}: "
    damage(rng, kind, path)
    status, stdout, stderr, caught = run(argv)
    assert (status, stdout, [str(w.message) for w in caught]) == (2, "", [])
    (error,) = stderr.splitlines()
    assert error.startswith(named)
    assert not (tmp_path / "out").exists() and not list(tmp_path.glob(".stage-*"))
