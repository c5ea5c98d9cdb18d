"""Shared synthetic-data builders used as forward-construction oracles."""
from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from koopmode import SnapshotMatrix


def planted_snapshots(p: int, n_steps: int, lams, coeffs, rng) -> tuple[np.ndarray, list]:
    """Real data y_k = Re(sum_j c_j lam_j^k w_j) with random complex directions.

    Returns (p x n_steps matrix, full conjugate-closed eigenvalue list).
    """
    ws = [rng.standard_normal(p) + 1j * rng.standard_normal(p) for _ in lams]
    Y = np.zeros((p, n_steps))
    full = []
    for lam, c, w in zip(lams, coeffs, ws):
        powers = np.array([np.complex128(lam) ** k for k in range(n_steps)])
        Y += np.real(np.outer(c * w, powers))
        full.append(complex(lam))
        if abs(complex(lam).imag) > 1e-14:
            full.append(complex(lam).conjugate())
    return Y, full


def planted_matrix(p: int, n_steps: int, lams, coeffs,
                   seed: int = 0) -> tuple[SnapshotMatrix, list]:
    rng = np.random.default_rng(seed)
    Y, full = planted_snapshots(p, n_steps, lams, coeffs, rng)
    return SnapshotMatrix(Y), full


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def real_exponentials(rng, p: int, lams, n_steps: int) -> np.ndarray:
    """Data whose every eigenvalue is real: y_k = sum_j a_j lam_j^k, random real a_j.
    np.linalg.eig returns float64 eigenvectors for such a spectrum."""
    lams = np.asarray(lams, dtype=float)
    return rng.standard_normal((p, lams.size)) @ lams[:, None] ** np.arange(n_steps)


def smoke_matrix(n_steps: int = 40) -> np.ndarray:
    """Six rows of two damped oscillations, a rank-4 signal: the smoke input of
    the command-line tests, at 40 snapshots."""
    t = np.arange(n_steps)
    return np.array([np.cos(0.3 * t + k) * 0.97 ** t + np.cos(1.1 * t + 2 * k) * 0.9 ** t
                     for k in range(6)])


def allocation_peak(fn, *args):
    """(fn(*args), peak bytes that numpy and Python allocated during the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def npy_with_header(path, header, payload):
    """Write path as a version 1.0 .npy file: header, the text of its
    dictionary, padded as numpy pads it, then the payload bytes."""
    text = header.encode("latin1")
    text += b" " * (63 - (10 + len(text)) % 64) + b"\n"
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + payload)


def fail_read_array_on(monkeypatch, path) -> None:
    """Make numpy.lib.format.read_array, which allocates the array a .npy
    header declares, fail if it is called on the file at path."""
    read_array = np.lib.format.read_array

    def checked(fh, *args, **kwargs):
        if Path(fh.name).resolve() == Path(path).resolve():
            raise AssertionError(f"read_array was called on {path}")
        return read_array(fh, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "read_array", checked)


@pytest.fixture(autouse=True, scope="session")
def cache_home(tmp_path_factory):
    """XDG_CACHE_HOME for the whole session, the command's subprocesses too: the
    parse cache is written under the session's temporary directory, never under
    the home directory's ~/.cache."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache))
        yield cache


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
