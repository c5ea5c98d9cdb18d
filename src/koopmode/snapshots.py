"""Snapshot ingestion: loading, masking, and cycle stacking."""
from __future__ import annotations

import io
import json
import os
import tempfile
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

FORMATS = ("csv", "raw-float64")
FLOAT = "%.17g"  # lossless for float64; writes nan, inf and -inf in lowercase
CACHE_ENTRIES = 8  # parsed CSV inputs the cache keeps, the most recently used
CACHE_BYTES = 1 << 28  # and the most their .npy files take up in all, 256 MiB
COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")  # suffixes np.loadtxt decompresses


@dataclass(frozen=True)
class SnapshotMatrix:
    """A p x N matrix of observable snapshots, one time step per column."""

    data: np.ndarray
    grid_shape: tuple[int, int] | None = None
    mask: np.ndarray | None = None
    cycles: int = 1  # snapshots stacked per column; grid and mask describe one of them

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.data):
            raise ValueError("snapshot data must be real, got complex values")
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValueError(f"snapshot data must be 2-D, got shape {data.shape}")
        if data.shape[0] == 0:
            raise ValueError("snapshot data has zero rows")
        if data.shape[1] < 2:
            raise ValueError(f"need at least 2 snapshots, got N={data.shape[1]}")
        if not np.all(np.isfinite(data)):
            raise ValueError("snapshot data contains NaN/Inf after masking")
        if self.cycles < 1 or data.shape[0] % self.cycles:
            raise ValueError(f"p={data.shape[0]} does not split into {self.cycles} cycles")
        object.__setattr__(self, "data", data)
        rows = data.shape[0] // self.cycles
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool).reshape(-1)
            object.__setattr__(self, "mask", mask)
            if int(mask.sum()) != rows:
                raise ValueError(f"mask keeps {int(mask.sum())} points but data has "
                                 f"{rows} rows per cycle")
        if self.grid_shape is not None:  # the grid holds exactly one cycle's points
            n_lat, n_lon = self.grid_shape
            if min(n_lat, n_lon) < 1:
                raise ValueError(f"grid {n_lat}x{n_lon} has a dimension below 1")
            points, what = ((rows, "rows per cycle") if self.mask is None
                            else (self.mask.size, "mask entries"))
            if n_lat * n_lon != points:
                raise ValueError(f"grid {n_lat}x{n_lon} holds {n_lat * n_lon} points, "
                                 f"not the {points} {what}")

    @property
    def grid(self) -> tuple[int, int]:
        """The (n_lat, n_lon) grid one cycle's rows lie on: grid_shape, else
        one row of the mask's points, else of the rows per cycle."""
        if self.grid_shape is not None:
            return int(self.grid_shape[0]), int(self.grid_shape[1])
        return 1, self.mask.size if self.mask is not None else self.p // self.cycles

    def grids(self, vec: np.ndarray) -> np.ndarray:
        """Map a vector over the rows onto (cycles, n_lat, n_lon) grids, one
        per slot of a cycle, NaN off the mask."""
        vec = np.asarray(vec)
        if vec.shape != (self.p,):
            raise ValueError(f"vector shape {vec.shape} does not match p={self.p} rows")
        n_lat, n_lon = self.grid
        grids = np.full((self.cycles, n_lat * n_lon), np.nan)
        grids[:, self.mask if self.mask is not None else slice(None)] = \
            vec.reshape(self.cycles, -1)
        return grids.reshape(self.cycles, n_lat, n_lon)

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n_steps(self) -> int:
        return self.data.shape[1]


def load_matrix(
    path: str | Path,
    format: str = "csv",
    grid_shape: tuple[int, int] | None = None,
    *,
    header: bool = False,
    transpose: bool = False,
    mask: np.ndarray | None = None,
) -> SnapshotMatrix:
    """Load a snapshot matrix from CSV or raw little-endian float64 + JSON sidecar.
    header skips one CSV line; raw input has no header line to skip. A CSV's
    parse is cached (_parse_cached). With a mask, one boolean per row read, only
    the rows it flags true are kept, so the rows it drops may hold NaN or inf.
    An error about what the file holds names its path."""
    path = Path(path)
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    if header and format != "csv":
        raise ValueError(f"header applies to csv input only, not {format}")
    if format == "csv":
        data = _parse_cached(path, 1 if header else 0)
    else:
        sidecar = path.with_suffix(path.suffix + ".json")
        if not sidecar.exists():
            raise FileNotFoundError(f"missing sidecar header {sidecar}")
        try:
            head = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise ValueError(f"sidecar {sidecar} is not JSON: {exc}") from None
        rows, cols = (head.get(key) if isinstance(head, dict) else None
                      for key in ("rows", "cols"))
        if not all(type(n) is int and n >= 0 for n in (rows, cols)):
            raise ValueError(f"sidecar {sidecar} must give rows and cols as "
                             f"non-negative integers, got {head!r}")
        size = path.stat().st_size
        if size != 8 * rows * cols:
            raise ValueError(f"payload holds {size} bytes, header declares {rows}x{cols} "
                             f"float64 values, {8 * rows * cols} bytes")
        data = np.fromfile(path, dtype="<f8").reshape((rows, cols), order="F")
    if transpose:
        data = data.T
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.size != data.shape[0]:
            raise ValueError(f"{path}: mask has {mask.size} entries, data has {data.shape[0]} rows")
        data = data[mask]
    try:
        return SnapshotMatrix(data, grid_shape=grid_shape, mask=mask)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_matrix(X: SnapshotMatrix, path: str | Path, format: str = "csv") -> None:
    """Write a snapshot matrix; inverse of load_matrix for both formats."""
    path = Path(path)
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    if format == "csv":
        write_csv(path, X.data)
    else:
        sidecar = path.with_suffix(path.suffix + ".json")
        sidecar.write_text(
            json.dumps({"rows": X.p, "cols": X.n_steps}, sort_keys=True) + "\n"
        )
        np.asfortranarray(X.data).astype("<f8").ravel(order="F").tofile(path)


def write_csv(path: str | Path, rows, fmt: str | None = None,
              header: str | None = None) -> None:
    """Write each row of a 2-D array or iterable of sequences as the line
    `fmt % tuple(row)`, streaming, after an optional header line; an array's
    fmt defaults to FLOAT in every column."""
    if isinstance(rows, np.ndarray):
        if fmt is None:
            fmt = ",".join([FLOAT] * rows.shape[1])
        rows = map(np.ndarray.tolist, rows)  # Python floats format faster
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(fmt % tuple(row) + "\n")


def read_csv(path: str | Path, skiprows: int = 0, *,
             text: io.TextIOBase | None = None) -> np.ndarray:
    """The values of a comma-separated file after skiprows lines, as a 2-D
    float64 array; nan and inf parse. text, the file open for reading, is read
    in path's place. Ragged rows, a non-numeric cell or no values at all raise
    ValueError naming the path."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path if text is None else text, delimiter=",",
                              skiprows=skiprows, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"ragged rows or non-numeric cells in {path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"no values in {path}")
    return data


class _HashingReader(io.RawIOBase):
    """A binary file's bytes, hashed and counted as they are read."""

    def __init__(self, raw: io.RawIOBase, hash) -> None:
        self.raw, self.hash, self.size = raw, hash, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        self.hash.update(memoryview(buffer)[:n])
        self.size += n
        return n


def _parse_cached(path: Path, skiprows: int) -> np.ndarray:
    """read_csv(path, skiprows), kept as <size>-<digest>-<skiprows>.npy in the
    cache, $XDG_CACHE_HOME/koopmode (or ~/.cache/koopmode), size and digest the
    byte count and BLAKE2b of the file: a later call on the same bytes reads the
    .npy, and no entry can go stale. The file is hashed before the parse only
    when an entry has its size; the parse hashes the bytes it reads, so an
    entry holds the parse of the bytes its name hashes. A damaged or missing
    entry is a miss, and a failed write is silent. Without a cache directory or
    blake2b, and for a compressed file, this is read_csv."""
    if path.suffix in COMPRESSED:
        return read_csv(path, skiprows)
    root = os.environ.get("XDG_CACHE_HOME", "")
    try:
        from _blake2 import blake2b  # hashlib's import loads OpenSSL, 3.6 MB of memory
        cache = Path(root if os.path.isabs(root) else Path.home() / ".cache") / "koopmode"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        size = f"{path.stat().st_size}-"
        names = os.listdir(cache)
        raw = open(path, "rb", buffering=0)
    except (ImportError, OSError, RuntimeError):  # no blake2b, cache directory (or home)
        return read_csv(path, skiprows)  # or file: parse as without a cache, raising its error
    with raw:
        if any(name.startswith(size) for name in names):  # an entry may hold the parse
            reader, chunk = _HashingReader(raw, blake2b(digest_size=32)), bytearray(1 << 20)
            while reader.readinto(chunk):
                pass
            entry = cache / f"{reader.size}-{reader.hash.hexdigest()}-{skiprows}.npy"
            with suppress(OSError, ValueError):  # none, or a damaged one: a miss
                with open(entry, "rb") as fh:
                    data = npy.read_array(fh, allow_pickle=False)
                if data.dtype == np.float64 and data.ndim == 2:
                    with suppress(OSError):
                        os.utime(entry, ns=(time.time_ns(),) * 2)
                    return data
            raw.seek(0)
        reader = _HashingReader(raw, blake2b(digest_size=32))
        with io.TextIOWrapper(io.BufferedReader(reader)) as text:
            data = read_csv(path, skiprows, text=text)
    _store(cache / f"{reader.size}-{reader.hash.hexdigest()}-{skiprows}.npy", data)
    return data


def _store(entry: Path, data: np.ndarray) -> None:
    """Write data as the cache entry, through a temporary file of its own, and
    keep the most recently used files of the cache, at most CACHE_ENTRIES of
    CACHE_BYTES in all; data larger than that is not stored. A failure is
    silent and leaves no temporary file."""
    if data.nbytes > CACHE_BYTES:
        return
    try:
        fd, temp = tempfile.mkstemp(suffix=".tmp", prefix=".", dir=entry.parent)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            npy.write_array(fh, data, allow_pickle=False)
        os.utime(temp, ns=(time.time_ns(),) * 2)  # finer than the file system's clock
        os.replace(temp, entry)
        by_use = sorted(entry.parent.iterdir(), key=lambda item: -item.stat().st_mtime_ns)
        size = 0
        for count, item in enumerate(by_use, 1):
            size += item.stat().st_size
            if count > CACHE_ENTRIES or size > CACHE_BYTES:
                item.unlink()
    except OSError:
        with suppress(OSError):
            os.unlink(temp)


def load_mask(path: str | Path) -> np.ndarray:
    """Read a 0/1 CSV mask, row-major over (lat, lon); any other value is an error."""
    values = read_csv(path).reshape(-1)
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"mask {path} holds a value other than 0 and 1")
    return values == 1


def stack_cycles(X: SnapshotMatrix, c: int) -> SnapshotMatrix:
    """Stack c consecutive snapshots into one tall column (seasonal c=3, annual c=12);
    the N mod c trailing snapshots that fill no cycle are dropped."""
    if c < 1:
        raise ValueError(f"cycle length must be >= 1, got {c}")
    if c > X.n_steps:
        raise ValueError(f"cycle length {c} exceeds N={X.n_steps}")
    if c == 1:
        return X
    n_out = X.n_steps // c
    stacked = X.data[:, : n_out * c].reshape(X.p, n_out, c)
    stacked = np.ascontiguousarray(stacked.transpose(2, 0, 1)).reshape(X.p * c, n_out)
    return SnapshotMatrix(stacked, grid_shape=X.grid_shape, mask=X.mask, cycles=X.cycles * c)


def unstack_cycles(X: SnapshotMatrix, c: int) -> np.ndarray:
    """Inverse of stack_cycles on the columns it kept."""
    if X.p % c:
        raise ValueError(f"p={X.p} not divisible by cycle length {c}")
    base = X.p // c
    cols = X.data.reshape(c, base, X.n_steps).transpose(1, 2, 0)
    return np.ascontiguousarray(cols).reshape(base, X.n_steps * c)


def subtract_mean(X: SnapshotMatrix) -> tuple[SnapshotMatrix, np.ndarray]:
    """Remove the temporal mean of each row; returns (centered, mean) so the
    original data is recoverable by addition."""
    mean = X.data.mean(axis=1)
    centered = X.data - mean[:, None]
    return replace(X, data=centered), mean
