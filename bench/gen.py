"""Seeded synthetic stand-in for the 600 x 1548 monthly SST matrix.

The field lives on a 10 x 60 grid (p = 600 points, one row each, row-major)
over 1548 months. It is the sum of

- a mean field that falls off from the equator,
- annual and semiannual cycles and three weakly damped interannual
  oscillations, each a travelling wave (two spatial patterns in quadrature),
- red-noise anomalies: AR(1) series on large-scale patterns with a
  geometric variance spectrum, as in a stochastic climate model,
- white noise.

The field itself is fixed (drawn from FIELD_SEED). The benchmark seed draws a
permutation of the grid points, i.e. which row of the input holds which
series. Every exact-DMD, CDMD and SPDMD quantity the program computes is
equivariant under that permutation (P, q and s of the amplitude problem are
invariant), so the solvers do the same work for every seed while every byte
of the input, and the row order of every mode, changes.

The seasonal and CDMD workloads read the first HALF_MONTHS months only
(half.csv), so that one repeat of each takes a few seconds and a run holds
several repeats.

The seed may not draw the field: ADMM iteration counts are chaotic in the
data. In trials with this generator at mean level 18, drawing only the
oscillation phases from the seed moved the rank-50, 350-gamma sweep between
61k and 158k iterations over five seeds, and drawing the noise as well moved
it between 56k and 764k, while permuting the rows left it at exactly
104,768 for each of four seeds.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GRID = (10, 60)
N_MONTHS = 1548
HALF_MONTHS = N_MONTHS // 2
FIELD_SEED = 1
MEAN_LEVEL = 28.0
WHITE_NOISE = 0.05

# (period in months, per-month magnitude, amplitude) of each planted oscillation.
OSCILLATIONS = (
    (12.0, 1.0, 3.0),       # annual cycle
    (6.0, 1.0, 0.8),        # semiannual cycle
    (43.0, 0.9995, 0.9),    # interannual, ENSO-like
    (64.0, 0.9990, 0.6),
    (125.0, 0.9997, 0.5),
)
# Red-noise anomalies: RED_COUNT patterns, standard deviations falling
# geometrically from RED_STD0, lag-one autocorrelations from 0.95 down to 0.5.
RED_COUNT = 60
RED_STD0 = 0.25
RED_DECAY = 0.93


def planted_eigenvalues() -> list[complex]:
    """Monthly eigenvalues of the planted oscillations, conjugate-closed,
    with the mean field's eigenvalue 1 first."""
    lams = [1.0 + 0.0j]
    for period, mag, _ in OSCILLATIONS:
        lam = mag * np.exp(2j * np.pi / period)
        lams += [complex(lam), complex(lam.conjugate())]
    return lams


def _smooth_field(rng: np.random.Generator, n_terms: int = 6) -> np.ndarray:
    """Random large-scale pattern on the grid, unit RMS."""
    n_lat, n_lon = GRID
    lat = np.linspace(0.0, np.pi, n_lat)[:, None]
    lon = np.linspace(0.0, 2.0 * np.pi, n_lon, endpoint=False)[None, :]
    field = np.zeros(GRID)
    for _ in range(n_terms):
        kl, km = rng.integers(0, 4), rng.integers(0, 6)
        a, ph1, ph2 = rng.standard_normal(), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        field = field + a * np.cos(kl * lat + ph1) * np.cos(km * lon + ph2)
    field = field.reshape(-1)
    return field / np.sqrt(np.mean(field**2))


def field() -> np.ndarray:
    """The fixed p x N field, grid points in row-major order."""
    rng = np.random.default_rng(FIELD_SEED)
    t = np.arange(N_MONTHS)
    lat_profile = np.repeat(np.cos(np.linspace(-1.2, 1.2, GRID[0])), GRID[1])
    mean = MEAN_LEVEL * lat_profile + _smooth_field(rng)
    data = np.repeat(mean[:, None], N_MONTHS, axis=1)
    for period, mag, amp in OSCILLATIONS:
        cos_part, sin_part = _smooth_field(rng), _smooth_field(rng)
        phase = 2 * np.pi * t / period + rng.uniform(0, 2 * np.pi)
        envelope = amp * mag**t
        data += np.outer(cos_part, envelope * np.cos(phase))
        data += np.outer(sin_part, envelope * np.sin(phase))
    patterns = np.stack([_smooth_field(rng) for _ in range(RED_COUNT)])
    std = RED_STD0 * RED_DECAY ** np.arange(RED_COUNT)
    persistence = np.linspace(0.95, 0.5, RED_COUNT)
    forcing = rng.standard_normal((RED_COUNT, N_MONTHS)) * (std * np.sqrt(1 - persistence**2))[:, None]
    series = np.empty((RED_COUNT, N_MONTHS))
    series[:, 0] = std * rng.standard_normal(RED_COUNT)
    for k in range(1, N_MONTHS):
        series[:, k] = persistence * series[:, k - 1] + forcing[:, k]
    data += patterns.T @ series
    data += WHITE_NOISE * rng.standard_normal(data.shape)
    return data


def generate(seed: int) -> np.ndarray:
    """The benchmark input for one seed: the field with its rows permuted."""
    return field()[np.random.default_rng(seed).permutation(GRID[0] * GRID[1])]


def write_inputs(seed: int, directory: Path) -> Path:
    """Write data.csv and half.csv, its first HALF_MONTHS months (the
    program's only inputs), and planted.json (for the checks) into
    directory; returns the path of data.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "data.csv"
    data = generate(seed)
    np.savetxt(path, data, fmt="%.17g", delimiter=",")
    np.savetxt(directory / "half.csv", data[:, :HALF_MONTHS], fmt="%.17g", delimiter=",")
    planted = {"seed": seed, "grid": list(GRID), "n_months": N_MONTHS,
               "half_months": HALF_MONTHS,
               "eigenvalues": [[lam.real, lam.imag] for lam in planted_eigenvalues()]}
    (directory / "planted.json").write_text(json.dumps(planted, sort_keys=True) + "\n")
    return path
