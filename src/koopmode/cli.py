"""Command-line pipelines: ingest-info, decompose, sweep, reconstruct, heatmap.

decompose writes its model to model/, one .npy file per field: the one thing reconstruct
reads. Its other artifacts are reports for people, CSV/JSON with 17-significant-digit floats.
All are byte-stable across runs. Each run publishes its output directory as a whole: a
failed run leaves no partial files, and a rerun leaves no file of the last. main holds back
a run's warnings, the library's too, and warns of each once, from cli, only if it succeeds.
The one write outside --out is the parse cache of the CSV input (snapshots._parse_cached).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .cdmd import companion_dmd
from .dmd import (MODE_STYLES, DecompositionResult, RankError, conjugate_pairs,
                  conjugate_representatives, exact_dmd, mode_stats, real_matmul)
from .rom import reconstruct, temporal_dynamics
from .snapshots import (
    FLOAT,
    SnapshotMatrix,
    load_mask,
    load_matrix,
    read_csv,
    read_npy,
    stack_cycles,
    subtract_mean,
    write_csv,
)
from .spdmd import (
    AdmmParams,
    QuadraticForm,
    data_energy,
    gamma_sweep,
    log_gamma_grid,
    optimal_amplitudes,
    performance_loss,
    quadratic_form,
    select_modes,
    solve_at_gamma,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

NAN_COLOR = (255, 0, 255)
# Names the subcommands write into an output directory, older versions' model.npz, modes_matrix.npy
# and modes_matrix.csv among them: an existing directory holding anything else is not replaced.
ARTIFACT_NAMES = ("model", "model.npz", "eigenvalues.csv", "modes", "temporal.csv",
                  "summary.json", "sweep.csv", "pareto.csv", "recon_*.csv", "forecast.csv",
                  "recon_report.json", "mean.csv", "modes_matrix.npy", "modes_matrix.csv")
# the model's fields, each in model/<field>.npy: each one's type and number of dimensions
MODEL_FIELDS = {"method": (np.str_, 0), "eigenvalues": (np.complex128, 1),
                "amplitudes": (np.complex128, 1), "original_indices": (np.integer, 1),
                "modes": (np.complex128, 2), "mean": (np.float64, 1), "n_train": (np.integer, 0)}
# AdmmParams fields set by the solver flags; their defaults are AdmmParams'.
ADMM_FLAGS = ("rho", "eps_abs", "eps_rel", "max_iter")
EIGENBASIS_COND_LIMIT = 1e12  # a run warns of a near-defective eigenbasis above this cond(W)


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # one error line and exit 1, not usage and exit 2
        raise UsageError(message)


@contextmanager
def _published(target: Path):
    """Yield a staging path next to target, for what the run makes there; on success
    the stage replaces target as a whole, so no file of an earlier run survives."""
    target.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=".stage-", dir=target.parent))
    try:
        stage = holder / "new"
        yield stage
        if stage.is_dir() and target.exists():  # os.replace fails onto a non-empty directory
            os.replace(target, holder / "old")
        os.replace(stage, target)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def _json_text(obj) -> str:
    """obj as indented JSON with sorted keys; a NaN or infinity, which JSON
    cannot hold, raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _check_out(args: argparse.Namespace) -> Path:
    """--out resolved, checked before the run reads anything: it is replaced as a
    whole, so it must not be or hold a path the run reads, and an existing one
    must be heatmap's file or another command's directory of ARTIFACT_NAMES, and
    its nearest existing ancestor a directory."""
    out = Path(args.out).resolve()
    image = args.command == "heatmap"
    refusing = f"refusing to replace {'' if image else '--out '}{out}"
    ancestor = next((path for path in out.parents if path.exists()), out)  # out may be /
    if not ancestor.is_dir():
        raise UsageError(f"{refusing}: {ancestor} is not a directory")
    for read in (getattr(args, name, None) for name in ("artifacts", "input", "mask", "grid")):
        if read is not None and Path(read).resolve().is_relative_to(out):
            raise UsageError(f"{refusing}: the run reads {read}")
    if out.exists() and not (out.is_file() if image else out.is_dir() and all(
            any(child.match(name) for name in ARTIFACT_NAMES) for child in out.iterdir())):
        raise UsageError(f"{refusing}: not {'a file' if image else 'a koopmode output directory'}")
    return out


def _load_input(args: argparse.Namespace) -> tuple[SnapshotMatrix, np.ndarray]:
    """The input as the flags lay it out, and with --subtract-mean the row means
    it subtracted, else zeros; snapshots --cycles drops are a finding."""
    if args.mask is not None and args.grid_shape is None:
        raise UsageError("--mask requires --grid-shape")
    if args.header and Path(args.input).suffix == ".npy":
        raise UsageError(f"--header applies to CSV input only, not the .npy file {args.input}")
    X = load_matrix(args.input, grid_shape=args.grid_shape,
                    header=args.header, transpose=args.transpose,
                    mask=None if args.mask is None else load_mask(args.mask))
    dropped = X.n_steps % args.cycles
    if args.cycles > 1:
        try:
            X = stack_cycles(X, args.cycles)
        except ValueError as exc:  # too few snapshots to stack
            raise ValueError(f"{args.input}: --cycles {args.cycles}: {exc}") from None
    if dropped:
        warnings.warn(f"{args.input}: dropped {dropped} trailing snapshot(s) not filling a "
                      f"cycle of --cycles {args.cycles}")
    if getattr(args, "subtract_mean", False):  # reconstruct compares its --input raw
        return subtract_mean(X)
    return X, np.zeros(X.p)


def _admm_params(args: argparse.Namespace) -> AdmmParams:
    return AdmmParams(**{name: getattr(args, name) for name in ADMM_FLAGS})


def _reject_ignored_flags(args: argparse.Namespace) -> None:
    """A decompose flag that the chosen method would not read is a usage error."""
    ignored = []
    if args.method == "cdmd":  # companion_dmd has order N-1 and one mode style
        if args.rank is not None:
            ignored.append("--rank")
        if args.mode_style != "exact":
            ignored.append("--mode-style")
    if args.method != "spdmd":
        if args.gamma != 0:
            ignored.append("--gamma")
        ignored += ["--" + name.replace("_", "-") for name in ADMM_FLAGS
                    if getattr(args, name) != getattr(AdmmParams, name)]
    if ignored:
        raise UsageError(f"method {args.method} does not read {', '.join(ignored)}")


def _decompose(args: argparse.Namespace,
               X: SnapshotMatrix) -> tuple[DecompositionResult, QuadraticForm]:
    """The selected decomposition, amplitudes unset, and the quadratic form of
    its fit against the zero-lag snapshots, in the same column order, built
    from the modes' factors without forming them; a near-defective eigenbasis
    and a near-singular form are each a finding. The snapshots' sum of squares
    must be a finite positive float64, and --rank at most min(p, N - 1), before
    any fit."""
    with np.errstate(over="ignore"):
        energy = data_energy(X.data[:, :-1])
    if not np.finfo(float).tiny <= energy < np.inf:
        raise ValueError(f"{args.input}: the sum of squares of the snapshots to fit is "
                         f"{energy:.3g}, not a finite positive float64 (the data is all "
                         "zero, or its magnitude is outside about 1e-154 to 1e154)")
    if args.rank is not None and args.rank > min(X.p, X.n_steps - 1):
        raise ValueError(f"{args.input}: --rank {args.rank} exceeds min(p, N - 1) = "
                         f"{min(X.p, X.n_steps - 1)} of its p x N = {X.p} x {X.n_steps} snapshots")
    try:
        base = (companion_dmd(X.data) if args.method == "cdmd"
                else exact_dmd(X.data, rank=args.rank, mode_style=args.mode_style))
    except RankError as exc:  # "rank R exceeds the numerical rank K, ..."
        raise ValueError(f"{args.input}: --{exc}") from None
    except ValueError as exc:  # "companion fit needs N >= 3, got N=2"
        raise ValueError(f"{args.input}: --method {args.method}: {exc}") from None
    cond = np.linalg.cond(base.coefficients)
    if cond > EIGENBASIS_COND_LIMIT:
        warnings.warn(f"near-defective eigenbasis, condition {cond:.3e}")
    form = quadratic_form(X.data[:, :-1], base.basis, base.coefficients, base.eigenvalues)
    if form.near_singular:
        warnings.warn("near-singular amplitude system, using minimum-norm solution")
    return base, form


def _fit(args: argparse.Namespace,
         X: SnapshotMatrix) -> tuple[DecompositionResult, float, dict | None]:
    """Decompose and fit amplitudes; returns the result sorted by amplitude,
    the loss of the fit as a percentage of the data norm, as the form scores
    it, and for spdmd what the splitting did (iterations, convergence, final
    rho: an unconverged fit is a finding). The result's modes are not formed:
    writing them takes one column per conjugate pair from its factors."""
    base, form = _decompose(args, X)
    if args.method != "spdmd":
        return (base.with_amplitudes(optimal_amplitudes(form)),
                performance_loss(form.floor, form.s), None)
    solution = solve_at_gamma(form, args.gamma, _admm_params(args))
    stopped = f"the splitting stopped at --max-iter {args.max_iter} without converging"
    if solution.cardinality == 0:
        if not solution.admm.converged:
            raise ValueError(f"{stopped}, with no amplitude left at gamma={args.gamma}")
        raise ValueError(f"--gamma {args.gamma} zeroed out every amplitude")
    if not solution.admm.converged:
        warnings.warn(f"{stopped} at gamma={args.gamma}")
    result = select_modes(base, solution)
    return result, solution.loss_percent, {"iterations": int(solution.admm.iterations),
                                           "converged": bool(solution.admm.converged),
                                           "rho": float(solution.admm.rho)}


def _write_decomposition(stage: Path, args: argparse.Namespace, X: SnapshotMatrix,
                         mean: np.ndarray, result: DecompositionResult,
                         full_loss: float, admm: dict | None) -> None:
    shown = conjugate_representatives(result.eigenvalues)
    modes = real_matmul(result.basis, result.coefficients[:, shown])  # a partner is conjugate
    model = {"method": np.str_(result.method), "eigenvalues": result.eigenvalues.astype(complex),
             "amplitudes": result.amplitudes.astype(complex), "modes": modes, "mean": mean,
             "original_indices": result.original_indices, "n_train": np.int64(X.n_steps - 1)}
    (stage / "model").mkdir()
    for name, value in model.items():  # each C-contiguous: np.save writes it without a copy
        np.save(stage / "model" / f"{name}.npy", value)
    write_csv(stage / "eigenvalues.csv",
              ((int(idx), lam.real, lam.imag, *mode_stats(lam),
                b.real, b.imag, abs(b))
               for idx, lam, b in zip(result.original_indices, result.eigenvalues,
                                      result.amplitudes)),
              "%d" + f",{FLOAT}" * 8,
              "index,re,im,magnitude,e_folding,period,amp_re,amp_im,amp_abs")
    if args.subtract_mean:
        write_csv(stage / "mean.csv", mean[:, None])
    modes_dir = stage / "modes"
    modes_dir.mkdir()
    for idx, col in zip(result.original_indices[shown[:args.top_modes]], modes.T):
        for tag, values in (("real", col.real), ("imag", col.imag), ("abs", np.abs(col))):
            write_csv(modes_dir / f"{int(idx)}_{tag}.csv", X.grids(values).mean(axis=0))

    n_steps = X.n_steps - 1
    dyn = temporal_dynamics(result, n_steps, rows=shown)
    write_csv(stage / "temporal.csv", np.column_stack([np.arange(n_steps), dyn.T]),
              header=",".join(["t"] + [f"mode{i}" for i in result.original_indices[shown]]))

    summary = {
        "toolkit_version": __version__,
        "method": result.method,
        "rank": int(result.rank),
        "data_shape": [int(X.p), int(X.n_steps)],
        "grid_shape": list(X.grid),
        "cycles": int(args.cycles),
        "dt_label": args.dt_label,
        "full_fit_loss_percent": full_loss,
        "config": {k: v for k, v in vars(args).items() if k not in ("command", "run")},
    }
    if admm is not None:
        summary["admm"] = admm
    (stage / "summary.json").write_text(_json_text(summary))


def cmd_decompose(args: argparse.Namespace) -> int:
    _reject_ignored_flags(args)
    out = _check_out(args)
    X, mean = _load_input(args)
    result, full_loss, admm = _fit(args, X)
    with _published(out) as stage:
        stage.mkdir()
        _write_decomposition(stage, args, X, mean, result, full_loss, admm)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        gammas = log_gamma_grid(args.gamma_min, args.gamma_max, args.gamma_count)
    except ValueError as exc:
        raise UsageError(f"--gamma-min/--gamma-max/--gamma-count: {exc}") from None
    out = _check_out(args)
    X, _ = _load_input(args)
    _, form = _decompose(args, X)
    solutions = gamma_sweep(form, gammas, _admm_params(args))
    stalled = sum(not s.admm.converged for s in solutions)
    if stalled:
        warnings.warn(f"the splitting stopped at --max-iter {args.max_iter} without converging at"
                      f" {stalled} of {gammas.size} gamma values (sweep.csv's converged column)")
    best: dict[int, int] = {}
    for i, s in enumerate(solutions):
        if s.cardinality not in best or s.loss_percent < solutions[best[s.cardinality]].loss_percent:
            best[s.cardinality] = i
    with _published(out) as stage:
        stage.mkdir()
        for name, chosen in (("sweep.csv", solutions),
                             ("pareto.csv", [solutions[i] for i in sorted(best.values())])):
            write_csv(stage / name,
                      ((s.gamma, s.cardinality, s.cost, s.loss_percent, s.admm.iterations,
                        "true" if s.admm.converged else "false", s.admm.rho) for s in chosen),
                      f"{FLOAT},%d,{FLOAT},{FLOAT},%d,%s,{FLOAT}",
                      "gamma,cardinality,cost,loss_percent,iterations,converged,rho")
    return EXIT_OK


def _load_model(artifacts: Path) -> tuple[DecompositionResult, np.ndarray, int]:
    """artifacts/model's model, row means (zeros without --subtract-mean) and n_train, the
    first forecast step: each field typed as MODEL_FIELDS says, of fitting shape, finite;
    at least one eigenvalue, and n_train >= 0."""
    path, fields = artifacts / "model", {}
    try:
        for name, (kind, ndim) in MODEL_FIELDS.items():
            value = fields[name] = read_npy(path / f"{name}.npy")
            if value.ndim != ndim or not np.issubdtype(value.dtype, kind):
                raise ValueError(f"{name} is not {kind.__name__} of {ndim} dimensions")
            if value.dtype.kind in "cf" and not np.isfinite(value).all():
                raise ValueError(f"{name} holds a non-finite value")
        lam, modes = fields["eigenvalues"], fields["modes"]
        shown = conjugate_representatives(lam)  # exact binary eigenvalues: decompose's pairing
        for name, shape in (("amplitudes", lam.shape), ("original_indices", lam.shape),
                            ("modes", (modes.shape[0], shown.size)), ("mean", modes.shape[:1])):
            if fields[name].shape != shape:
                raise ValueError(f"{name} has shape {fields[name].shape}, expected {shape}")
        if not lam.size:
            raise ValueError("eigenvalues is empty")
        if fields["n_train"] < 0:
            raise ValueError(f"n_train is {fields['n_train']}, not >= 0")
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path} is not a koopmode model (decompose again): {exc}") from None
    # the fitted form: stored column c is real basis columns 2c (re) and 2c + 1 (im)
    coefficients = np.zeros((shown.size, 2, lam.size), dtype=complex)
    coefficients[np.arange(shown.size), :, conjugate_pairs(lam)[shown]] = (1, -1j)  # re - i im
    coefficients[np.arange(shown.size), :, shown] = (1, 1j)  # last: unpaired is its own partner
    model = DecompositionResult(
        eigenvalues=lam, basis=np.ascontiguousarray(modes, dtype=complex).view(np.float64),
        coefficients=coefficients.reshape(-1, lam.size), amplitudes=fields["amplitudes"],
        method=str(fields["method"]), original_indices=fields["original_indices"])
    return model, fields["mean"], int(fields["n_train"])


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.horizon is None and not args.at:
        raise UsageError("nothing to do: need --at indices or --horizon >= 1")
    defaults = vars(_add_load_args(argparse.ArgumentParser()).parse_args([]))
    given = ["--" + k.replace("_", "-") for k, v in defaults.items() if getattr(args, k) != v]
    if given and args.input is None:
        raise UsageError(f"{', '.join(given)} without --input: load flags lay out only --input")
    out = _check_out(args)
    # --input before the model: its layout flags are usage errors, refused before any read
    reference, _ = (None, None) if args.input is None else _load_input(args)
    model, mean, n_train = _load_model(Path(args.artifacts))  # the mean is added back
    if reference is not None and reference.p != mean.size:
        raise ValueError(f"--input {args.input} has p={reference.p} rows, "
                         f"model expects {mean.size}")
    report: dict = {"indices": args.at, "horizon": args.horizon, "relative_errors": {},
                    "imag_residuals": {}, "forecast_imag_residual": None}
    with _published(out) as stage:
        stage.mkdir()
        for k in args.at:
            snapshot, resid = reconstruct(model, k, 1)
            vec = snapshot[:, 0] + mean
            write_csv(stage / f"recon_{k}.csv", vec[:, None])
            report["imag_residuals"][str(k)] = float(resid[0])
            if reference is not None:  # null past the input's last column
                err = None
                if k < reference.n_steps:
                    col = reference.data[:, k]
                    denom = max(float(np.linalg.norm(col)), np.finfo(float).tiny)
                    err = float(np.linalg.norm(vec - col) / denom)
                report["relative_errors"][str(k)] = err
        if args.horizon is not None:
            forecast, resid = reconstruct(model, n_train, args.horizon)
            write_csv(stage / "forecast.csv", forecast + mean[:, None])
            report["forecast_imag_residual"] = float(resid.max())
        (stage / "recon_report.json").write_text(_json_text(report))
    return EXIT_OK


def _grey_levels(values: np.ndarray) -> np.ndarray:
    """round(255 (v - lo) / (hi - lo)) of each value, lo and hi the values' min
    and max (0 where they are equal), taken half to even from the exact quotient."""
    if values.size == 0 or values.min() == values.max():
        return np.zeros(values.size)
    # scaled by a power of two to magnitudes below 1: 255 (v - lo) stays finite
    # where hi - lo would pass float64's range
    scaled = np.ldexp(values, -np.frexp(np.abs(values).max())[1])
    lo, hi = scaled.min(), scaled.max()
    levels = 255.0 * (scaled - lo) / (hi - lo)
    # each level takes four roundings, so it lies within 4 ulps of the exact
    # quotient: one within 8 ulps of a half is rounded from that, in rationals
    half = np.floor(levels) + 0.5
    near = np.flatnonzero(np.abs(levels - half) <= 8 * np.spacing(half))
    levels = np.round(levels)
    if near.size:
        from fractions import Fraction  # only here: most grids never need it
        lo = Fraction(values.min())
        span = Fraction(values.max()) - lo
        for i in near:
            levels[i] = round(255 * (Fraction(values[i]) - lo) / span)
    return levels


def render_heatmap(grid: np.ndarray) -> bytes:
    """Binary PPM: linear grayscale from grid min to max (_grey_levels), NaN in
    a fixed color."""
    h, w = grid.shape
    finite = np.isfinite(grid)
    pixels = np.empty((h, w, 3), dtype=np.uint8)
    pixels[:] = NAN_COLOR
    pixels[finite] = _grey_levels(grid[finite])[:, None]
    return f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes()


def cmd_heatmap(args: argparse.Namespace) -> int:
    out = _check_out(args)
    data = render_heatmap(read_csv(args.grid))
    with _published(out) as stage:
        stage.write_bytes(data)
    return EXIT_OK


def cmd_ingest_info(args: argparse.Namespace) -> int:
    X, _ = _load_input(args)
    info = {
        "p": X.p,
        "n_steps": X.n_steps,
        "dt_label": args.dt_label,
        "grid_shape": list(X.grid),
        "masked_points": int(X.mask.size - X.mask.sum()) if X.mask is not None else None,
        "min": float(X.data.min()),
        "max": float(X.data.max()),
        "mean": float(X.data.mean()),
    }
    sys.stdout.write(_json_text(info))
    return EXIT_OK


def _bounded(cast: type, low: float, strict: bool = False):
    """argparse type: cast(text), rejected if not finite or below low (and at low if strict)."""
    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _add_load_args(sub: argparse.ArgumentParser) -> argparse.ArgumentParser:
    sub.add_argument("--header", action="store_true", help="skip one CSV header line")
    sub.add_argument("--transpose", action="store_true",
                     help="input is time x space instead of space x time")
    sub.add_argument("--grid-shape", nargs=2, type=_bounded(int, 1), metavar=("NLAT", "NLON"))
    sub.add_argument("--mask", help="0/1 CSV mask over the full grid")
    sub.add_argument("--cycles", type=_bounded(int, 1), default=1,
                     help="stack this many consecutive snapshots per column")
    return sub


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="snapshot matrix file: .npy, else CSV")
    _add_load_args(sub)
    sub.add_argument("--subtract-mean", action="store_true")


def _add_dmd_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rank", type=_bounded(int, 1), default=None)
    sub.add_argument("--mode-style", choices=MODE_STYLES, default="exact")
    sub.add_argument("--rho", type=_bounded(float, 0, strict=True), default=AdmmParams.rho)
    sub.add_argument("--eps-abs", type=_bounded(float, 0), default=AdmmParams.eps_abs)
    sub.add_argument("--eps-rel", type=_bounded(float, 0), default=AdmmParams.eps_rel)
    sub.add_argument("--max-iter", type=_bounded(int, 1), default=AdmmParams.max_iter)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="koopmode",
                     description="Koopman mode decomposition pipelines")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    info = subs.add_parser("ingest-info", help="load and summarize a snapshot matrix")
    info.set_defaults(run=cmd_ingest_info)
    _add_input_args(info)

    decompose = subs.add_parser("decompose", help="run a decomposition and export artifacts")
    decompose.set_defaults(run=cmd_decompose)
    _add_input_args(decompose)
    decompose.add_argument("--method", choices=("dmd", "cdmd", "spdmd"), default="dmd")
    decompose.add_argument("--gamma", type=_bounded(float, 0), default=0.0,
                           help="sparsity weight (method spdmd only)")
    decompose.add_argument("--top-modes", type=_bounded(int, 0), default=None,
                           help="export grids of this many modes, a conjugate pair counting once")

    sweep = subs.add_parser("sweep", help="trade accuracy against mode count over gamma")
    sweep.set_defaults(run=cmd_sweep, method="spdmd")
    _add_input_args(sweep)
    sweep.add_argument("--gamma-min", type=_bounded(float, 0), default=1e-3)
    sweep.add_argument("--gamma-max", type=_bounded(float, 0), default=1e3)
    sweep.add_argument("--gamma-count", type=_bounded(int, 1), default=50)
    for p in (decompose, sweep):
        _add_dmd_args(p)
    for p in (info, decompose):  # the two that report it: sweep has no summary to label
        p.add_argument("--dt-label", default="step")

    reconstruct = subs.add_parser("reconstruct",
                                  help="rebuild snapshots and forecast from artifacts")
    reconstruct.set_defaults(run=cmd_reconstruct)
    reconstruct.add_argument("--artifacts", required=True, help="decompose output directory")
    reconstruct.add_argument("--at", type=_bounded(int, 0), action="append", default=[],
                             help="time index to reconstruct (repeatable)")
    reconstruct.add_argument("--horizon", type=_bounded(int, 1), default=None,
                             help="forecast this many steps past the training window")
    reconstruct.add_argument("--input", default=None,
                             help="original data file for per-column error reporting")
    _add_load_args(reconstruct)

    for p in (decompose, sweep, reconstruct):
        p.add_argument("--out", default="out", help="output directory, replaced as a whole")

    p = subs.add_parser("heatmap", help="render a grid CSV as a grayscale PPM image")
    p.set_defaults(run=cmd_heatmap)
    p.add_argument("grid", help="grid CSV (NaN sentinel allowed)")
    p.add_argument("out", help="output .ppm path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:  # caller's filters act
            status = args.run(args)
        for message, category in dict.fromkeys((str(w.message), w.category) for w in caught):
            warnings.warn(message, category)  # a filter on cli alone can make it the error
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help / --version
        return exc.code if isinstance(exc.code, int) else 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
