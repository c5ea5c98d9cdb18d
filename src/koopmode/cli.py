"""Command-line pipelines: ingest-info, decompose, sweep, reconstruct, heatmap.

Artifacts are CSV/JSON with 17-significant-digit floats, except the modes
matrix, a NumPy .npy file; all are byte-stable across runs. Each run publishes
its output directory as a whole: a failed run leaves no partial files, and a
rerun leaves no file of the last.
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
from .dmd import (DecompositionResult, conjugate_pairs, conjugate_representatives,
                  exact_dmd, mode_stats, real_matmul)
from .rom import reconstruct, temporal_dynamics
from .snapshots import (
    SnapshotMatrix,
    load_mask,
    load_matrix,
    stack_cycles,
    subtract_mean,
    write_csv,
)
from .spdmd import (
    AdmmParams,
    QuadraticForm,
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
FLOAT = "%.17g"  # lossless for float64
# Names the subcommands write into an output directory; an existing directory
# holding anything else is not replaced. modes_matrix.csv is the name older
# versions gave the modes matrix, so their output directories can be replaced.
ARTIFACT_NAMES = ("eigenvalues.csv", "modes_matrix.npy", "modes", "temporal.csv",
                  "summary.json", "sweep.csv", "pareto.csv", "recon_*.csv",
                  "forecast.csv", "recon_report.json", "mean.csv", "modes_matrix.csv")
# eigenvalues.csv's columns, as decompose writes them and reconstruct reads them.
EIGENVALUE_COLUMNS = ("index", "re", "im", "magnitude", "e_folding", "period",
                      "amp_re", "amp_im", "amp_abs")
# AdmmParams fields set by the solver flags; their defaults are AdmmParams'.
ADMM_FLAGS = ("rho", "eps_abs", "eps_rel", "max_iter")


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


@contextmanager
def _published(target: Path):
    """Yield a staging path next to target, a file's or a directory's; on
    success it replaces target as a whole, so no file of an earlier run survives."""
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


def _check_out(args: argparse.Namespace) -> None:
    """--out is replaced as a whole: it must not be or hold a path the run reads."""
    out = Path(args.out).resolve()
    for read in (getattr(args, name, None) for name in ("artifacts", "input", "mask", "grid")):
        if read is not None and Path(read).resolve().is_relative_to(out):
            raise UsageError(f"refusing to replace {out}: the run reads {read}")


@contextmanager
def _staged_output(outdir: str | Path):
    """Stage the artifacts in a directory that replaces outdir as a whole."""
    outdir = Path(outdir).resolve()
    if outdir.exists() and not (outdir.is_dir() and all(
            any(child.match(name) for name in ARTIFACT_NAMES) for child in outdir.iterdir())):
        raise UsageError(f"refusing to replace {outdir}: not a koopmode output directory")
    with _published(outdir) as stage:
        stage.mkdir()
        yield stage


def _float_csv(path: Path, rows: np.ndarray, header: str | None = None) -> None:
    rows = np.atleast_2d(rows)
    write_csv(path, rows, ",".join([FLOAT] * rows.shape[1]), header)


def _load_input(args: argparse.Namespace) -> tuple[SnapshotMatrix, np.ndarray | None]:
    """The input as the flags lay it out, and with --subtract-mean the row
    means it subtracted, else None."""
    if args.mask is not None and args.grid_shape is None:
        raise UsageError("--mask requires --grid-shape")
    X = load_matrix(args.input, format=args.format, grid_shape=args.grid_shape,
                    header=args.header, transpose=args.transpose,
                    mask=None if args.mask is None else load_mask(args.mask))
    if args.cycles > 1:
        X = stack_cycles(X, args.cycles)
    if getattr(args, "subtract_mean", False):  # reconstruct compares its --input raw
        return subtract_mean(X)
    return X, None


def _admm_params(args: argparse.Namespace, **extra) -> AdmmParams:
    return AdmmParams(**{name: getattr(args, name) for name in ADMM_FLAGS}, **extra)


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
    from the modes' factors without forming them."""
    base = (companion_dmd(X.data) if args.method == "cdmd"
            else exact_dmd(X.data, rank=args.rank, mode_style=args.mode_style))
    return base, quadratic_form(X.data[:, :-1], base.basis, base.coefficients, base.eigenvalues)


def _fit(args: argparse.Namespace,
         X: SnapshotMatrix) -> tuple[DecompositionResult, float, dict | None]:
    """Decompose and fit amplitudes; returns the result sorted by amplitude,
    the loss of the fit as a percentage of the data norm, as the form scores
    it, and for spdmd what the splitting did (iterations, convergence, final
    rho). The result's modes are not formed: writing them takes one column per
    conjugate pair from its factors."""
    base, form = _decompose(args, X)
    if args.method != "spdmd":
        return (base.with_amplitudes(optimal_amplitudes(form)),
                performance_loss(form.floor, form.s), None)
    solution = solve_at_gamma(form, args.gamma, _admm_params(args))
    result = select_modes(base, solution)
    if result.rank == 0:
        if not solution.admm.converged:
            raise ValueError(f"the splitting stopped at --max-iter {args.max_iter} without "
                             f"converging, with no amplitude left at gamma={args.gamma}")
        raise ValueError(f"gamma={args.gamma} zeroed out every amplitude")
    return result, solution.loss_percent, {"iterations": int(solution.admm.iterations),
                                           "converged": bool(solution.admm.converged),
                                           "rho": float(solution.admm.rho)}


def _write_decomposition(stage: Path, args: argparse.Namespace, X: SnapshotMatrix,
                         result: DecompositionResult, full_loss: float,
                         admm: dict | None) -> None:
    write_csv(stage / "eigenvalues.csv",
              ((int(idx), lam.real, lam.imag, *mode_stats(lam),
                b.real, b.imag, abs(b))
               for idx, lam, b in zip(result.original_indices, result.eigenvalues,
                                      result.amplitudes)),
              "%d" + f",{FLOAT}" * 8, ",".join(EIGENVALUE_COLUMNS))
    shown = conjugate_representatives(result.eigenvalues)
    modes = real_matmul(result.basis, result.coefficients[:, shown])  # a partner is conjugate
    np.save(stage / "modes_matrix.npy", modes)
    modes_dir = stage / "modes"
    modes_dir.mkdir()
    for idx, col in zip(result.original_indices[shown[:args.top_modes]], modes.T):
        for tag, values in (("real", col.real), ("imag", col.imag), ("abs", np.abs(col))):
            _float_csv(modes_dir / f"{int(idx)}_{tag}.csv", X.grids(values).mean(axis=0))

    n_steps = X.n_steps - 1
    dyn = temporal_dynamics(result, n_steps, rows=shown)
    _float_csv(stage / "temporal.csv", np.column_stack([np.arange(n_steps), dyn.T]),
               ",".join(["t"] + [f"mode{i}" for i in result.original_indices[shown]]))

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
    (stage / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def cmd_decompose(args: argparse.Namespace) -> int:
    _reject_ignored_flags(args)
    _check_out(args)
    X, mean = _load_input(args)
    result, full_loss, admm = _fit(args, X)
    with _staged_output(args.out) as stage:
        _write_decomposition(stage, args, X, result, full_loss, admm)
        if mean is not None:
            _float_csv(stage / "mean.csv", mean[:, None])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        gammas = log_gamma_grid(args.gamma_min, args.gamma_max, args.gamma_count)
    except ValueError as exc:
        raise UsageError(f"gamma grid: {exc}") from None
    _check_out(args)
    _, form = _decompose(args, _load_input(args)[0])
    solutions = gamma_sweep(form, gammas,
                            _admm_params(args, warm_start=not args.no_warm_start))
    best: dict[int, int] = {}
    for i, s in enumerate(solutions):
        if s.cardinality not in best or s.loss_percent < solutions[best[s.cardinality]].loss_percent:
            best[s.cardinality] = i
    with _staged_output(args.out) as stage:
        for name, chosen in (("sweep.csv", solutions),
                             ("pareto.csv", [solutions[i] for i in sorted(best.values())])):
            write_csv(stage / name,
                      ((s.gamma, s.cardinality, s.cost, s.loss_percent, s.admm.iterations,
                        "true" if s.admm.converged else "false", s.admm.rho) for s in chosen),
                      f"{FLOAT},%d,{FLOAT},{FLOAT},%d,%s,{FLOAT}",
                      "gamma,cardinality,cost,loss_percent,iterations,converged,rho")
    return EXIT_OK


def _summary_field(artifacts: Path, summary: dict, *keys: str):
    """summary.json's value at the nested keys; a missing one is a ValueError."""
    value = summary
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{artifacts / 'summary.json'} has no field {'.'.join(keys)}")
        value = value[key]
    return value


def _read_eigenvalues(path: Path) -> dict[str, np.ndarray]:
    """eigenvalues.csv's columns by name; its header must be EIGENVALUE_COLUMNS,
    and the columns the model takes finite, before they are paired and cast."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(EIGENVALUE_COLUMNS):
            raise ValueError(f"{path} has the header {header!r}, "
                             f"expected {','.join(EIGENVALUE_COLUMNS)!r}")
        eig = np.loadtxt(fh, delimiter=",", ndmin=2)
    if eig.shape[1] != len(EIGENVALUE_COLUMNS):
        raise ValueError(f"{path} has rows of {eig.shape[1]} values, "
                         f"expected {len(EIGENVALUE_COLUMNS)}")
    columns = dict(zip(EIGENVALUE_COLUMNS, eig.T))
    if not all(np.isfinite(columns[name]).all()
               for name in ("index", "re", "im", "amp_re", "amp_im")):
        raise ValueError(f"{path} holds a non-finite value")
    return columns


def _load_model(artifacts: Path) -> tuple[DecompositionResult, dict]:
    summary = json.loads((artifacts / "summary.json").read_text())
    eig = _read_eigenvalues(artifacts / "eigenvalues.csv")
    lam = eig["re"] + 1j * eig["im"]  # %.17g round-trips, so the pairing is decompose's
    shown = conjugate_representatives(lam)
    modes = np.load(artifacts / "modes_matrix.npy", allow_pickle=False)
    if modes.dtype != np.complex128 or modes.ndim != 2 or modes.shape[1] != shown.size:
        raise ValueError(f"modes_matrix.npy holds {modes.dtype} {modes.shape}, expected "
                         f"complex128 with {shown.size} columns, one per conjugate pair or "
                         "unpaired mode (an older layout: decompose again)")
    # the fitted form: stored column c is real basis columns 2c (re) and 2c + 1 (im)
    coefficients = np.zeros((shown.size, 2, lam.size), dtype=complex)
    coefficients[np.arange(shown.size), :, conjugate_pairs(lam)[shown]] = (1, -1j)  # re - i im
    coefficients[np.arange(shown.size), :, shown] = (1, 1j)  # last: unpaired is its own partner
    model = DecompositionResult(
        eigenvalues=lam,
        basis=np.ascontiguousarray(modes).view(np.float64),
        coefficients=coefficients.reshape(-1, lam.size),
        amplitudes=eig["amp_re"] + 1j * eig["amp_im"],
        method=_summary_field(artifacts, summary, "method"),
        original_indices=eig["index"].astype(int),
    )
    return model, summary


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.horizon is None and not args.at:
        raise UsageError("nothing to do: need --at indices or --horizon >= 1")
    defaults = vars(_add_load_args(argparse.ArgumentParser()).parse_args([]))
    given = ["--" + k.replace("_", "-") for k, v in defaults.items() if getattr(args, k) != v]
    if given and args.input is None:
        raise UsageError(f"{', '.join(given)} without --input: load flags lay out only --input")
    _check_out(args)
    art = Path(args.artifacts)
    for needed in ("summary.json", "eigenvalues.csv", "modes_matrix.npy"):
        if not (art / needed).exists():
            raise FileNotFoundError(f"missing artifact {art / needed}")
    model, summary = _load_model(art)
    n_train = int(_summary_field(art, summary, "data_shape")[1]) - 1
    p = model.basis.shape[0]
    # the model fits anomalies: add means back
    subtracted = _summary_field(art, summary, "config", "subtract_mean")
    mean = np.loadtxt(art / "mean.csv", ndmin=1) if subtracted else np.zeros(p)
    if mean.shape != (p,):
        raise ValueError(f"mean.csv holds {mean.size} values, the model has p={p}")
    for name, values in (("modes_matrix.npy", model.basis), ("mean.csv", mean)):
        if not np.isfinite(values).all():
            raise ValueError(f"{art / name} holds a non-finite value")
    reference = None
    if args.input is not None:
        reference, _ = _load_input(args)
        if reference.p != p:
            raise ValueError(f"input has p={reference.p}, model expects {p}")
    report: dict = {"indices": args.at, "horizon": args.horizon,
                    "relative_errors": {}, "imag_residuals": {}}
    with _staged_output(args.out) as stage:
        for k in args.at:
            snapshot, resid = reconstruct(model, k, 1)
            vec = snapshot[:, 0] + mean
            _float_csv(stage / f"recon_{k}.csv", vec[:, None])
            report["imag_residuals"][str(k)] = float(resid[0])
            if reference is not None:  # null past the input's last column
                err = None
                if k < reference.n_steps:
                    col = reference.data[:, k]
                    denom = max(float(np.linalg.norm(col)), np.finfo(float).tiny)
                    err = float(np.linalg.norm(vec - col) / denom)
                report["relative_errors"][str(k)] = err
        if args.horizon is not None:
            _float_csv(stage / "forecast.csv",
                       reconstruct(model, n_train, args.horizon)[0] + mean[:, None])
        (stage / "recon_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def read_grid_csv(path: str | Path) -> np.ndarray:
    """Rectangular numeric grid, NaN sentinel allowed; ragged rows are an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "input contained no data"
        try:
            grid = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"ragged rows or non-numeric cells in grid file {path}: "
                             f"{exc}") from None
    if grid.size == 0:
        raise ValueError(f"empty grid file {path}")
    return grid


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
    _check_out(args)
    grid = read_grid_csv(args.grid)
    data = render_heatmap(grid)
    with _published(Path(args.out)) as stage:
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
    print(json.dumps(info, indent=2, sort_keys=True))
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
    sub.add_argument("--format", choices=("csv", "raw-float64"), default="csv")
    sub.add_argument("--header", action="store_true", help="skip one CSV header line (csv only)")
    sub.add_argument("--transpose", action="store_true",
                     help="input is time x space instead of space x time")
    sub.add_argument("--grid-shape", nargs=2, type=int, metavar=("NLAT", "NLON"))
    sub.add_argument("--mask", help="0/1 CSV mask over the full grid")
    sub.add_argument("--cycles", type=_bounded(int, 1), default=1,
                     help="stack this many consecutive snapshots per column")
    return sub


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="snapshot matrix file")
    _add_load_args(sub)
    sub.add_argument("--subtract-mean", action="store_true")


def _add_dmd_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rank", type=_bounded(int, 1), default=None)
    sub.add_argument("--mode-style", choices=("exact", "projected"), default="exact")
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
    sweep.add_argument("--no-warm-start", action="store_true",
                       help="start each gamma's solve from zero")
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
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
