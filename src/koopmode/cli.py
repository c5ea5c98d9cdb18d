"""Command-line pipelines: ingest-info, decompose, sweep, reconstruct, heatmap.

Artifacts are CSV/JSON with 17-significant-digit floats, except the modes
matrix, a NumPy .npy file; all are byte-stable across runs. Each run publishes
its output directory as a whole: a failed run leaves no partial files, and a
rerun leaves no file of the last.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .cdmd import companion_dmd
from .dmd import DecompositionResult, exact_dmd, mode_stats, optimal_amplitudes, vandermonde
from .rom import forecast, reconstruct, spatial_grids, temporal_dynamics
from .snapshots import (
    SnapshotMatrix,
    apply_mask,
    build_pairs,
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
                  "forecast.csv", "recon_report.json", "modes_matrix.csv")
# AdmmParams fields set by the solver flags; their defaults are AdmmParams'.
ADMM_FLAGS = ("rho", "eps_abs", "eps_rel", "max_iter")


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


@contextmanager
def _staged_output(outdir: str | Path):
    """Write artifacts into a staging directory; on success it replaces the
    output directory as a whole, so no file of an earlier run survives."""
    outdir = Path(outdir).resolve()
    if outdir.exists() and not (outdir.is_dir() and all(
            any(child.match(name) for name in ARTIFACT_NAMES) for child in outdir.iterdir())):
        raise UsageError(f"refusing to replace {outdir}: not a koopmode output directory")
    outdir.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=".stage-", dir=outdir.parent))
    try:
        stage = holder / "new"
        stage.mkdir()
        yield stage
        if outdir.exists():
            os.replace(outdir, holder / "old")
        os.replace(stage, outdir)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def _float_csv(path: Path, rows: np.ndarray, header: str | None = None) -> None:
    rows = np.atleast_2d(rows)
    write_csv(path, rows, ",".join([FLOAT] * rows.shape[1]), header)


def _load_input(args: argparse.Namespace) -> SnapshotMatrix:
    # reconstruct loads its --input without a --dt-label
    X = load_matrix(args.input, format=args.format, grid_shape=args.grid_shape,
                    header=args.header, transpose=args.transpose,
                    **({"dt_label": args.dt_label} if "dt_label" in args else {}))
    if args.mask is not None:
        if args.grid_shape is None:
            raise UsageError("--mask requires --grid-shape")
        X = apply_mask(X, load_mask(args.mask, args.grid_shape))
    if args.cycles > 1:
        X = stack_cycles(X, args.cycles)
    if args.subtract_mean:
        X, _ = subtract_mean(X)
    return X


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
    its amplitude fit against the zero-lag snapshots, in the same column order."""
    if args.method == "cdmd":
        base, Y = companion_dmd(X), X.data[:, :-1]
    else:
        pair = build_pairs(X)
        base, Y = exact_dmd(pair, rank=args.rank, mode_style=args.mode_style), pair.Y
    return base, quadratic_form(Y, base.modes, vandermonde(base.eigenvalues, Y.shape[1]))


def _fit(args: argparse.Namespace,
         X: SnapshotMatrix) -> tuple[DecompositionResult, float, dict | None]:
    """Decompose and fit amplitudes; returns the result sorted by amplitude,
    the loss of the fit as a percentage of the data norm, and for spdmd what
    the splitting did (iterations, convergence, final rho)."""
    base, form = _decompose(args, X)
    if args.method != "spdmd":
        b = optimal_amplitudes(form)
        return base.with_amplitudes(b), performance_loss(form.objective(b), form.s), None
    solution, _ = solve_at_gamma(form, args.gamma, _admm_params(args))
    result = select_modes(base, solution)
    if result.rank == 0:
        if not solution.converged:
            raise ValueError(f"the splitting stopped at --max-iter {args.max_iter} without "
                             f"converging, with no amplitude left at gamma={args.gamma}")
        raise ValueError(f"gamma={args.gamma} zeroed out every amplitude")
    admm = {"iterations": int(solution.iterations), "converged": bool(solution.converged),
            "rho": float(solution.rho)}
    return result, performance_loss(form.objective(solution.b_polished), form.s), admm


def _write_decomposition(stage: Path, args: argparse.Namespace, X: SnapshotMatrix,
                         result: DecompositionResult, full_loss: float,
                         admm: dict | None) -> None:
    write_csv(stage / "eigenvalues.csv",
              ((int(idx), lam.real, lam.imag, *mode_stats(lam, result.dt_label),
                b.real, b.imag, abs(b))
               for idx, lam, b in zip(result.original_indices, result.eigenvalues,
                                      result.amplitudes)),
              "%d" + f",{FLOAT}" * 8,
              "index,re,im,magnitude,e_folding,period,amp_re,amp_im,amp_abs")
    np.save(stage / "modes_matrix.npy", np.ascontiguousarray(result.modes, dtype=complex))

    grid_shape = args.grid_shape if args.grid_shape is not None else (1, X.p // X.cycles)
    n_export = result.rank if args.top_modes is None else min(args.top_modes, result.rank)
    modes_dir = stage / "modes"
    modes_dir.mkdir()
    for j in range(n_export):
        idx = int(result.original_indices[j])
        col = result.modes[:, j]
        for tag, values in (("real", col.real), ("imag", col.imag), ("abs", np.abs(col))):
            grids = spatial_grids(values, grid_shape, X.mask, X.cycles)
            _float_csv(modes_dir / f"{idx}_{tag}.csv", grids.mean(axis=0))

    ts = np.arange(X.n_steps - 1)
    dyn = temporal_dynamics(result, ts, collapse_pairs=args.pair_collapse)
    _float_csv(stage / "temporal.csv", np.column_stack([ts, dyn.T]),
               ",".join(["t"] + [f"mode{i}" for i in range(dyn.shape[0])]))

    summary = {
        "toolkit_version": __version__,
        "method": result.method,
        "rank": int(result.rank),
        "data_shape": [int(X.p), int(X.n_steps)],
        "grid_shape": list(grid_shape),
        "cycles": int(args.cycles),
        "dt_label": result.dt_label,
        "full_fit_loss_percent": full_loss,
        "config": {k: v for k, v in vars(args).items() if k not in ("command", "run")},
    }
    if admm is not None:
        summary["admm"] = admm
    (stage / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def cmd_decompose(args: argparse.Namespace) -> int:
    _reject_ignored_flags(args)
    X = _load_input(args)
    result, full_loss, admm = _fit(args, X)
    with _staged_output(args.out) as stage:
        _write_decomposition(stage, args, X, result, full_loss, admm)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.gamma_count > 1 and args.gamma_min <= 0:
        raise UsageError("gamma-min must be positive for a log-spaced grid")
    if args.gamma_min > args.gamma_max:
        raise UsageError("gamma-min must not exceed gamma-max")
    if args.gamma_count == 1 and args.gamma_min != args.gamma_max:
        raise UsageError("--gamma-count 1 needs --gamma-min equal to --gamma-max")
    _, form = _decompose(args, _load_input(args))
    gammas = log_gamma_grid(args.gamma_min, args.gamma_max, args.gamma_count)
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
                      ((s.gamma, s.cardinality, s.cost, s.loss_percent, s.iterations,
                        "true" if s.converged else "false", s.rho) for s in chosen),
                      f"{FLOAT},%d,{FLOAT},{FLOAT},%d,%s,{FLOAT}",
                      "gamma,cardinality,cost,loss_percent,iterations,converged,rho")
    return EXIT_OK


def _load_model(artifacts: Path) -> tuple[DecompositionResult, dict]:
    summary = json.loads((artifacts / "summary.json").read_text())
    eig = np.loadtxt(artifacts / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
    modes = np.load(artifacts / "modes_matrix.npy", allow_pickle=False)
    if modes.dtype != np.complex128 or modes.ndim != 2 or modes.shape[1] != eig.shape[0]:
        raise ValueError(f"modes_matrix.npy holds {modes.dtype} {modes.shape}, expected a "
                         f"complex128 matrix with {eig.shape[0]} columns, one per eigenvalue")
    model = DecompositionResult(
        eigenvalues=eig[:, 1] + 1j * eig[:, 2],
        modes=modes,
        amplitudes=eig[:, 6] + 1j * eig[:, 7],
        rank=eig.shape[0],
        method=summary["method"],
        dt_label=summary["dt_label"],
        original_indices=eig[:, 0].astype(int),
    )
    return model, summary


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.horizon is None and not args.at:
        raise UsageError("nothing to do: need --at indices or --horizon >= 1")
    art = Path(args.artifacts)
    if Path(args.out).resolve() == art.resolve():
        raise UsageError("--out must differ from --artifacts, which it would replace")
    for needed in ("summary.json", "eigenvalues.csv", "modes_matrix.npy"):
        if not (art / needed).exists():
            raise FileNotFoundError(f"missing artifact {art / needed}")
    model, summary = _load_model(art)
    n_train = int(summary["data_shape"][1]) - 1
    reference = None
    if args.input is not None:
        reference = _load_input(args)
        if reference.p != model.modes.shape[0]:
            raise ValueError(
                f"input has p={reference.p}, model expects {model.modes.shape[0]}"
            )
    report: dict = {"indices": args.at, "horizon": args.horizon,
                    "relative_errors": {}, "imag_residuals": {}}
    with _staged_output(args.out) as stage:
        for k in args.at:
            vec, resid = reconstruct(model, k, return_residual=True)
            _float_csv(stage / f"recon_{k}.csv", vec[:, None])
            report["imag_residuals"][str(k)] = resid
            if reference is not None and k < reference.n_steps:
                col = reference.data[:, k]
                denom = max(float(np.linalg.norm(col)), np.finfo(float).tiny)
                report["relative_errors"][str(k)] = float(
                    np.linalg.norm(vec - col) / denom
                )
        if args.horizon is not None:
            fc = forecast(model, args.horizon, n_train)
            _float_csv(stage / "forecast.csv", fc)
        (stage / "recon_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def read_grid_csv(path: str | Path) -> np.ndarray:
    """Rectangular numeric grid, NaN sentinel allowed; ragged rows are an error."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"empty grid file {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in grid file {path}")
    return np.asarray(rows)


def render_heatmap(grid: np.ndarray) -> bytes:
    """Binary PPM: linear grayscale from grid min to max, NaN in a fixed color."""
    h, w = grid.shape
    finite = np.isfinite(grid)
    values = grid[finite]
    lo = float(values.min()) if values.size else 0.0
    hi = float(values.max()) if values.size else 0.0
    span = hi - lo
    pixels = np.empty((h, w, 3), dtype=np.uint8)
    pixels[:] = NAN_COLOR
    # np.round, like round(), takes halves to even
    pixels[finite] = 0 if span == 0 else np.round(255.0 * (values - lo) / span)[:, None]
    return f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes()


def cmd_heatmap(args: argparse.Namespace) -> int:
    grid = read_grid_csv(args.grid)
    data = render_heatmap(grid)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=".stage-", dir=out.parent))
    try:
        (holder / out.name).write_bytes(data)
        os.replace(holder / out.name, out)
    finally:
        shutil.rmtree(holder, ignore_errors=True)
    return EXIT_OK


def cmd_ingest_info(args: argparse.Namespace) -> int:
    X = _load_input(args)
    info = {
        "p": X.p,
        "n_steps": X.n_steps,
        "dt_label": X.dt_label,
        "grid_shape": list(X.grid_shape) if X.grid_shape else None,
        "masked_points": int(X.mask.sum()) if X.mask is not None else None,
        "min": float(X.data.min()),
        "max": float(X.data.max()),
        "mean": float(X.data.mean()),
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def _bounded(cast: type, low: float, strict: bool = False):
    """argparse type: cast(text), rejected below low (and at low if strict)."""
    def parse(text: str):
        value = cast(text)
        if not (value > low if strict else value >= low):  # also rejects nan
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _add_load_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "raw-float64"), default="csv")
    sub.add_argument("--header", action="store_true", help="skip one CSV header line")
    sub.add_argument("--transpose", action="store_true",
                     help="input is time x space instead of space x time")
    sub.add_argument("--grid-shape", nargs=2, type=int, metavar=("NLAT", "NLON"))
    sub.add_argument("--mask", help="0/1 CSV mask over the full grid")
    sub.add_argument("--cycles", type=_bounded(int, 1), default=1,
                     help="stack this many consecutive snapshots per column")
    sub.add_argument("--subtract-mean", action="store_true")


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="snapshot matrix file")
    _add_load_args(sub)
    sub.add_argument("--dt-label", default="step")


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

    p = subs.add_parser("ingest-info", help="load and summarize a snapshot matrix")
    p.set_defaults(run=cmd_ingest_info)
    _add_input_args(p)

    decompose = subs.add_parser("decompose", help="run a decomposition and export artifacts")
    decompose.set_defaults(run=cmd_decompose)
    _add_input_args(decompose)
    decompose.add_argument("--method", choices=("dmd", "cdmd", "spdmd"), default="dmd")
    decompose.add_argument("--gamma", type=_bounded(float, 0), default=0.0,
                           help="sparsity weight (method spdmd only)")
    decompose.add_argument("--pair-collapse", action="store_true",
                           help="emit one temporal row per conjugate pair")
    decompose.add_argument("--top-modes", type=_bounded(int, 0), default=None,
                           help="limit how many mode grids are exported")

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
