"""Traced in-process run of one workload, for the per-layer metrics.

Run as a child of run.py:

    python bench/tracing.py --workload NAME --work DIR [--untraced]

It imports koopmode from the environment's PYTHONPATH, runs the workload's
invocations through koopmode.cli.main, and prints one JSON object with the
per-layer metrics. With --untraced it also runs the workload without
tracing, once before and once after the traced run, so that the tracing
overhead can be reported.

Tracing rebinds every public function of the library modules in every
koopmode namespace that holds it (so `koopmode.cli`'s imported names and
intra-module calls go through the wrapper) and restores them afterwards.
Each wrapped call records a span (name, start, end, parent) in memory. Two
exceptions keep the tracer from dominating what it measures:

- soft_threshold is not wrapped: it runs once per ADMM iteration (about
  10^5 times per monthly sweep) and is part of one iteration, so its time
  stays in admm_solve;
- format_float (about 3 M calls per CDMD roundtrip) is a leaf whose calls
  are aggregated per parent span into a count and a total, instead of one
  record each.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path
from typing import Callable

import checks
from workloads import OUT, WORKLOADS

LAYERS = ("snapshots", "dmd", "cdmd", "spdmd", "rom")
UNTRACED = {"spdmd.soft_threshold"}
AGGREGATED = {"snapshots.format_float"}

# metric -> traced function whose self time it reports
SELF_METRICS = {
    "snapshots.load_s": "snapshots.load_matrix",
    "snapshots.stack_s": "snapshots.stack_cycles",
    "snapshots.format_float_s": "snapshots.format_float",
    "dmd.svd_s": "dmd.truncated_svd",
    "dmd.exact_dmd_s": "dmd.exact_dmd",
    "dmd.vandermonde_s": "dmd.vandermonde",
    "dmd.amplitudes_s": "dmd.optimal_amplitudes",
    "cdmd.fit_s": "cdmd.fit_companion",
    "cdmd.companion_dmd_s": "cdmd.companion_dmd",
    "spdmd.quadratic_form_s": "spdmd.quadratic_form",
    "spdmd.admm_s": "spdmd.admm_solve",
    "spdmd.polish_s": "spdmd.polish",
    "rom.temporal_dynamics_s": "rom.temporal_dynamics",
    "rom.reconstruct_s": "rom.reconstruct",
    "rom.forecast_s": "rom.forecast",
    "cli.self_s": "cli.main",
}
# metric -> traced function whose calls it counts
CALL_METRICS = {
    "snapshots.format_float_calls": "snapshots.format_float",
    "spdmd.quadratic_form_calls": "spdmd.quadratic_form",
    "spdmd.gamma_solves": "spdmd.solve_at_gamma",
    "spdmd.polish_calls": "spdmd.polish",
    "rom.reconstruct_calls": "rom.reconstruct",
}
COUNTERS = ("snapshots.load_bytes", "dmd.rank", "cdmd.order", "spdmd.admm_iterations",
            "spdmd.admm_converged")

# Every per-layer metric with its unit, in report order. A layer's other_s is
# the self time of its traced functions that no metric above names, so that
# the self times and trace.remainder_s add up to trace.wall_s.
LAYER_METRICS = {
    "snapshots.load_s": "s", "snapshots.load_bytes": "bytes", "snapshots.stack_s": "s",
    "snapshots.format_float_s": "s", "snapshots.format_float_calls": "count",
    "snapshots.other_s": "s",
    "dmd.svd_s": "s", "dmd.exact_dmd_s": "s", "dmd.vandermonde_s": "s",
    "dmd.amplitudes_s": "s", "dmd.rank": "count", "dmd.other_s": "s",
    "cdmd.fit_s": "s", "cdmd.companion_dmd_s": "s", "cdmd.order": "count",
    "cdmd.other_s": "s",
    "spdmd.quadratic_form_s": "s", "spdmd.quadratic_form_calls": "count",
    "spdmd.admm_s": "s", "spdmd.admm_iterations": "count", "spdmd.admm_us_per_iter": "us",
    "spdmd.gamma_solves": "count", "spdmd.converged_ratio": "ratio",
    "spdmd.polish_s": "s", "spdmd.polish_calls": "count", "spdmd.other_s": "s",
    "rom.temporal_dynamics_s": "s", "rom.reconstruct_s": "s", "rom.reconstruct_calls": "count",
    "rom.forecast_s": "s", "rom.other_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "cli.files_written": "count",
    "cli.warnings": "count",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.remainder_s": "s", "trace.spans": "count",
}


class Tracer:
    """Spans of one traced run, kept in memory until the run ends.

    spans holds [name, start, end, parent index or -1]; aggregated maps
    (name, parent index) to [calls, total seconds] for AGGREGATED leaves.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.aggregated: dict[tuple[str, int], list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             observe: Callable[["Tracer", tuple, dict, object], None] | None = None) -> Callable:
        clock, spans, open_ = self.clock, self.spans, self._open
        if name in AGGREGATED:
            aggregated = self.aggregated

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (name, open_[-1] if open_ else -1)
                    entry = aggregated.setdefault(key, [0, 0.0])
                    entry[0] += 1
                    entry[1] += clock() - start
            return leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                record[2] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        for (_, parent), (_, total) in self.aggregated.items():
            if parent >= 0:
                out[parent] -= total
        return out

    def by_function(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per traced function."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        for (name, _), (n, total) in self.aggregated.items():
            self_s[name] = self_s.get(name, 0.0) + total
            calls[name] = calls.get(name, 0) + n
        return self_s, calls


def _observe_load(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counters["snapshots.load_bytes"] += os.path.getsize(path)


def _observe_admm(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counters["spdmd.admm_iterations"] += result.iterations
    tracer.counters["spdmd.admm_converged"] += int(result.converged)


def _observe_rank(counter: str):
    def observe(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
        tracer.counters[counter] = result.rank
    return observe


OBSERVERS = {
    "snapshots.load_matrix": _observe_load,
    "spdmd.admm_solve": _observe_admm,
    "dmd.exact_dmd": _observe_rank("dmd.rank"),
    "cdmd.companion_dmd": _observe_rank("cdmd.order"),
}


def traced_functions() -> dict[Callable, str]:
    """Public functions defined by the library modules -> traced name."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"koopmode.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                found[value] = name
    return found


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Rebind every traced function wherever a koopmode module holds it;
    returns the function that restores the originals."""
    wrappers = {fn: tracer.wrap(name, fn, OBSERVERS.get(name))
                for fn, name in traced_functions().items()}
    rebound = []
    for modname, module in list(sys.modules.items()):
        if modname != "koopmode" and not modname.startswith("koopmode."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                rebound.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in rebound:
            setattr(module, attr, value)
    return restore


def run_in_process(workload, main: Callable[[list[str]], int]) -> tuple[float, int, int, int]:
    """Clear the outputs, then run the invocations in the current directory.
    Returns (wall seconds, attempted, failed, warnings raised)."""
    shutil.rmtree(OUT, ignore_errors=True)
    attempted = failed = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for argv in workload.invocations:
            attempted += 1
            if main(argv) != 0:
                failed += 1
                break
        wall = time.perf_counter() - start
    return wall, attempted, failed, len(caught)


def layer_metrics(tracer: Tracer, wall: float, warnings_raised: int,
                  out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of a traced run; the untraced wall and the overhead
    are left at 0 for the caller to fill in."""
    self_s, calls = tracer.by_function()
    metrics = {m: self_s.get(fn, 0.0) for m, fn in SELF_METRICS.items()}
    metrics.update({m: calls.get(fn, 0) for m, fn in CALL_METRICS.items()})
    named = set(SELF_METRICS.values())
    for layer in LAYERS:
        metrics[f"{layer}.other_s"] = sum(
            t for fn, t in self_s.items() if fn.startswith(layer + ".") and fn not in named)
    counters = tracer.counters
    metrics.update({k: counters[k] for k in COUNTERS if k in LAYER_METRICS})
    iterations, solves = counters["spdmd.admm_iterations"], calls.get("spdmd.admm_solve", 0)
    metrics["spdmd.admm_us_per_iter"] = 1e6 * metrics["spdmd.admm_s"] / iterations if iterations else 0.0
    metrics["spdmd.converged_ratio"] = counters["spdmd.admm_converged"] / solves if solves else 0.0
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    metrics["cli.files_written"] = len(files)
    metrics["cli.warnings"] = warnings_raised
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = metrics["trace.overhead_s"] = 0.0
    metrics["trace.remainder_s"] = wall - sum(self_s.values())
    metrics["trace.spans"] = len(tracer.spans) + sum(n for n, _ in tracer.aggregated.values())
    return {m: metrics[m] for m in LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--untraced", action="store_true",
                        help="also run untraced, to measure the tracing overhead")
    args = parser.parse_args(argv)
    from koopmode import cli

    workload = WORKLOADS[args.workload]
    os.chdir(args.work)
    attempted = failed = 0
    untraced_walls = []
    if args.untraced:
        wall, attempted, failed, _ = run_in_process(workload, cli.main)
        untraced_walls.append(wall)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        wall, n, bad, warned = run_in_process(workload, tracer.wrap("cli.main", cli.main))
    finally:
        restore()
    attempted, failed = attempted + n, failed + bad
    facts: dict = {}
    if not bad:
        try:
            facts = workload.check(Path.cwd())
        except checks.FAILURES as exc:
            facts = {"error": str(exc)}
            failed += n
    metrics = layer_metrics(tracer, wall, warned, Path(OUT))
    if args.untraced:
        # untraced runs before and after the traced one, so drift and
        # first-run effects fall on both sides
        untraced, n, bad, _ = run_in_process(workload, cli.main)
        attempted, failed = attempted + n, failed + bad
        untraced_walls.append(untraced)
        metrics["trace.untraced_wall_s"] = statistics.mean(untraced_walls)
        metrics["trace.overhead_s"] = wall - metrics["trace.untraced_wall_s"]
    print(json.dumps({"attempted": attempted, "failed": failed, "check": facts,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
