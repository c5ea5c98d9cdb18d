"""The koopmode benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; it uses the checkout's src/ and
writes only under .bench_work/ at the checkout root. It generates the seeded
input (untimed), then:

--trace 0  repeats the workload, each koopmode invocation a fresh child
           process, until S seconds have passed, and reports the
           end-to-end metrics;
--trace 1  runs the workload in-process under tracing (tracing.py), once
           with the default BLAS threads and once with one thread, and
           reports the per-layer metrics.

Before the last line it prints one JSON record with the environment, every
sample and the output checks' facts. The last line is the result:
{"correct", "attempted", "failed", "metrics"}.

The load is a closed loop with one client: one harness process runs the
invocations one after another. Children inherit the environment minus the
BLAS thread variables, so the program's own default thread count applies.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import gen
from tracing import LAYER_METRICS
from workloads import OUT, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s samples taken before the first repeat; one more follows each
# repeat, so that the median spans the whole run
SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "success_ratio": "ratio"}
# Single-thread traced run: its time metrics only, under a t1. prefix.
SINGLE_THREAD = [m for m in LAYER_METRICS
                 if m.endswith("_s") and m not in ("trace.untraced_wall_s", "trace.overhead_s")]
SINGLE_THREAD.append("spdmd.admm_us_per_iter")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(threads: int | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    return env


@dataclass
class Usage:
    status: int
    wall: float
    cpu: float
    maxrss_mb: float


def spawn(args: list[str], cwd: Path, env: dict[str, str], log) -> Usage:
    """Run `python -m koopmode ARGS` to completion and read its rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "koopmode", *args], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)


def measure_setup(env: dict[str, str], work: Path, samples: int) -> list[float]:
    """Walls of fresh `python -m koopmode --version` processes."""
    walls = []
    for _ in range(samples):
        with open(work / "setup.log", "w") as log:
            usage = spawn(["--version"], work, env, log)
        if usage.status != 0:
            raise BenchError(f"koopmode --version exited {usage.status}: "
                             + (work / "setup.log").read_text()[-500:])
        walls.append(usage.wall)
    return walls


@dataclass
class Repeat:
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    facts: dict = field(default_factory=dict)


def run_repeat(workload, work: Path, env: dict[str, str], first_digest: str | None) -> tuple[Repeat, str | None]:
    """One timed run of the workload's invocations, then its output checks."""
    shutil.rmtree(work / OUT, ignore_errors=True)
    rep = Repeat()
    with open(work / "run.log", "w") as log:
        start = time.perf_counter()
        for args in workload.invocations:
            usage = spawn(args, work, env, log)
            rep.attempted += 1
            rep.cpu += usage.cpu
            rep.maxrss_mb = max(rep.maxrss_mb, usage.maxrss_mb)
            if usage.status != 0:
                rep.failed = 1
                rep.facts = {"error": f"{args[0]} exited {usage.status}",
                             "log": (work / "run.log").read_text()[-500:]}
                break
        rep.wall = time.perf_counter() - start
    if rep.failed:
        return rep, first_digest
    digest = checks.tree_digest(work / OUT)
    try:
        rep.facts = workload.check(work)
        if first_digest is not None and digest != first_digest:
            raise checks.CheckError("artifacts differ from the first repeat's bytes")
    except checks.FAILURES as exc:
        rep.facts = {"error": str(exc)}
        rep.failed = rep.attempted
    rep.facts["digest"] = digest[:16]
    return rep, first_digest or digest


def end_to_end(workload, work: Path, seconds: float) -> tuple[dict, dict, int, int]:
    env = child_env()
    setup = measure_setup(env, work, SETUP_SAMPLES)
    reps: list[Repeat] = []
    digest = None
    start = time.perf_counter()
    while True:
        rep, digest = run_repeat(workload, work, env, digest)
        reps.append(rep)
        setup += measure_setup(env, work, 1)
        if time.perf_counter() - start >= seconds:
            break
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    walls = [r.wall for r in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r.cpu for r in reps),
        "peak_rss_mb": max(r.maxrss_mb for r in reps),
        "setup_s": statistics.median(setup),
        "success_ratio": (attempted - failed) / attempted,
    }
    record = {
        "wall_s_samples": walls,
        # highest percentile with at least ten samples beyond it
        "wall_s_tail_percentile": 100 * (len(walls) - 10) / len(walls) if len(walls) > 10 else None,
        "cpu_s_samples": [r.cpu for r in reps],
        "peak_rss_mb_samples": [r.maxrss_mb for r in reps],
        "setup_s_samples": setup,
        "checks": [r.facts for r in reps],
    }
    return metrics, record, attempted, failed


def traced(workload, work: Path) -> tuple[dict, dict, int, int]:
    metrics: dict[str, float] = {}
    record: dict = {}
    attempted = failed = 0
    # the default-thread child runs the workload three times, the t1 child
    # once; both fit the 180 s a run may take
    for prefix, threads, timeout in (("", None, 110), ("t1.", 1, 55)):
        cmd = [sys.executable, str(BENCH / "tracing.py"), "--workload", workload.name,
               "--work", str(work)] + (["--untraced"] if threads is None else [])
        proc = subprocess.run(cmd, env=child_env(threads), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"traced run exited {proc.returncode}: {proc.stderr[-1000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += child["attempted"]
        failed += child["failed"]
        record[prefix + "checks"] = child["check"]
        names = LAYER_METRICS if threads is None else SINGLE_THREAD
        metrics.update({prefix + m: child["metrics"][m] for m in names})
    return metrics, record, attempted, failed


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_loc": loc,
    }


def unit(name: str) -> str:
    return END_TO_END.get(name) or LAYER_METRICS[name.removeprefix("t1.")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="koopmode benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "koopmode" / "__init__.py").is_file():
            raise BenchError(f"no koopmode sources under {SRC}")
        workload = WORKLOADS[args.workload]
        work = WORK / workload.name
        shutil.rmtree(work, ignore_errors=True)
        gen.write_inputs(args.seed, work / "in")
        if args.trace:
            metrics, record, attempted, failed = traced(workload, work)
        else:
            metrics, record, attempted, failed = end_to_end(workload, work, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment())
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
