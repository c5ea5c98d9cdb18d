"""The koopmode command: `python -m koopmode` and the installed `koopmode` script.

It runs one BLAS thread per process unless the caller set a thread count:
on this pipeline's LAPACK calls and real matrix-vector products a second
thread saves little or no wall time and costs CPU. The library itself never
changes thread settings.
"""
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    # BLAS reads these once, when numpy loads it: set them before importing .cli
    if not any(os.environ.get(name) for name in THREAD_VARS):
        os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    from .cli import main as run
    return run()


if __name__ == "__main__":
    sys.exit(main())
