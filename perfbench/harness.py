"""Paths, thread limits, the timed set-up and the environment record.

This module imports only the standard library, so the set-up time measured
by ``timed_setup`` includes importing numpy, scipy and lagsem.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    The workload is a single caller. A second BLAS thread gains it little
    on a few shared vCPUs, and its pass time would then also depend on how
    busy the host keeps the other vCPU.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Put this checkout's ``src`` and the benchmark directory on ``sys.path``."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_setup(workload: str, seed: int):
    """Import lagsem, make the workload's inputs and make one warm-up call.

    Returns (seconds, workload, inputs). Raises if lagsem cannot be imported
    from this checkout's ``src``.
    """
    start = time.perf_counter()
    use_checkout_source()
    import workloads  # imports numpy, scipy and lagsem

    lagsem_dir = os.path.dirname(os.path.abspath(workloads.lagsem.__file__))
    if os.path.dirname(lagsem_dir) != SRC:
        raise ImportError(f"lagsem was imported from {lagsem_dir}, not from {SRC}")
    wl = workloads.WORKLOADS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = wl.make_inputs(seed, OUT_DIR)
    wl.warm_up(inputs)
    return time.perf_counter() - start, wl, inputs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(seed: int, family: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "input_family": family,
    }
