"""Facts about the machine and its load, recorded with every result.

Load average and CPU steal are read from /proc (read only) at the start and
end of a run, so a noisy set of runs can be told apart from a regression.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy
import scipy

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor()


def _blas_threads() -> int | None:
    """Thread count of the BLAS library loaded into this process, if known."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "blas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def facts(mc_jobs: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "mc_jobs": mc_jobs,
    }


def _cpu_times() -> list[int]:
    lines = _read("/proc/stat").splitlines()
    return [int(v) for v in lines[0].split()[1:]] if lines else []


class Load:
    """Load average and the CPU steal share between construction and `finish`."""

    def __init__(self):
        self.loadavg_start = _read("/proc/loadavg").split()[:3]
        self.cpu_start = _cpu_times()

    def finish(self) -> dict:
        cpu_end = _cpu_times()
        delta = [b - a for a, b in zip(self.cpu_start, cpu_end)]
        total = sum(delta[:8]) or 1  # user..steal; guest time is inside user
        known = len(delta) >= 8
        return {
            "loadavg_start": [float(v) for v in self.loadavg_start],
            "loadavg_end": [float(v) for v in _read("/proc/loadavg").split()[:3]],
            "steal_share": delta[7] / total if known else None,
            "idle_share": (delta[3] + delta[4]) / total if known else None,
        }
