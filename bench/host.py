"""The host: its fingerprint and a probe of its current speed.

Numbers from different machines, interpreters or BLAS builds are not
comparable; the fingerprint recorded with every result makes that visible.

The speed of one shared host also drifts: street runs a few minutes apart
took 196 to 316 ms per query, in process CPU time as much as in wall time,
so the CPU itself ran slower. The speed probe measures that drift with
fixed work that does not touch gsfloc or BLAS: numpy exp and sort over one
array and a pure-Python loop, timed in the calling thread's CPU time so
that threads the program starts cannot slow it down.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

import numpy as np
import scipy

# the probe's median on the reference host (2-core Intel Xeon, CPython 3.11,
# numpy 2.4); reported times are scaled to a host where it takes this long
PROBE_REFERENCE_MS = 4.5
_PROBE_INPUT = np.random.default_rng(0).normal(size=50_000)

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Thread count in effect for every OpenBLAS loaded into this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in path.lower() and path.startswith("/"):
                    paths.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def fingerprint() -> dict:
    """Call after the program has been imported, so its BLAS is loaded."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "loadavg_start": list(os.getloadavg()),
    }


def speed_probe() -> float:
    """Thread CPU time of the fixed probe work, in ms."""
    t0 = time.thread_time()
    for _ in range(2):
        np.sort(np.exp(_PROBE_INPUT))
    acc, table = 0, {}
    for i in range(30_000):
        acc += i * i
        table[i & 255] = acc
    return (time.thread_time() - t0) * 1e3
