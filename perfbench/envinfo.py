"""The environment a result was measured in, plus two hardware ceilings.

``dgemm_gflops`` is the float64 matrix-multiply rate numpy reaches in this
process; it bounds the ``tensor.*.gflops`` per-layer figures. ``copy_gbps``
is a STREAM-style copy rate (bytes read plus bytes written per second) on
arrays at least four times the size of the last-level cache, so it measures
memory and not cache.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DGEMM_N = 1024
REPEATS = 5


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    """Size of the largest cache level of CPU 0, from sysfs."""
    sizes = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return max(sizes) if sizes else None


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def dgemm_gflops() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((DGEMM_N, DGEMM_N))
    b = rng.standard_normal((DGEMM_N, DGEMM_N))
    a @ b
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * DGEMM_N**3 / statistics.median(times) / 1e9


def copy_gbps(array_bytes: int) -> float:
    src = np.ones(array_bytes // 8)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2.0 * src.nbytes / statistics.median(times) / 1e9


def environment() -> dict:
    l3 = _l3_bytes()
    array_bytes = 4 * (l3 or 64 << 20)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": _cpu_model(),
        "l3_bytes": l3,
        "dgemm_gflops": dgemm_gflops(),
        "dgemm_n": DGEMM_N,
        "copy_gbps": copy_gbps(array_bytes),
        "copy_array_bytes": array_bytes,
    }


def render(env: dict) -> str:
    l3 = env["l3_bytes"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    return "\n".join([
        f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}",
        f"env: cpu {env['cpu']}, nproc {env['nproc']}, {threads}",
        f"env: dgemm {env['dgemm_gflops']:.1f} GFLOP/s (n={env['dgemm_n']}, float64); "
        f"copy {env['copy_gbps']:.1f} GB/s read+write on two "
        f"{env['copy_array_bytes'] / 2**20:.0f} MiB arrays "
        f"(L3 {'unknown' if l3 is None else f'{l3 / 2**20:.0f} MiB'})",
    ])
