"""Checkout paths, BLAS thread pinning and the machine record.

Only the standard library is imported here, so ``pin_blas_threads`` can run
before numpy is loaded: OpenBLAS reads its thread count once, at import.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Pin every BLAS pool to one thread, the same value on every commit.

    One client runs one operation at a time on matrices of at most a few
    thousand rows; a second OpenBLAS thread mostly spins between calls, which
    doubles the benchmark's CPU use and its exposure to other load on a
    shared machine without making these sizes faster.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def use_checkout_program() -> None:
    """Put the checkout's ``src`` first on the import path, or stop.

    The benchmark measures the sources it ships with, never an installed
    copy elsewhere, so a checkout without ``src/sgwalk`` is an error.
    """
    if not (SRC / "sgwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no sgwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sgwalk

    if Path(sgwalk.__file__).resolve().parent != SRC / "sgwalk":
        raise SystemExit(f"error: imported sgwalk from {sgwalk.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the measured sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgwalk").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(threads: int) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
        "blas_threads": threads,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }
