"""Machine-speed calibration: a fixed kernel timed while operations run.

A shared machine can run the same code up to twice as slowly for a while
(measured on a 2-vCPU x86-64 virtual machine: the slow phases come and go
within a second, with other tenants' load, not with this process).  Raw
latencies then spread far more between runs than any bound a regression
test could use.  So the benchmark samples the machine's speed with a small
kernel of its own: before every operation, and during operations from a
SIGPROF timer every ``EVERY_S`` of CPU time.  An operation's latency is its
wall time minus the samples taken inside it, scaled by ``NOMINAL_S / mean
kernel time`` over those samples (or over the samples on either side of it,
when it was too short to be sampled).  The figures then read as latencies
on a machine in its nominal phase.

The kernel imports nothing from the program, so a change to the program
moves the scaled figures as it moves the raw ones.  Its mix follows the
program's: interpreter-bound scalar arithmetic with small numpy column
updates (the Jacobi rotations), and dict, tuple and string work (parsing,
state tables and formatting).  A sample taken inside an operation runs with
that operation's data in the caches; on this benchmark's workloads that
moved the kernel's time by less than a tenth.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time

import numpy as np

# Median kernel time on the reference machine (2-vCPU x86-64 virtual
# machine, CPython 3.11, numpy with one BLAS thread) in a fast phase.  Any
# fixed value would do; this one keeps scaled figures close to fast raw ones.
NOMINAL_S = 0.0010

EVERY_S = 0.02

_SYM = (lambda m: m + m.T)(np.random.default_rng(0).standard_normal((8, 8)))


def kernel() -> None:
    a = _SYM.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            a[p, :] = a[:, p]
            a[q, :] = a[:, q]
    table: dict = {}
    for i in range(600):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    text = "\n".join(f"{u} {v} {w}" for (u, v), w in sorted(table.items()))
    sum(len(line.split()) for line in text.splitlines())


def timed_kernel() -> float:
    """Seconds of one kernel call, with the collector off so that the
    program's heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Kernel samples (start time, seconds) taken by ``take`` and, inside
    ``with sampler:``, by a SIGPROF timer in the main thread."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0   # seconds spent in take(), all included
        self._busy = False
        self._previous = None

    def take(self) -> None:
        if self._busy:  # a timer sample arrived during a sample
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append((start, timed_kernel()))
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def program_clock(self) -> float:
        """``perf_counter`` with the time spent sampling left out, for spans
        that a sample may land in."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self, start: float, end: float):
        """(latency without the samples inside, that latency at nominal
        speed) for an operation that ran from ``start`` to ``end``.  Needs
        a sample on either side of the operation."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        inside = [cost for _, cost in self.samples[lo:hi]]
        latency = end - start - sum(inside)
        if inside:
            speed = sum(inside) / len(inside)
        else:
            speed = math.sqrt(self.samples[lo - 1][1] * self.samples[hi][1])
        return latency, latency * NOMINAL_S / speed
