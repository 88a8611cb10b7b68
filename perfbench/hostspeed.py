"""Host speed, measured by a fixed reference slice of benchmark-owned code.

On shared hosts the CPU's speed changes by up to 2x within seconds while
process CPU time keeps pace with wall time, so the change is in the
processor's throughput, not in scheduling.  Medians over a run do not remove
it, because it persists for longer than an operation.  The benchmark
therefore times a reference slice next to every operation and reports
times at nominal host speed: measured time * REFERENCE_NOMINAL_S / reference
time.  The slice mixes what the library's hot paths do (Python calls,
frozen-dataclass construction, complex math, numpy scalar calls), so it slows
down as they do.  It touches no library code, so a library change cannot
move it.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_ITERATIONS = 40000
# reference slice time at nominal speed, about its time between operations on
# a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4); any fixed value works,
# it only sets the scale of the reported times
REFERENCE_NOMINAL_S = 0.095


@dataclass(frozen=True)
class _Point:
    chart: int
    coord: complex

    def __post_init__(self):
        object.__setattr__(self, "coord", complex(self.coord))


def _reference_slice() -> complex:
    acc = 0j
    for i in range(REFERENCE_ITERATIONS):
        z = complex(i * 1e-4, 0.5)
        p = _Point(0, z)
        acc += cmath.sin(p.coord) * 0.5 + math.log1p(abs(z))
        if i % 4 == 0:
            acc += float(np.abs(np.asarray(z)) ** 2)
    return acc


def reference_s() -> float:
    """Seconds one reference slice takes now."""
    start = time.perf_counter()
    _reference_slice()
    return time.perf_counter() - start


def slowdown(reference: float) -> float:
    """Host slowdown factor for a measured reference time (1.0 = nominal)."""
    return reference / REFERENCE_NOMINAL_S


class Bracket:
    """Reference slices between operations: each operation's slowdown is the
    mean of the slices just before and just after it."""

    def __init__(self):
        self._last = reference_s()

    def after(self, op):
        now = reference_s()
        op.slowdown = slowdown(0.5 * (self._last + now))
        self._last = now
        return op
