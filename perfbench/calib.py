"""Host-speed calibration.

The host switches between fast and slow phases that last tens of seconds,
and CPU time moves with wall time, so raw seconds are not comparable from
run to run.  The runner times this kernel between operations.  It uses only
the standard library (Fraction multiply-add and dict updates, the same kind
of work as wres's exact arithmetic) and shares no code with wres.  Every
reported time is scaled by ``CAL_REF_S / local kernel time``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on the reference host (2 cores, CPython 3.11.7).  It only
# sets the scale of the calibrated seconds; changing it rescales every time.
CAL_REF_S = 0.0065

SAMPLES_PER_POINT = 3

# An operation is scaled by the kernel times of this many calibration points
# on each side of it.  The kernel time flips between host states within
# seconds, so one point is a noisy estimate of the speed an operation saw.
WINDOW = 3


def kernel(rounds: int = 400) -> int:
    table: dict[int, Fraction] = {}
    acc = Fraction(0)
    for i in range(rounds):
        x = Fraction(i % 97 + 1, i % 89 + 2)
        acc = acc * Fraction(3, 7) + x * x
        if i % 16 == 15:
            acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
        key = i % 61
        table[key] = table.get(key, Fraction(0)) + acc
    return len(table)


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def point() -> list[float]:
    """One calibration point: a few kernel timings."""
    return [sample() for _ in range(SAMPLES_PER_POINT)]


def scale(points: list[list[float]], k: int) -> float:
    """Factor from raw to calibrated seconds for an operation that ran
    between points k-1 and k."""
    window = [x for p in points[max(0, k - WINDOW):k + WINDOW] for x in p]
    return CAL_REF_S / statistics.median(window)
