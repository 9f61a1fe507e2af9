"""Host-speed reference: makes latencies comparable on a shared machine.

On a shared virtual machine the same op can take 1.5x longer for tens of
seconds at a time, and every other CPU-bound Python code slows with it.
So next to the ops the worker times a fixed piece of reference work:
exact Gaussian elimination on a 12 x 12 matrix of Fractions with 15-digit
entries.  That is the kind of arithmetic purefields spends its time on,
and it slows down with the host about as much as the ops do; a 10 x 10
matrix of small entries slowed down more, and rescaling by it left
multi-second ops as noisy as before.  It is written with the
standard library only, so no change to purefields can alter it.  Each
stretch of an op is then rescaled to a host on which the reference takes
NOMINAL_S:

    wall time * NOMINAL_S / (median reference time around the stretch)

A genuine change in purefields moves the op and not the reference, so it
shows in full.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# the reference time the rescaled figures assume: about its median on the
# 2-core build machine under Python 3.11
NOMINAL_S = 0.006
# take a fresh reference sample whenever this much wall time has passed
SAMPLE_EVERY_S = 0.2
# an op is rescaled by the median of the samples within this much wall
# time of it, and always by the two that bracket it
WINDOW_S = 0.5


def reference_work() -> None:
    n = 12
    rows = [
        [
            Fraction((i + 1) * (j + 2) ** 3 - i * j + 10**15 * (i * j % 7), i + j + 1)
            for j in range(n)
        ]
        for i in range(n)
    ]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]


class HostClock:
    """Reference samples taken between ops, and the rescaling they give."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(3):
            start = perf_counter()
            reference_work()
            runs.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.refs.append(statistics.median(runs))

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def median_ref(self) -> float:
        return statistics.median(self.refs)

    def rescale(self, start: float, end: float) -> float:
        """end - start, rescaled by the samples taken around it."""
        first = min(
            bisect.bisect_left(self.times, start - WINDOW_S),
            bisect.bisect_right(self.times, start) - 1,
        )
        last = max(
            bisect.bisect_right(self.times, end + WINDOW_S),
            bisect.bisect_left(self.times, end) + 1,
        )
        local = statistics.median(self.refs[max(first, 0) : last])
        return (end - start) * NOMINAL_S / local
