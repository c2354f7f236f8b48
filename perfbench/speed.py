"""Machine speed, measured by a fixed reference kernel, for scaling timings.

The benchmark runs on small shared machines whose CPU speed changes by up
to a half from one second to the next, and whose average speed drifts by
up to 40% over minutes.  No run of half a minute averages that out, so two
runs of the same code minutes apart disagree by more than the regressions
the benchmark must catch.  Every worker therefore also times `reference()`:
a fixed piece of stdlib-only work (Pascal rows and a big-integer product,
the same kind of arithmetic exactcomb does) that never changes between
commits.  It times a burst of a few tries between operations, and the
median try of the bursts around an operation gives the machine's speed at
that moment.  run.py scales each timing by REFERENCE_S / that time, so
end-to-end times read as if the reference had taken exactly REFERENCE_S:
a change in machine speed cancels, while a change in exactcomb's own cost
passes through in full.  The unscaled figures are printed beside them.
"""

from __future__ import annotations

import os
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference kernel's time on the 2-vCPU machine the benchmark was
# written on (CPython 3.11), when nothing else slowed it.  Any fixed value
# would do; this one keeps scaled times close to what that machine measures
# when it is quiet.
REFERENCE_S = 0.0004
# while operations run, a burst of BURST tries once EVERY_S seconds have
# passed since the last one; an operation is scaled by the bursts that
# end within WINDOW_S seconds of it
EVERY_S = 0.025
BURST = 3
WINDOW_S = 0.25


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, so the
    reference kernel runs on the CPU that the timed code runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference() -> int:
    row = [1]
    for _ in range(90):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    acc = 1
    for k in range(1, 300):
        acc = acc * k // (k % 7 + 1) + k
    return row[45] ^ acc


def tries(n: int) -> list[float]:
    """Seconds taken by n back-to-back runs of the reference kernel."""
    out = []
    for _ in range(n):
        t0 = perf_counter()
        reference()
        out.append(perf_counter() - t0)
    return out


class Bursts:
    """Reference bursts taken between operations: end times and tries."""

    def __init__(self):
        self.ends: list[float] = []
        self.tries: list[list[float]] = []

    def take(self, n: int = BURST) -> list[float]:
        got = tries(n)
        self.ends.append(perf_counter())
        self.tries.append(got)
        return got

    def around(self, start: float, end: float) -> float:
        """Median try of the bursts that end within WINDOW_S of the span
        start..end; of the nearest burst if none does."""
        lo = bisect_left(self.ends, start - WINDOW_S)
        hi = bisect_right(self.ends, end + WINDOW_S)
        if lo >= hi:
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        return statistics.median(t for burst in self.tries[lo:hi] for t in burst)
