"""CPU-speed calibration: timings scaled to a reference speed.

The benchmark's bounded timings are scaled by the speed of the CPU at the
moment they were taken, measured with a fixed pure-Python loop that does not
involve the program:

    scaled = measured * REFERENCE_NS / calibration_ns()

so a host that runs everything 1.4x slower for a while leaves the scaled
figures where they were, while a change to the program moves them as much
as it moves the measured ones.  The measured figures are printed beside the
scaled ones.  The measuring process, and every process it starts, is pinned
to one CPU (`worker.main`), so the loop runs on the CPU the measured work
runs on.

On a shared 2-vCPU KVM guest (Xeon, Python 3.11) the loop took 1.2-1.9 ms
from one second to the next, with no steal time, and the rate of grid_corpus
solves in quarter-second windows correlated with it at -0.7 to -0.8.  Over
five seeds the median solve time spread 14% measured and 4% scaled, and at
grid 4096 21% and 3%.  The loop over-corrects numpy-heavy work: between two
sets of five grid_fine runs whose median loop speed differed by 27%, the
measured median solve time moved by 8.5% and the scaled one by 4.5% the
other way.
"""

from __future__ import annotations

import time

REFERENCE_NS = 1_500_000  # loop time at the reference speed (about that guest's median)
LOOP = 20_000
REPEATS = 5  # the fastest repeat counts


def loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


def calibration_ns() -> int:
    """The fastest of REPEATS timings of the loop, in ns (about 8 ms in all)."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        loop()
        ns = time.perf_counter_ns() - start
        best = ns if best is None else min(best, ns)
    return best


def scale(ns: float, before: int, after: int) -> float:
    """A time taken between two calibrations, at the reference speed."""
    return ns * REFERENCE_NS * 2 / (before + after)
