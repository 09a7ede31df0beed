"""Machine-speed calibration for the benchmark's timings.

The shared machines this benchmark runs on switch between speed states
that differ by up to 1.6x and last from seconds to minutes, and CPU time
slows down with wall time, so neither clock alone gives repeatable
figures. A fixed pure-Python kernel of big-integer and Fraction
arithmetic (the kind of work exactvc does, without calling it) is timed
right before and after each fit (and each import of the set-up
measurement); that time is then rescaled to what it would have taken at
the speed where the kernel takes REFERENCE_S:

    normalized = measured * REFERENCE_S / kernel_time

The kernel never touches exactvc, so a change to the program cannot move
it. The garbage collector is paused while it runs, so objects a program
leaves behind do not slow it either.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# Kernel time that defines a "reference second" (about the kernel's time
# on a 2-vCPU x86-64 virtual machine in its slower speed state).
REFERENCE_S = 0.020
REPEATS = 3

_rng = random.Random(20111111)
_POLY = [_rng.getrandbits(200) - (1 << 199) for _ in range(31)]
_POINTS = [Fraction(_rng.getrandbits(40), _rng.getrandbits(40) | 1)
           for _ in range(40)]


def _kernel() -> Fraction:
    acc = Fraction(0)
    for x in _POINTS:
        v = 0
        for c in reversed(_POLY):
            v = v * x + c
        acc += v / (1 + x * x)
    return acc


def kernel_seconds(repeats: int = REPEATS) -> float:
    """Median time of repeated runs of the kernel, collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def normalize(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
