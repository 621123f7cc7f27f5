"""Machine speed during a run, from a fixed kernel that never touches heightforge.

On a shared machine the same ops can take a fifth more or less time from one
minute to the next: ten runs of the identical `scan` round read 110 to 165
ops/s.  The benchmark therefore runs this kernel every few tens of
milliseconds of op time and scales every reported time by REF_S / (the
kernel's mean time in that run), i.e. it reports times at the speed at
which the kernel takes REF_S.  Five calibrated runs of the same round read
146 to 148 ops/s.  The kernel runs outside the timed ops, and the collector
is off while the kernel runs, so the size of the program's heap cannot slow it.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The kernel's typical time on the reference machine (2 cores, Python 3.11.7).
REF_S = 0.0005


def _kernel():
    # exact rational orbit plus small-integer and dict work, the mix
    # heightforge's own Python code spends its time on
    w, c = Fraction(3, 7), Fraction(-5, 11)
    for _ in range(7):
        w = w * w + c
    acc, table = 0, {}
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return w, acc


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Kernel samples taken every EVERY_S seconds of op time."""

    EVERY_S = 0.02

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0

    def tick(self, op_seconds: float) -> None:
        self._since += op_seconds
        if self._since >= self.EVERY_S or not self.samples:
            self.samples.append(time_kernel())
            self._since = 0.0

    def sample(self, n: int) -> None:
        time_kernel()  # first call pays for cold caches
        self.samples.extend(time_kernel() for _ in range(n))

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REF_S / statistics.fmean(self.samples)
