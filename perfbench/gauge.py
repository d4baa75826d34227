"""Report times at a fixed reference speed of the machine.

On a shared virtual machine the speed of a core drifts with its neighbours'
load.  On the 2-vCPU machine this benchmark was built on, one fixed loop
took from 0.26 s to 0.44 s within the same minute, so raw wall times of two
runs of the same code differ by far more than a regression worth catching.
``SpeedGauge`` interrupts the timed code every ``INTERVAL`` seconds and times
``reference_kernel`` (a fixed piece of stdlib work in the style lgfrob
spends its time in) to sample the current speed.  A timed call's seconds are
its wall time minus the time spent sampling.  Its reference seconds are
those seconds times the mean of ``REFERENCE_S`` / kernel time over the
samples taken during the call.  The samples are evenly spaced in time, so
this is what the call would take at the speed where the kernel runs in
``REFERENCE_S``.  The kernel does not touch lgfrob, so a change to lgfrob
moves reference seconds as it moves wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05
REFERENCE_S = 0.00055


def reference_kernel() -> Fraction:
    """Fixed work: big-integer arithmetic, dict updates and Fraction sums."""
    row: dict[int, int] = {}
    big = 3**150
    total = Fraction(0)
    for i in range(120):
        row[i % 17] = row.get(i % 17, big) * (i + 1) // 7 + big
        total += Fraction(i, 7 + i % 5)
    return total


class SpeedGauge:
    """Samples the machine's speed from a timer signal inside the block."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in order
        self.spent = 0.0  # seconds spent sampling

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn):
        """(result, seconds, factor) of ``fn()``: seconds exclude sampling,
        and seconds * factor are reference seconds."""
        first, spent = len(self.samples), self.spent
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start - (self.spent - spent)
        if len(self.samples) == first:  # a call shorter than the interval
            self._sample()
        factor = statistics.mean(REFERENCE_S / k for k in self.samples[first:])
        return result, seconds, factor
