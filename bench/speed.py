"""The CPU speed a process sees, sampled while it runs.

On the shared VM the benchmark was built on, each vCPU switches between a
fast and a slow speed, about 1.5x apart, every few seconds, and the share of
slow time drifts over hours: a workload's wall time moved by 1.6x between
two sets of runs of the same code.  A calibration loop run just before and
just after a repetition does not follow these switches.  So the child
samples the speed during its own work instead: a ``SIGALRM`` every
``INTERVAL_S`` of wall time runs a fixed pure-Python kernel (integer
arithmetic and ``Fraction`` sums, the operations humbert spends its time on)
and records how long it took.

The mean of the sampled speeds is the mean speed over the interval, so
``work / mean speed`` is the time the same work takes at a fixed speed:

    reference seconds = (elapsed - kernel time) * mean(REFERENCE_S / sample)

``REFERENCE_S`` is the kernel's time on a fast vCPU of that VM (Intel Xeon,
Python 3.11), so reference seconds are close to the wall time of a fast
phase there.  The kernel depends on nothing in humbert, so a change to the
program moves reference seconds as much as it moves its wall time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.005
REFERENCE_S = 150e-6

_FRACTIONS = tuple(Fraction(i % 97 + 1, i) for i in range(1, 40))


def _kernel() -> None:
    total = 0
    for i in range(1000):
        total += i * i % 7
    acc = Fraction(0)
    for f in _FRACTIONS:
        acc += f


class SpeedProbe:
    """Samples the kernel's time on a wall-clock timer between ``start`` and
    ``stop``.  Samples are (time taken, perf_counter at their end)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append((end - start, end))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, elapsed: float, begin: float, end: float) -> tuple[float, float] | None:
        """``elapsed`` seconds spent between the perf_counter readings
        ``begin`` and ``end``, as (wall seconds without the kernel's time,
        reference seconds), or None without a sample in that interval."""
        inside = [taken for taken, at in self.samples if begin < at <= end]
        if not inside:
            return None
        own = elapsed - sum(inside)
        return own, own * sum(REFERENCE_S / taken for taken in inside) / len(inside)
