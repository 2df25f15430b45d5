"""Machine-speed sampling for timed calls.

On a small shared VM the machine's speed drifts by 20-30% within seconds
under other tenants' load, and CPU time drifts with wall time, so neither
clock alone separates a slower program from a slower machine. While a call
is timed, a SIGALRM every ``PERIOD_S`` runs a fixed pure-Python reference
kernel and records how long it took. The kernel touches almost no memory,
so the program's cache state does not change its time (0.24 ms in every
workload on a 2-vCPU Xeon), and its mean over the call tracks how fast the
machine ran meanwhile. A call's normalized seconds are its busy seconds
(wall time minus the kernel runs) times (``NOMINAL_S`` over that mean) to
the power ``SENSITIVITY``: the time the call would have taken on a machine
where the kernel takes ``NOMINAL_S``.

``SENSITIVITY`` is how much more the program slows than the kernel when the
machine slows, in log terms. On the 2-vCPU Xeon VM, regressing each lane's
log wall-clock rate on the log of its correction over 44 runs (15 to 19 per
workload) gave 1.23 to 1.59, near 1.5 for 8 of the 9 lanes; 1.5 cut the
spread of the lane rates between seeds by 30-50% against 1.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.02
NOMINAL_S = 0.00025
SENSITIVITY = 1.5


def reference_kernel() -> int:
    x = 1
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFFF
    return x


class Timing:
    seconds = 0.0        # wall time minus the kernel runs
    norm_seconds = 0.0   # seconds at the nominal machine speed


class SpeedSampler:
    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def measure(self, sample: bool = True):
        """Time the ``with`` body; without ``sample`` it is plain wall time."""
        timing = Timing()
        self.samples.clear()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            timing.seconds = wall - sum(self.samples)
            if sample:
                self._tick()  # one sample after the call, so a short call has one too
                timing.norm_seconds = \
                    timing.seconds * (NOMINAL_S / statistics.fmean(self.samples)) ** SENSITIVITY
            else:
                timing.norm_seconds = timing.seconds
