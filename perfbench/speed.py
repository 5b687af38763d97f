"""Wall time rescaled to a reference host speed.

On a shared host the same deterministic solve can take up to twice as long
when other tenants load the machine, and the speed changes within a second.
``SpeedSampler.timing()`` interrupts the timed block every ``PERIOD_S`` with a
timer signal and times a short fixed kernel.  The kernel's time is taken out
of the wall time, and the rest is rescaled by the kernel's reference time
over its measured time, averaged over the block: the result is the block's
duration on a host where the kernel takes its reference time.  The handler
touches no rayflow state, so outputs do not change, and ``clock()`` excludes
the kernel's time, so spans timed with it do not see the sampling either.

The kernel makes small-vector numpy calls, the mix rayflow's solvers run.
``REF_KERNEL_S`` is about its median time on the 2-vCPU host the benchmark
was tuned on.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
KERNEL_REPS = 50
REF_KERNEL_S = 6e-4


def kernel() -> float:
    """Seconds for KERNEL_REPS rounds of small-vector numpy calls."""
    x = np.linspace(0.0, 1.0, 128)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPS):
        d = np.diff(x) / 0.01
        acc += float(np.sum(np.abs(d) ** 3.0)) + float(x @ x)
        x = x + 1e-12
    dt = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise FloatingPointError("speed kernel went non-finite")
    return dt


@dataclass
class Timing:
    """One timed block: wall seconds without the kernel's own time, and the
    same rescaled to the reference speed."""

    wall_s: float = 0.0
    ref_s: float = 0.0


class SpeedSampler:
    """Samples host speed inside timed blocks; owns the kernel-time total."""

    def __init__(self):
        self.kernel_s = 0.0
        self._samples: list[float] = []

    def clock(self) -> float:
        """``time.perf_counter()`` minus all kernel time so far: the program's own clock."""
        return time.perf_counter() - self.kernel_s

    @contextlib.contextmanager
    def timing(self):
        timing = Timing()
        self._samples = [kernel()]  # at least one sample, even for short blocks
        start = self.clock()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            timing.wall_s = self.clock() - start
            signal.signal(signal.SIGALRM, previous)
            timing.ref_s = timing.wall_s * sum(REF_KERNEL_S / s for s in self._samples) / len(self._samples)

    def _on_alarm(self, signum, frame):
        dt = kernel()
        self._samples.append(dt)
        self.kernel_s += dt
