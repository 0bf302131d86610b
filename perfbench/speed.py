"""The machine's speed while a stage runs, to calibrate stage times.

The benchmark's virtual CPUs share their cores with other machines, and
the same code runs up to twice as slow when those are busy, in spells
of seconds to minutes (a 240-step survey took 13.2 s on a calm machine
and 20-28 s in busy spells).  No steal time is reported for it, so CPU
time slows as much as wall time.

A `Probe` times a fixed reference kernel, a short Python loop and a few
numpy operations on a 20000-element array, from a SIGALRM handler every
PERIOD seconds.  The handler runs in the benchmark's own thread, between
the program's bytecodes, so it meets the same core and the same
neighbours as the program.  A stage's calibrated time is its CPU time,
less the kernel's own time within it, scaled by REFERENCE_S over the
kernel's mean time within it: an estimate of the stage's time at the
speed at which the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.025       # s between kernel runs
REFERENCE_S = 4e-4   # a fixed scale, near the kernel's time in a busy spell


class Probe:
    def __init__(self) -> None:
        self.samples: list[float] = []  # kernel CPU times, in order
        self._data = np.arange(20000, dtype=float)
        self._previous = None

    def _kernel(self) -> None:
        s = 0
        for i in range(3000):
            s += i
        x = self._data
        for _ in range(5):
            x = np.sqrt(x + 1.0)

    def _tick(self, signum, frame) -> None:
        t0 = time.process_time()
        self._kernel()
        self.samples.append(time.process_time() - t0)

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return time.process_time(), len(self.samples)

    def own(self, mark: tuple[float, int]) -> float:
        """CPU time since mark, less the kernel's."""
        t0, n0 = mark
        return time.process_time() - t0 - sum(self.samples[n0:])

    def scale(self, mark: tuple[float, int]) -> float:
        """REFERENCE_S over the kernel's mean time since mark, timing
        the kernel once more if the stage was too short to be sampled."""
        if len(self.samples) == mark[1]:
            self._tick(None, None)
        kernel = self.samples[mark[1]:]
        return REFERENCE_S * len(kernel) / sum(kernel)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(calibrated time, CPU time) of the stage begun at mark."""
        raw = time.process_time() - mark[0]
        return self.own(mark) * self.scale(mark), raw
