"""The speed of the CPU the benchmark runs on, sampled while it runs.

On a shared host a vCPU runs the same code up to 1.7 times slower for
seconds to minutes at a time, when another tenant loads the physical core
behind it; the two vCPUs of one VM speed up and slow down independently.
A benchmark run of 20-30 s sits inside such phases, so raw wall times
spread across runs by more than any useful regression bound.

``SpeedSampler`` pins the process to one CPU and runs a fixed, short
calibration loop on a background thread every ``PERIOD`` seconds, timing
it with that thread's own CPU clock, so time spent waiting for the
interpreter lock or for the CPU does not count.  ``scale(t0, t1)`` turns a
wall time taken between ``t0`` and ``t1`` into seconds at the reference
speed: wall time * REFERENCE_S / the loop's mean time in that interval.
The loop shares nothing with robuststop, so a change to the program moves
the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

PERIOD = 0.05
# The calibration loop's CPU seconds on the baseline machine (README.md)
# in its fast phase; scaled times are seconds at that speed.
REFERENCE_S = 0.0005
# samples this far outside an interval still count for it, so that an
# interval shorter than PERIOD gets the samples on either side
MARGIN = 2 * PERIOD


def calibration_loop() -> float:
    """Interpreter-bound work with a few small numpy calls, like the
    program's own mix."""
    acc = 0.0
    table = {}
    for i in range(3000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    a = np.arange(64.0)
    for _ in range(80):
        a = np.maximum(a * 0.999, a[::-1])
    return acc + float(a.sum())


class SpeedSampler:
    def __init__(self):
        self.times = []  # perf_counter at the end of each sample
        self.loop_s = []  # the loop's thread CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def start(self) -> None:
        """Pin the calling thread, and so every thread and child process
        started after this, to one CPU, then start sampling."""
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        calibration_loop()  # warm the loop's code and numpy's
        self._sample()  # so that speed() always has a sample
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            self._sample()

    def _sample(self) -> None:
        c = time.thread_time()
        calibration_loop()
        self.loop_s.append(time.thread_time() - c)
        self.times.append(time.perf_counter())

    def speed(self, t0: float, t1: float) -> float:
        """REFERENCE_S / the loop's mean time over [t0, t1]: below 1 when
        the CPU ran slower than the reference."""
        lo = bisect.bisect_left(self.times, t0 - MARGIN)
        hi = bisect.bisect_right(self.times, t1 + MARGIN)
        if hi <= lo:  # no sample near the interval: take the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.loop_s[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Wall time t1 - t0 in seconds at the reference speed."""
        return (t1 - t0) * self.speed(t0, t1)
