"""Host speed, measured with a fixed stdlib-only reference loop.

The benchmark's sandbox shares its cores with other machines' work, and
the speed at which it runs Python code changes by up to 2x from one second
to the next. Every timed interval is therefore adjusted for the host speed
measured while it runs: an adjusted time is the time the interval would
have taken with the reference loop running at REFERENCE_S. The loop uses no
flatfold code, so a change to flatfold cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Median time of the reference loop on the 2-core x86-64 sandbox (Python
# 3.11) the baseline was measured on, so that adjusted times read close to
# measured ones there. It only sets the scale of adjusted times.
REFERENCE_S = 7.5e-4
# While an interval runs, the host speed is sampled this often.
SAMPLE_EVERY_S = 0.1


def _reference_loop() -> None:
    """Fraction arithmetic, dict updates and deep calls: flatfold's mix."""
    acc = Fraction(0)
    for i in range(1, 70):
        acc += Fraction(i, i + 3) * Fraction(3, i + 1)
    d: dict[int, int] = {}
    for i in range(1300):
        d[i % 101] = d.get(i % 101, 0) + (i & 7)

    def down(k: int) -> int:
        return 1 if k == 0 else down(k - 1) + 1

    for _ in range(10):
        down(100)


def sample() -> float:
    """Median time of three runs of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale from measured to adjusted time between two samples."""
    return REFERENCE_S / ((before + after) / 2)


class Meter:
    """Times an interval and adjusts it for the host speed, sampled with a
    timer signal every SAMPLE_EVERY_S while the interval runs. The samples'
    own time is taken out of the interval."""

    def __init__(self):
        self._ticks: list[tuple[float, float, float]] = []   # start, end, sample

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        speed = sample()
        self._ticks.append((t0, time.perf_counter(), speed))

    def start(self) -> None:
        self._ticks = []
        self._before = sample()
        signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """Returns (measured seconds, adjusted seconds) of the interval."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        after = sample()
        # a signal raised just before the timer was disarmed may be handled
        # after t1; such a sample lies outside the interval
        ticks = [t for t in self._ticks if t[1] <= t1]
        # the segments of the interval between samples, each adjusted by
        # the mean speed of the samples on either side of it
        starts = [self._t0] + [b for _, b, _ in ticks]
        ends = [a for a, _, _ in ticks] + [t1]
        speeds = [self._before] + [s for _, _, s in ticks] + [after]
        measured = adjusted = 0.0
        for j, (s, e) in enumerate(zip(starts, ends)):
            measured += e - s
            adjusted += (e - s) * factor(speeds[j], speeds[j + 1])
        return measured, adjusted
