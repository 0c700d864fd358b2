"""Timing scaled to the speed the processor has while the program runs.

The machines this benchmark runs on are shared: the speed of one virtual
processor drifts by a quarter and more within seconds as neighbours load
the host, which moves every timing by as much and would swamp the
differences the benchmark is meant to show.  So while a run measures, a
``SpeedProbe`` thread on the same processor times a short fixed loop
every PERIOD_S seconds, alternating an integer loop and a loop of tuple
building and dict lookups.  A probe's slowdown is its time over the
loop's uncontended time.  Each measured interval is divided by the mean
slowdown of the probes inside it: a reported second is a second at the
processor's uncontended speed, and the raw seconds are printed next to
it.  A slower program still reads slower, because the probe loops do
not depend on the program.  The probes are kept short, so each runs
before the scheduler hands the processor back to the program, and take
about 2% of the processor, the same on every commit.
"""

from __future__ import annotations

import bisect
import threading
import time

PERIOD_S = 0.02
# An interval with fewer probes inside is scaled by this many nearest
# probes: the speed holds for seconds at a time, and more probes average
# out the noise of a single one.
MIN_PROBES = 8

_KEYS = [
    (i % 4, (i * 7) % 97, tuple((j, (j * i) % 5) for j in range(i % 4)))
    for i in range(3000)
]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def integer_loop() -> float:
    """Seconds a fixed integer loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return time.perf_counter() - start


def lookup_loop() -> float:
    """Seconds a fixed loop of tuple building and dict lookups takes now,
    the kind of work the program's table building does."""
    start = time.perf_counter()
    acc = 0
    for a, b, c in _KEYS[:1200]:
        acc += _TABLE[(a, b, c)]
    return time.perf_counter() - start


# Each loop at the fifth percentile of 2000 samples on an idle 2.1 GHz
# Xeon virtual processor (Python 3.11): its uncontended speed.  The
# probes alternate, and one probe reads as its time over its reference.
PROBES = ((integer_loop, 0.00032), (lookup_loop, 0.00022))


class SpeedProbe:
    """Samples the PROBES in turn from a thread until ``close``.

    Samples carry ``time.perf_counter`` stamps, which on Linux read
    CLOCK_MONOTONIC, one clock for every process, so intervals timed in
    child processes can be scaled too.
    """

    def __init__(self):
        # (stamp, slowdown, running sum of slowdowns), appended
        # as one tuple so a reader never sees a half-written sample.
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        total, tick = 0.0, 0
        while not self._stop.wait(PERIOD_S):
            loop, reference = PROBES[tick % len(PROBES)]
            tick += 1
            slowdown = loop() / reference
            total += slowdown
            self.samples.append((time.perf_counter(), slowdown, total))

    def factor(self, start: float, end: float) -> float:
        """One over the mean probe slowdown in [start, end], or over the
        MIN_PROBES probes around a shorter interval."""
        samples = self.samples[:]
        if not samples:
            return 1.0
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (end, float("inf")))
        if hi - lo < MIN_PROBES:
            middle = bisect.bisect_left(samples, ((start + end) / 2,))
            lo = max(0, min(middle - MIN_PROBES // 2, len(samples) - MIN_PROBES))
            hi = min(len(samples), lo + MIN_PROBES)
        before = samples[lo - 1][2] if lo else 0.0
        return (hi - lo) / (samples[hi - 1][2] - before)

    def close(self):
        self._stop.set()
        self._thread.join()
