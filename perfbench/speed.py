"""Machine-speed probe: every time the benchmark reports is in reference
seconds.

On a shared virtual machine the speed of a vCPU swings by a quarter or
more over tens of seconds as other tenants come and go.  On the reference
machine (2-vCPU Intel Xeon VM) the 10-second means of a fixed loop ranged
from 0.86 to 1.25 of their median within two minutes, and the wall time
of one fixed 30-second workload ranged from 25 to 42 s over five runs.
Raw times of two runs of the same code then differ by more than any
useful regression bound.

So the harness runs a fixed probe, which does not touch the library,
between operations about every PROBE_EVERY_S seconds, and scales each
measured interval by REFERENCE_PROBE_S over the median duration of the
NEAREST probes closest to it in time.  A reported time is the time the
interval would have taken at the speed at which the probe takes
REFERENCE_PROBE_S.  Probe time is left out of every interval; the
probe's 8 MB input stays in the peak RSS.  The run record keeps the raw
times and the probe durations too.
"""

from __future__ import annotations

import bisect
import statistics
import time
from functools import lru_cache

import numpy as np

# Median probe duration on the reference machine.
REFERENCE_PROBE_S = 0.006
PROBE_EVERY_S = 0.5
NEAREST = 7


@lru_cache(maxsize=None)
def _probe_inputs() -> tuple[np.ndarray, int]:
    return np.random.default_rng(0).integers(0, 4096, 1_000_000), 3 ** 4000


def probe_seconds() -> float:
    """One probe: an interpreted integer loop, big-integer products and a
    numpy bincount over 8 MB, the three kinds of work the library does."""
    counts, big = _probe_inputs()
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    x = big
    for _ in range(20):
        x = (x * big) >> 6000
    np.bincount(counts, minlength=4096)
    return time.perf_counter() - t0


class SpeedTrack:
    """Probes taken during a run and the scale factors they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def probe(self, force: bool = False) -> None:
        """Probe now if forced or if PROBE_EVERY_S has passed since the last."""
        now = time.perf_counter()
        if force or now >= self._next:
            d = probe_seconds()
            self.starts.append(now)
            self.durations.append(d)
            self._next = now + d + PROBE_EVERY_S

    def factor(self, t: float) -> float:
        i = bisect.bisect(self.starts, t)
        lo = max(0, min(i - NEAREST // 2, len(self.starts) - NEAREST))
        return REFERENCE_PROBE_S / statistics.median(self.durations[lo:lo + NEAREST])

    def scaled(self, start: float, elapsed: float) -> float:
        return elapsed * self.factor(start + elapsed / 2)

    def probe_time(self, t0: float, t1: float) -> float:
        return sum(d for s, d in zip(self.starts, self.durations) if t0 <= s and s + d <= t1)

    def scaled_span(self, t0: float, t1: float) -> float:
        """Reference seconds in [t0, t1], leaving out the probes inside it."""
        total, cursor = 0.0, t0
        for s, d in zip(self.starts, self.durations):
            if cursor <= s and s + d <= t1:
                total += self.scaled(cursor, s - cursor)
                cursor = s + d
        return total + self.scaled(cursor, t1 - cursor)
