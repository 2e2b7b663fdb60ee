"""Host time that survives a host whose speed changes under the run.

The box this benchmark was defined on runs one and the same pure-Python
loop at anything between 0.67 and 1.18 million iterations a second (5th
to 95th percentile over 15 s), switching every second or two (a busy hyper-thread sibling: the process still gets 98% of
a CPU, the CPU is just slower). Measured there over 45 s, the raw time of
a fixed 2.5 s piece of Python work ranged over 42-53% of its median
(coefficient of variation 11-20%), so a timed repeat reads by when it
happened to run, and no number of repeats inside one 20 s run averages
that out.

:class:`CalibratedTimer` samples the host's speed with a 2.5 ms
calibration loop every 25 ms *during* the section being timed, leaves the
samples' own time out, and weights every stretch of work by the speed
measured at its two ends. The result is the section's length in
**reference seconds**: the time it would have taken on a host that runs
the calibration loop at a constant ``REFERENCE_LOOPS_PER_S``. Raw seconds
are kept beside it. In the same 45 s measurements the reference time of
the fixed work ranged over 9-11% of its median (coefficient of variation
2.3-3.2%).

The loop mixes what the simulator's hot paths are made of — attribute
loads and stores, a method call, float arithmetic, dict and list updates,
a heap, bytes slices — because a loop of integer adds alone tracked the
same work worse (coefficient of variation 3.0-5.5%). It calls nothing in
``src/``: a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import NamedTuple

#: Calibration-loop iterations per second of the reference host: within
#: what the defining box delivers, so that reference seconds read close
#: to real seconds there.
REFERENCE_LOOPS_PER_S = 1_000_000
#: Iterations of one speed sample (about 2.5 ms).
SAMPLE_LOOPS = 2_500
#: Longest stretch of work between two samples.
SAMPLE_PERIOD_S = 0.025

_PERIOD_NS = int(SAMPLE_PERIOD_S * 1e9)
_BLOB = bytes(range(256)) * 16


class _Slot:
    __slots__ = ("free_us", "count")

    def __init__(self) -> None:
        self.free_us = 0.0
        self.count = 0

    def book(self, start_us: float, cost_us: float) -> float:
        self.free_us = max(self.free_us, start_us) + cost_us
        self.count += 1
        return self.free_us


def _calibration_loop(loops: int) -> None:
    slot = _Slot()
    index: dict[bytes, int] = {}
    heap: list[float] = []
    log: list[tuple[bytes, float]] = []
    now_us = 0.0
    for i in range(loops):
        offset = (i * 37) & 1023
        key = _BLOB[offset : offset + 16]
        index[key] = i
        now_us += 0.75
        finish = slot.book(now_us, 1.5 + (i & 7) * 0.25)
        heappush(heap, finish)
        if len(heap) > 32:
            now_us = max(now_us, heappop(heap))
        log.append((key, finish))


class Stretch(NamedTuple):
    """One timed stretch of work, sampling time excluded."""

    raw_ns: int
    ref_s: float


class CalibratedTimer:
    """A stopwatch that samples host speed while it runs."""

    def __init__(self) -> None:
        #: ``(start_ns, end_ns, loops_per_ns)`` per speed sample.
        self._samples: list[tuple[int, int, float]] = []

    def sample(self) -> None:
        """Measure the host's speed now (call at section start and end)."""
        start = time.perf_counter_ns()
        _calibration_loop(SAMPLE_LOOPS)
        end = time.perf_counter_ns()
        self._samples.append((start, end, SAMPLE_LOOPS / (end - start)))

    def tick(self) -> None:
        """Sample again if the last sample is a period old."""
        if time.perf_counter_ns() - self._samples[-1][1] >= _PERIOD_NS:
            self.sample()

    def reset(self) -> Stretch:
        """The work since the first sample, in raw nanoseconds and in
        reference seconds; forgets the samples."""
        samples, self._samples = self._samples, []
        raw_ns = 0
        loops = 0.0
        for (_, begin, speed_a), (end, _, speed_b) in zip(samples, samples[1:]):
            raw_ns += end - begin
            loops += (end - begin) * (speed_a + speed_b) / 2.0
        return Stretch(raw_ns, loops / REFERENCE_LOOPS_PER_S)
