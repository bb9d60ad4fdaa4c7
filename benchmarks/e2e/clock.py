"""Wall time at the reference machine speed.

The reference container is not steady: the same pure-Python loop takes
between 14 and 27 ms within one minute, changing within a few hundred
milliseconds and drifting over tens of seconds, and process CPU time
stretches with it, so it is the core that slows, not the scheduler that
takes it away.  Ten runs of identical ops then spread
their throughput by 20-30 % (quartile distance over median), wider than
any bound BENCHMARK.json may state.  A :class:`Ruler` therefore times
the loop between the many short segments of a measurement and counts
the measurement's wall time as what it would have been with the loop at
its reference speed.  The program under test, its inputs and its scheduling
are untouched; only the unit of time is.  The end-to-end timings
(``setup_s``, ``throughput_ops_s``, ``p50_us``) are in reference
seconds; every per-layer time is as the clock read it, and
``trace.machine_speed_ratio`` relates the two.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 40_000
#: Nanoseconds per iteration on the reference container at its fastest.
REFERENCE_NS_PER_ITERATION = 27.0


def loop_seconds(iterations: int = LOOP_ITERATIONS) -> float:
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return time.perf_counter() - started


class Ruler:
    """Starts on creation; :meth:`lap` closes one segment and opens the
    next, timing the loop (about a millisecond) in between.  The loops'
    own time is in no segment.  The speed changes faster than a segment
    lasts, so one factor serves the whole measurement: the mean of all
    its loops against the reference."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self._loops = [loop_seconds()]
        self._started = time.perf_counter()

    def lap(self) -> float:
        """Wall seconds of the segment just ended, as read."""
        raw = time.perf_counter() - self._started
        self.raw_s += raw
        self._loops.append(loop_seconds())
        self._started = time.perf_counter()
        return raw

    @property
    def factor(self) -> float:
        """What to multiply a time of this measurement by to get
        reference seconds; also the machine's speed as a share of the
        reference's."""
        reference = REFERENCE_NS_PER_ITERATION * 1e-9 * LOOP_ITERATIONS
        return reference / statistics.mean(self._loops)

    @property
    def reference_s(self) -> float:
        return self.raw_s * self.factor
