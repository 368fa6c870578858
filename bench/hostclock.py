"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same sweep seed ran at 2600 and at 3700 steps/s a minute apart, and over two
minutes one-second windows ranged by a factor of two.  The guest sees none
of this as steal time, so neither wall nor CPU time can tell it apart from
a change in ubsc.

So a timed phase is cut into segments of about :data:`PERIOD_S` of work,
with a short calibration slice between segments: a fixed pure-Python
workload that calls no ubsc code, half compute-bound and half random reads
over 8 MB.  A segment's times are scaled by
``REF_UNIT_S`` over the mean duration of a calibration unit in the slices
on either side of it.  A scaled time is what the work would have taken on a
host that runs one calibration unit in ``REF_UNIT_S``; a change in ubsc
moves it, while a change in host speed moves the segment and the slices
alike.  The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REF_UNIT_S = 0.020  # nominal duration of one calibration unit
PERIOD_S = 0.2  # seconds of work between calibration slices


def _term(n: int) -> tuple:
    return ("leaf", n) if n < 2 else ("node", n, _term(n - 1), _term(n - 2))


def _rewrite(t: tuple, memo: dict) -> tuple:
    got = memo.get(t)
    if got is None:
        if t[0] == "leaf":
            got = ("leaf", (t[1] * 31 + 7) % 101)
        else:
            a, b = _rewrite(t[2], memo), _rewrite(t[3], memo)
            got = ("node", (t[1] + a[1] + len(b)) % 97, b, a)
        memo[t] = got
    return got


_MASK = (1 << 23) - 1
_buffer: list = []  # the 8 MB the memory half reads, made on first use


def _memory_reads() -> int:
    """Random single-byte reads over 8 MB, past the caches a core has to
    itself; ubsc's larger heaps, and their garbage collection, wait on
    memory like this.  In a probe that timed the same work over and over,
    adding this half narrowed the spread of scaled throughput between
    windows from 0.054 to 0.040 on sweep and from 0.089 to 0.071 on
    search."""
    if not _buffer:
        _buffer.append(bytearray(range(256)) * ((_MASK + 1) // 256))
    buf, i, acc = _buffer[0], 1, 0
    for _ in range(40000):
        i = (i * 1103515245 + 12345) & _MASK
        acc += buf[i]
    return acc


def calibration_unit() -> int:
    """Term building, memoised rewriting, tuple and frozenset keys and string
    formatting, the kinds of work ubsc does with none of its code; then
    memory reads."""
    acc = _memory_reads()
    for _ in range(15):
        acc += len(repr(_rewrite(_term(12), {})))
        counts: dict = {}
        for i in range(300):
            key = (i % 17, f"x{i % 23}", frozenset((i % 3, i % 5)))
            counts[key] = counts.get(key, 0) + 1
        acc += sum(sorted(counts.values()))
    return acc


class HostClock:
    """Calibration slices along one timed phase.

    ``slices`` holds the raw (start, end) of every slice.  Segment ``k`` is
    the work between slice ``k - 1`` and slice ``k``; an op belongs to the
    segment in which it ended, which is ``len(slices)`` at that moment.
    """

    def __init__(self):
        self.slices: list = []

    def calibrate(self) -> float:
        """Run one slice, one calibration unit, with the garbage collector
        off, so that no collection of the workload's heap lands in it;
        returns the time after it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            calibration_unit()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.slices.append((t0, t1))
        return t1

    def tick(self, now: float) -> float:
        """Called at an op boundary: run a slice when a period of work has
        passed since the last one.  Returns the time the next op starts."""
        if now - self.slices[-1][1] >= PERIOD_S:
            return self.calibrate()
        return now

    @property
    def segment(self) -> int:
        return len(self.slices)

    def _unit_s(self, k: int) -> float:
        return self.slices[k][1] - self.slices[k][0]

    def scale(self, segment: int) -> float:
        """Factor from raw to scaled time for ``segment``."""
        unit = (self._unit_s(segment - 1) + self._unit_s(segment)) / 2
        return REF_UNIT_S / unit

    def work_s(self) -> float:
        """Raw time between the first and the last slice, slices excluded."""
        return sum(self.slices[k][0] - self.slices[k - 1][1]
                   for k in range(1, len(self.slices)))

    def scaled_work_s(self) -> float:
        return sum((self.slices[k][0] - self.slices[k - 1][1]) * self.scale(k)
                   for k in range(1, len(self.slices)))

    def host_speed(self) -> float:
        """REF_UNIT_S over the median calibration unit: above 1 on a host
        faster than the reference."""
        return REF_UNIT_S / statistics.median(
            self._unit_s(k) for k in range(len(self.slices)))
