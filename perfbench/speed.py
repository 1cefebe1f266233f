"""Machine-speed correction for timings taken on a shared, drifting CPU.

On a host shared with other tenants the same Python code can run 50%
slower for tens of seconds at a time, which swamps the differences the
benchmark exists to show.  `SpeedTrack.mark` times a fixed pure-Python
kernel (relaxation over a list of tuples, dict and tuple churn: the kind
of work the solvers do) between the benchmark's own timed regions.  A
timed interval is then reported in reference seconds: each stretch of
it is scaled by ``REFERENCE_S / kernel time`` measured around that
stretch, and the time spent in marks is left out.  A reference second is
a wall second on this machine when the kernel runs at `REFERENCE_S`.

The kernel shares no code with `rmcif`, so a change to the program
moves its timings and never the correction.
"""
from __future__ import annotations

import time
from bisect import bisect_left

# The kernel's time on an unloaded 2-core Intel Xeon host (Python 3.11).
REFERENCE_S = 0.0030
_ARCS = [(i % 61, (i * 7 + 3) % 61, (i * 13) % 17 - 3) for i in range(1500)]


def _kernel() -> None:
    dist = [0] * 61
    for _ in range(20):
        for tail, head, cost in _ARCS:
            nd = dist[tail] + cost
            if nd < dist[head]:
                dist[head] = nd
    seen = {}
    for i in range(6000):
        seen[(i, i % 7)] = (i, dist[i % 61])


def kernel_seconds() -> float:
    """Median time of the kernel over three back-to-back runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class SpeedTrack:
    """Kernel timings taken between timed regions, and the scaling they imply."""

    every = 0.25  # seconds between marks, at least

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # start, end, kernel seconds

    def mark(self) -> None:
        start = time.perf_counter()
        seconds = kernel_seconds()
        self.marks.append((start, time.perf_counter(), seconds))

    def maybe_mark(self) -> None:
        """Mark unless the last mark ended less than `every` seconds ago."""
        if not self.marks or time.perf_counter() - self.marks[-1][1] >= self.every:
            self.mark()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in [start, end], marks inside it excluded.

        The stretch between two marks is scaled by the mean of their
        kernel times; before the first mark and after the last, by the
        nearest mark's.  Call it once a mark follows `end`.
        """
        return self.split(start, end)[0]

    def split(self, start: float, end: float) -> tuple[float, float]:
        """Reference seconds and unmarked wall seconds in [start, end]."""
        marks = self.marks
        if not marks:
            raise RuntimeError("no speed marks were taken")
        first = max(0, bisect_left(marks, (start,)) - 1)
        edges = [(float("-inf"), marks[first][0], marks[first][2], marks[first][2])]
        for (_, end_a, k_a), (start_b, _, k_b) in zip(marks[first:], marks[first + 1:]):
            edges.append((end_a, start_b, k_a, k_b))
            if start_b >= end:
                break
        last = marks[-1]
        edges.append((last[1], float("inf"), last[2], last[2]))
        reference = wall = 0.0
        for lo, hi, k_a, k_b in edges:
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                reference += overlap * 2 * REFERENCE_S / (k_a + k_b)
                wall += overlap
        return reference, wall
