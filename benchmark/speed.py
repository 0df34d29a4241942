"""How fast this machine runs plain Python at a given moment.

Other tenants of the machine the benchmark was tuned on slow it down by up
to a factor of two, for anything from a second to a minute, far more than
the changes the benchmark has to resolve.  So a fixed reference
computation that shares no code with gtlc is timed between the measured
calls, and each measured time is scaled by the reference's nominal time
over its median time around that call: seconds at reference speed.  A
change to gtlc cannot move the reference, so it moves the scaled times as
it moves the wall times.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference's time on a quiet period of the machine the benchmark was
# tuned on (2.1 GHz Xeon, Python 3.11); scaled times read as seconds there.
NOMINAL_S = 1.5e-4
RUNS = 5          # reference runs per probe; the probe keeps their median
EVERY_S = 0.02    # probe before a measured call once this long has passed
WINDOW_S = 0.25   # probes this close to a call set its scale


class _Node:
    __slots__ = ("left", "right", "tag")

    def __init__(self, left, right, tag: int) -> None:
        self.left, self.right, self.tag = left, right, tag


def _build(depth: int, tag: int) -> _Node:
    if depth == 0:
        return _Node(None, None, tag)
    return _Node(_build(depth - 1, 2 * tag), _build(depth - 1, 2 * tag + 1), tag)


def reference() -> int:
    """Build a tree of small objects and fold it through a dict, as the
    compiler passes and the analyzer do."""
    counts: dict[int, int] = {}
    total, stack = 0, [_build(7, 1)]
    while stack:
        n = stack.pop()
        counts[n.tag & 31] = counts.get(n.tag & 31, 0) + 1
        if n.left is None:
            total += n.tag
        else:
            stack.append(n.left)
            stack.append(n.right)
    return total + len(counts)


class SpeedProbe:
    def __init__(self) -> None:
        self.at: list[float] = []    # when each probe ended
        self.took: list[float] = []  # median of its reference runs

    def probe(self) -> None:
        times = []
        for _ in range(RUNS):
            t0 = perf_counter()
            reference()
            times.append(perf_counter() - t0)
        self.at.append(perf_counter())
        self.took.append(statistics.median(times))

    def maybe(self) -> None:
        """Probe unless the last probe is recent."""
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, start: float, seconds: float) -> float:
        """Nominal over local reference time for a call that began at
        `start` and took `seconds`; the pass must have probed after it."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, start + seconds + WINDOW_S)
        return NOMINAL_S / statistics.median(self.took[lo:hi])
