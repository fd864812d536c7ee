"""The reference loop: a probe of the host's current speed.

The host's speed drifts.  A fixed pure-Python loop takes 15-20% more or less
time from one second to the next, and the share of slow spells changes from
one quarter of an hour to the next.  The benchmark scales its timings to a
nominal host speed by the time this loop takes right before and right after
the timed work.  The loop calls no library code, so a change to the library
cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal seconds of the loop, about what it takes on a 2-vCPU Xeon host with
# Python 3.11.
REFERENCE_S = 0.01

_TABLE = (np.arange(256 * 256, dtype=np.int64).reshape(256, 256) * 7 % 256).astype(np.int32)
_ROW = list(range(256))


def reference_s() -> float:
    """Seconds the loop takes now, the median of five runs.  Each run does,
    in about equal parts, the three kinds of work the library's inner loops
    do: dict and integer updates, big-integer bit sets, and numpy gathers on
    a 256 x 256 table.  A loop of dict updates alone slowed by up to 1.65x in
    the host's slow spells, more than the library did, and over-corrected."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        d = {}
        for i in range(20_000):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        bits = 0
        for a in range(120):
            for b in range(0, 256, 2):
                bits |= 1 << _ROW[(a * b) & 255]
        for a in range(0, 256, 16):
            (_TABLE[_TABLE[a]] == _TABLE[:, _TABLE[a]]).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, from the loop's times right
    before and right after them."""
    return seconds * 2 * REFERENCE_S / (before + after)
