"""A probe that measures how fast the machine is at the moment.

The machines this benchmark runs on are shared, and their speed drifts by
up to 2x within a minute as neighbours come and go.  Workers run the probe
between jobs, outside the measured time, and scale every job's time by the
probes run nearest to it, so reported times read as on a machine where the
probe takes exactly ``REFERENCE_NS``.  The probe does the kind of work the
package does (``Fraction`` arithmetic, tuple keys, dict updates) but calls
none of its code, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 1_000_000
NEIGHBOURS = 7
# A core that has been idle runs slowly for a few milliseconds; the probe
# spins that long first so that it measures the machine, not the idle state.
WARM_UP_NS = 3_000_000
REPEATS = 3


def _work():
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(400):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + step * (i % 11)


def slowness() -> float:
    """Warm up, then time the probe ``REPEATS`` times; returns the fastest
    time over ``REFERENCE_NS``."""
    deadline = perf_counter_ns() + WARM_UP_NS
    while perf_counter_ns() < deadline:
        _work()
    best = None
    for _ in range(REPEATS):
        start = perf_counter_ns()
        _work()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None or elapsed < best else best
    return best / REFERENCE_NS


def scales(probes: list, times: list) -> list:
    """Scale factor for each time in ``times``.

    ``probes`` is a list of (time, slowness) in time order.  Each factor is
    one over the median slowness of the ``NEIGHBOURS`` probes closest in time.
    """
    stamps = [t for t, _ in probes]
    out = []
    for t in times:
        i = bisect_left(stamps, t)
        low, high = i, i
        while high - low < min(NEIGHBOURS, len(probes)):
            if low > 0 and (high >= len(probes) or t - stamps[low - 1] <= stamps[high] - t):
                low -= 1
            else:
                high += 1
        out.append(1 / statistics.median(s for _, s in probes[low:high]))
    return out
