"""Summary statistics for op latencies, and the yardstick of machine speed."""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

MIN_BEYOND = 10
MAX_PERCENTILE = 99.0


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile up to
    MAX_PERCENTILE that leaves MIN_BEYOND samples above it.

    With n sorted samples that is the one at rank n - MIN_BEYOND (1-based),
    the 100 * (n - MIN_BEYOND) / n percentile; the rank moves one sample at
    a time as n changes, so the reported tail has no jumps between fixed
    percentiles.  From 1000 samples on the rank stays at the 99th
    percentile: further out, a run of sub-millisecond ops measures the
    machine's hiccups, not the program.  Below 2 * MIN_BEYOND samples the
    rank would fall under the median, so the median is returned with the
    count actually beyond it.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    rank = max(min(n - MIN_BEYOND, math.ceil(MAX_PERCENTILE / 100 * n)), math.ceil(n / 2))
    return 100 * rank / n, xs[rank - 1], n - rank


# -- machine speed -----------------------------------------------------------
#
# The benchmark shares its host with other tenants, and the speed of the
# cores it gets drifts by a factor of up to two over minutes and changes
# within seconds.  Timings are therefore reported in reference time: each
# measured time is multiplied by YARDSTICK_REF_S / (median time of the
# yardstick runs measured around it).  The yardstick is fixed pure-Python
# work that uses nothing of the library, so a change to the library moves
# the scaled times exactly as it moves the raw ones, while the machine's
# drift cancels to the extent that it slows the yardstick and the library
# alike.

YARDSTICK_REF_S = 0.006  # the yardstick's median on the machine of the first baseline

# Pure-Python rational sums over objects spread through a few MiB, read in
# a scattered order: of the fixed workloads tried, this one's time tracked
# the library's own under the host's drift most closely (the library is
# exact rational arithmetic on many small objects).
_CHASE_SIZE = 30000
_CHASE_STEPS = 1500
_chase: list[Fraction] = []


def _chase_list() -> list[Fraction]:
    if not _chase:
        rng = random.Random(7)
        fracs = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(_CHASE_SIZE)]
        order = list(range(_CHASE_SIZE))
        rng.shuffle(order)
        _chase.extend(fracs[i] for i in order)
    return _chase


def yardstick() -> Fraction:
    """Fixed rational work of about 6 ms that uses nothing of the library."""
    chase = _chase_list()
    acc = Fraction(0)
    for k in range(_CHASE_STEPS):
        acc += chase[k * 97 % _CHASE_SIZE]
        if k % 8 == 0:
            acc = Fraction(acc.numerator % 10**20, acc.denominator % 10**20 + 1)
    return acc


def time_yardstick(samples: list[float], repeats: int = 1) -> None:
    """Run the yardstick ``repeats`` times, appending each duration in seconds."""
    clock = time.perf_counter
    _chase_list()  # built once, outside the timings
    for _ in range(repeats):
        t0 = clock()
        yardstick()
        samples.append(clock() - t0)


def local_scales(positions: list[int], samples: list[float], width: int) -> list[float]:
    """Factor that turns each time into reference time.

    ``positions[i]`` is the number of yardstick samples taken before time i
    was measured; its factor is YARDSTICK_REF_S over the median of the
    ``width`` samples either side of that position.
    """
    cache: dict[int, float] = {}
    for p in positions:
        if p not in cache:
            cache[p] = YARDSTICK_REF_S / statistics.median(samples[max(0, p - width) : p + width])
    return [cache[p] for p in positions]
