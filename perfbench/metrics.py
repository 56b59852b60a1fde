"""Statistics and host-speed calibration shared by the benchmark's processes.

The machine this benchmark was designed on shares its cores with other
tenants: wall time and CPU time of the same work drift together by up to
1.5x between batches a minute apart.  A single long run does not remove
that drift, so every timed batch is bracketed by a short fixed
calibration kernel and its time is rescaled to a reference host speed:

    normalised = measured * CAL_REF_S / calibration_time

The kernel is pure Python integer, tuple and dict work, like fqsim's hot
paths, runs with the garbage collector off (so a program that holds more
objects cannot slow it down and hide its own regression) and touches a
few kilobytes (so it stays cache-resident whatever the program does).
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# Median time of one `_kernel()` call on the reference host (2-core
# Intel Xeon, Python 3.11.7).  Normalised times are "seconds on that host".
CAL_REF_S = 0.0024
_CAL_REPS = 3


def _kernel(iterations: int = 3000) -> int:
    counts: dict[tuple[int, int], int] = {}
    mask = 0
    acc = 0
    for i in range(iterations):
        key = (i * 7919 % 61, i * 104729 % 59)
        counts[key] = counts.get(key, 0) + 1
        mask |= 1 << (i * 37 % 257)
        acc = (acc * 31 + key[0] * key[1]) % 1000003
    return len(counts) + mask.bit_count() + acc


def calibrate() -> float:
    """Seconds for one kernel call: the median of a few, with GC off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_CAL_REPS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def host_factor(cal_before: float, cal_after: float) -> float:
    """Scale that converts a time measured between two calibrations to
    reference-host time."""
    return CAL_REF_S / math.sqrt(cal_before * cal_after)


def percentile(values, p: float, min_beyond: int = 10):
    """Nearest-rank p-quantile (0 < p < 1), or None when fewer than
    `min_beyond` samples lie above it.

    A tail percentile read from fewer samples than that is one or two
    outliers, not a property of the distribution; p90 therefore needs at
    least 100 samples.
    """
    n = len(values)
    rank = math.ceil(p * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]
