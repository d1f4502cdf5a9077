"""Machine-speed calibration for timings taken on a shared host.

On a shared VM the same op can run at very different speeds from one
minute to the next, because neighbours contend for the same cores. On a
2-CPU Xeon VM the speed switched between two levels about 1.45x apart,
and a 25 s run could land in either. So the benchmark times a fixed
calibration loop next to every op, and reports each time at the
reference speed: the speed at which the loop takes its reference time.
No cubesense code runs in a loop, so no change to the library can change
a loop's speed.

The loop must slow down the way the op does. ``python_loop`` does
interpreted Fraction, dict and int work, like the exact and scan paths.
``blas_loop`` runs a dense SVD, like the float witness: the Python loop
tracks BLAS-bound ops poorly, and scaling by it widened their spread.
"""

from __future__ import annotations

import functools
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

PYTHON_REFERENCE_S = 1e-3
BLAS_REFERENCE_S = 1e-2
clock = time.perf_counter


def python_loop() -> float:
    """Time of the interpreted loop, in units of its reference time."""
    t0 = clock()
    acc, x, buckets, m = Fraction(0), Fraction(1, 3), {}, 0
    for i in range(1, 120):
        acc += x * i / (i + 1)
        buckets[i & 31] = buckets.get(i & 31, 0) + i
    for i in range(2000):
        m ^= (m << 1 | i) & 0xFFFF
    return (clock() - t0) / PYTHON_REFERENCE_S


@functools.lru_cache(maxsize=1)
def _blas_matrix():
    import numpy as np

    return np.random.default_rng(0).standard_normal((256, 192))


def blas_loop() -> float:
    """Time of one SVD of a fixed 256 x 192 matrix, in units of its reference time."""
    import numpy as np

    a = _blas_matrix()
    t0 = clock()
    np.linalg.svd(a)
    return (clock() - t0) / BLAS_REFERENCE_S


def speed(samples: Sequence[float]) -> float:
    """Factor that scales a time measured next to these loop samples to
    the reference speed."""
    return 1.0 / statistics.median(samples)


def op_speeds(loops: Sequence[float]) -> List[float]:
    """One factor per op, for loops timed before each op and once after
    the last. Op i uses the two loops around it and one more on each side;
    the median of these few absorbs a loop that an interrupt slowed."""
    return [speed(loops[max(0, i - 1): i + 3]) for i in range(len(loops) - 1)]
