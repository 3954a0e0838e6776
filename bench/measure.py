"""Timing helpers: calls timed in reference-kernel units, and order statistics.

The host's CPU speed drifts by a quarter between runs and flips between
fast and slow states within a second. Every library call is therefore
divided by the time of a fixed reference kernel, one 'ref', which moves
with the host the way the pipeline does: an interpreter loop over a heap
plus small numpy array operations. The kernel runs right before the call
and, from a SIGALRM handler, every ``SAMPLE_INTERVAL`` seconds during it;
the median of those samples is the call's ref, and the handler's own time
is taken out of the call's time. On a 2-core Xeon virtual machine, a
single sample before a multi-second call left 17-19% variation over
repeats of the same call; sampling during the call cut that to 3%. The
kernel belongs to the benchmark, so it is the same on every commit
compared.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL = 0.05
_PRE_SAMPLES = 3


def _reference_kernel() -> float:
    heap = []
    x = 12345
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 1023, i))
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    a = np.arange(4096, dtype=np.float64)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    return total + float(a[-1])


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


def timed(fn, expected: tuple[type[BaseException], ...], sample_during: bool = True):
    """Run ``fn()`` in reference units: (result, error, seconds, ref seconds).

    An exception of an ``expected`` class is returned as ``error``; any
    other propagates. ``seconds`` excludes the time spent sampling. Without
    ``sample_during`` the kernel only runs before the call, which leaves
    the call's caches alone, as the traced run needs for comparing costs.
    """
    samples = [_kernel_seconds() for _ in range(_PRE_SAMPLES)]
    spent = 0.0
    sampling = sample_during

    def tick(signum, frame):
        nonlocal spent
        if sampling:
            d = _kernel_seconds()
            samples.append(d)
            spent += d

    previous = signal.signal(signal.SIGALRM, tick)
    if sample_during:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    t0 = time.perf_counter()
    try:
        result, err = fn(), None
    except expected as exc:
        result, err = None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        sampling = False
        signal.signal(signal.SIGALRM, previous)
    return result, err, elapsed - spent, statistics.median(samples)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With fewer than eleven samples no such percentile exists, and the
    smallest sample is returned.
    """
    ordered = sorted(values)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)
