"""Machine-speed calibration for times measured on a shared machine.

On a small shared sandbox the speed of the same code drifts by 20-70%
within a minute (neighbours, frequency changes), far more than the bounds
the benchmark must resolve.  So every timed pass and set-up sample is
bracketed by runs of a fixed kernel, and the reported time is scaled to a
machine on which that kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes what the workloads spend their time on (interpreter
loops, float formatting, numpy sorts, FFTs and dot products) and never
touches qcorr, so no change to the program can move it.  Raw wall times
are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.017
_ARRAY = np.arange(1 << 17, dtype=float)


def kernel() -> float:
    total = 0.0
    for i in range(100000):
        total += (i % 7) * 0.5
    text = ",".join(format(i * 1.1, ".17g") for i in range(8000))
    values = _ARRAY[::-1] * 1.000001
    np.sort(values)
    np.fft.rfft(values)
    return total + len(text) + float(values @ values)


def sample(repeats: int = 3) -> float:
    """Median seconds of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(measured: float, before: float, after: float) -> float:
    """`measured` seconds at the reference machine speed."""
    return measured * REFERENCE_S / ((before + after) / 2.0)
