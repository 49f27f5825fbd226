"""A fixed pure-Python kernel whose timings track the speed of the CPU.

The speed of a shared virtual CPU swings by tens of percent within seconds.
The benchmark times this kernel next to the program's work, on the same
pinned CPU, and scales the program's times to the kernel's reference speed.
"""

from __future__ import annotations

import time

RUNS = 3  # kernel runs per calibration point
REFERENCE_S = 0.0095  # the kernel's fast-end time on a quiet 2.0 GHz Xeon vCPU


def kernel() -> dict:
    """Trial-division factorizations into small dicts: the integer arithmetic,
    loops and dict traffic the package spends its time on, but none of the
    package's code, so no change to the package moves this timing."""
    out = {}
    for n in range(2, 6000):
        m, d, f = n, 2, {}
        while d * d <= m:
            while m % d == 0:
                f[d] = f.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            f[m] = 1
        out[n] = f
    return out


def sample() -> list[float]:
    """Seconds taken by RUNS back-to-back runs of the kernel."""
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times
