"""The machine's current speed, from a fixed reference task.

On a shared host the same work can take twice as long from one minute to the
next.  The benchmark times `reference_task` between ops and around each
set-up; the median of those samples, over REFERENCE_NOMINAL_S, is how much
slower than nominal the machine ran, and reported times are divided by it.
"""

from __future__ import annotations

import statistics
import time

#: Time of `reference_task` at which a measured time is reported unscaled.
REFERENCE_NOMINAL_S = 0.0015


def reference_task() -> float:
    """Time a fixed stretch of integer arithmetic.

    It allocates no container, so neither the program's heap nor the
    garbage collector changes its time; only the machine's speed does."""
    started = time.perf_counter()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - started


def factor(samples: list[float]) -> float:
    return statistics.median(samples) / REFERENCE_NOMINAL_S


def timed(fn, samples: int = 5):
    """Run `fn()`; return its result and its time at nominal speed, with
    reference samples taken right before and right after."""
    reference = [reference_task() for _ in range(samples)]
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    reference += [reference_task() for _ in range(samples)]
    return result, elapsed / factor(reference)
