"""Flow arrival processes.

Short flows in the paper's workload arrive according to a Poisson process;
this module generates those arrival times, plus the simultaneous arrivals
of an incast burst.
"""

from __future__ import annotations

import random
from typing import List


def poisson_arrivals(
    rate_per_second: float,
    duration_s: float,
    rng: random.Random,
    start_time: float = 0.0,
) -> List[float]:
    """Arrival times of a Poisson process of ``rate_per_second`` over ``duration_s``.

    Returns absolute times in ``[start_time, start_time + duration_s)``.
    """
    if rate_per_second < 0:
        raise ValueError("rate_per_second cannot be negative")
    if duration_s < 0:
        raise ValueError("duration_s cannot be negative")
    arrivals: List[float] = []
    if rate_per_second == 0:
        return arrivals
    clock = start_time
    horizon = start_time + duration_s
    while True:
        clock += rng.expovariate(rate_per_second)
        if clock >= horizon:
            break
        arrivals.append(clock)
    return arrivals


def synchronized_arrivals(count: int, start_time: float = 0.0) -> List[float]:
    """``count`` simultaneous arrivals — the incast pattern."""
    if count < 0:
        raise ValueError("count cannot be negative")
    return [start_time] * count
