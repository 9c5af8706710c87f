"""Statistical summaries used by experiment reports.

Plain-Python statistics with the conventions the paper uses: flow
completion times are reported in milliseconds as mean plus standard
deviation, and the scatter plots of Figure 1(b)/(c) are summarised here by
percentiles and by the fraction of flows exceeding RTO-scale latencies.

Every float is bit-for-bit what numpy (2.x, float64) returns for the same
sample, because exported rows and stored artifacts pin the bits: sums use
numpy's pairwise summation (:func:`_sum`), and percentiles its ``linear``
method with its ``_lerp``.  Builtin ``sum()``, ``math.fsum`` and
``statistics`` are deliberately not used — ``sum()`` compensates float
additions from CPython 3.12 on, and CI runs 3.11 and 3.12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @staticmethod
    def empty() -> "DistributionSummary":
        """Summary of an empty sample (all statistics zero)."""
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _pairwise_sum(data: List[float], start: int, count: int) -> float:
    """numpy's pairwise sum of ``data[start:start + count]``.

    Below 8 terms the block is added left to right; up to 128 terms, with 8
    interleaved accumulators combined as a balanced tree plus the tail; above
    that it splits at half the length, rounded down to a multiple of 8.
    """
    if count < 8:
        total = 0.0
        for value in data[start:start + count]:
            total += value
        return total
    if count <= 128:
        unrolled = count - count % 8
        lanes = []
        for lane in range(8):
            accumulator = data[start + lane]
            for value in data[start + lane + 8:start + unrolled:8]:
                accumulator += value
            lanes.append(accumulator)
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for value in data[start + unrolled:start + count]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(data, start, half) + _pairwise_sum(data, start + half, count - half)


def _sum(data: List[float]) -> float:
    """``np.sum`` of ``data``: the pairwise sum added to the identity 0.0."""
    # The identity makes an all -0.0 sample sum to +0.0, as numpy's does.
    return 0.0 + _pairwise_sum(data, 0, len(data))


def _mean(data: List[float]) -> float:
    return _sum(data) / len(data)


def _std(data: List[float], ddof: int = 0) -> float:
    """``np.std(data, ddof=ddof)``: squared deviations from the mean, summed pairwise."""
    mean = _mean(data)
    squares = [(value - mean) * (value - mean) for value in data]
    return math.sqrt(_sum(squares) / (len(data) - ddof))


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's ``_lerp``: interpolate from the nearer end for accuracy."""
    difference = b - a
    if t >= 0.5:
        return b - difference * (1 - t)
    return a + difference * t


def _sorted_percentile(ordered: List[float], q: float) -> float:
    """``np.percentile(..., q)`` (``linear`` method) of an ascending sample."""
    count = len(ordered)
    virtual = (count - 1) * (q / 100)
    if virtual >= count - 1:
        # numpy clamps both neighbours to the last element but still derives
        # the weight from index -1, which decides the sign of a zero result.
        below = above = count - 1
        weight = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        weight = virtual - below
    return _lerp(ordered[below], ordered[above], weight)


def _floats(values: Iterable[float]) -> List[float]:
    return [float(value) for value in values]


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Compute a :class:`DistributionSummary` of ``values``."""
    data = _floats(values)
    if not data:
        return DistributionSummary.empty()
    ordered = sorted(data)
    return DistributionSummary(
        count=len(data),
        mean=_mean(data),
        std=_std(data),
        minimum=ordered[0],
        p50=_sorted_percentile(ordered, 50),
        p90=_sorted_percentile(ordered, 90),
        p99=_sorted_percentile(ordered, 99),
        maximum=ordered[-1],
    )


def mean_ci95(values: Iterable[float]) -> Tuple[float, float]:
    """Sample mean and 95% confidence half-width of ``values``.

    The half-width is the normal-approximation interval ``1.96 · s / √n``
    with the *sample* standard deviation (ddof=1) — the convention campaign
    reports use for across-replication columns.  It is 0.0 for fewer than
    two values (no spread estimate), and the result is ``(0.0, 0.0)`` for an
    empty sample.
    """
    data = _floats(values)
    if not data:
        return 0.0, 0.0
    mean = _mean(data)
    if len(data) < 2:
        return mean, 0.0
    return mean, 1.96 * _std(data, ddof=1) / math.sqrt(len(data))


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs suitable for plotting a CDF."""
    if not values:
        return []
    ordered = sorted(_floats(values))
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """Fraction of ``values`` strictly greater than ``threshold``."""
    if not values:
        return 0.0
    data = _floats(values)
    threshold = float(threshold)
    return len([value for value in data if value > threshold]) / len(data)


def jains_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of a set of throughputs (1.0 = perfectly fair)."""
    data = _floats(values)
    if not data:
        return 0.0
    denominator = len(data) * _sum([value * value for value in data])
    if denominator == 0:
        return 0.0
    return _sum(data) ** 2 / denominator
