"""Order statistics and digests shared by the ledger's runner, CLI and tests."""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, Sequence

from repro.metrics.export import dumps_deterministic


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value has no spread: all three quartiles are that value.
    """
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, inter-quartile range, extremes and sample count of ``values``."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "iqr": q3 - q1,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def sim_digest(rows: object) -> str:
    """sha256 of the deterministic JSON of a pass's simulated rows.

    Rows hold simulated quantities only, so the digest repeats exactly for a
    fixed seed; a speed-only change must leave it untouched.
    """
    return hashlib.sha256(dumps_deterministic(rows).encode("utf-8")).hexdigest()
