"""Unit helpers used throughout the simulator.

The simulator uses a small set of base units consistently:

* **time** is expressed in seconds as a ``float``,
* **data sizes** are expressed in bytes as an ``int``,
* **rates** are expressed in bits per second as a ``float``.

These helpers exist so that configuration code can say
``rate=gigabits_per_second(1)`` or ``delay=microseconds(20)`` instead of
sprinkling magic numbers such as ``1e9`` and ``2e-05`` around, and so that
conversions (e.g. transmission delay of a packet on a link) live in one
audited place.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------


def seconds(value: float) -> float:
    """Return ``value`` interpreted as seconds (identity, for symmetry)."""
    return float(value)


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) * 1e-3


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return float(value) * 1e-6


def to_milliseconds(time_s: float) -> float:
    """Convert a time in seconds to milliseconds."""
    return time_s * 1e3


# ---------------------------------------------------------------------------
# Data sizes
# ---------------------------------------------------------------------------


def kilobytes(value: float) -> int:
    """Convert kilobytes (10^3 bytes) to bytes."""
    return int(value * 1_000)


def megabytes(value: float) -> int:
    """Convert megabytes (10^6 bytes) to bytes."""
    return int(value * 1_000_000)


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


def megabits_per_second(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return float(value) * 1e6


def gigabits_per_second(value: float) -> float:
    """Convert gigabits per second to bits per second."""
    return float(value) * 1e9


def throughput_bps(size_bytes: int, duration_s: float) -> float:
    """Achieved throughput in bits per second for ``size_bytes`` over ``duration_s``.

    Returns ``0.0`` for non-positive durations rather than raising, because
    zero-duration flows occur naturally for empty transfers.
    """
    if duration_s <= 0:
        return 0.0
    return size_bytes * 8.0 / duration_s
