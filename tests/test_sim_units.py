"""Unit tests for unit-conversion helpers."""

from __future__ import annotations

import pytest

from repro.sim import units
from support import serialisation_delay


def test_time_conversions() -> None:
    assert units.milliseconds(200) == pytest.approx(0.2)
    assert units.microseconds(20) == pytest.approx(2e-5)
    assert units.seconds(1.5) == 1.5
    assert units.to_milliseconds(0.116) == pytest.approx(116.0)


def test_size_conversions() -> None:
    assert units.kilobytes(70) == 70_000
    assert units.megabytes(2) == 2_000_000


def test_rate_conversions() -> None:
    assert units.gigabits_per_second(1) == pytest.approx(1e9)
    assert units.megabits_per_second(100) == pytest.approx(1e8)


def test_transmission_delay_of_full_packet() -> None:
    # 1500 bytes at 1 Gbps = 12 microseconds.
    assert serialisation_delay(1500, 1e9) == pytest.approx(12e-6)


def test_transmission_delay_rejects_nonpositive_rate() -> None:
    with pytest.raises(ValueError):
        serialisation_delay(1500, 0.0)


def test_throughput() -> None:
    assert units.throughput_bps(1_000_000, 1.0) == pytest.approx(8e6)
    assert units.throughput_bps(1_000_000, 0.0) == 0.0
    assert units.throughput_bps(0, 1.0) == 0.0
