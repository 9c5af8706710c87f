"""Tests for the network-load sweep experiment."""

from __future__ import annotations

import pytest

from repro.experiments import (
    StudyPoint,
    load_sweep_rows,
    points_by_protocol,
    run_load_sweep,
)
from repro.experiments.config import ExperimentConfig
from repro.sim.units import megabits_per_second
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_TCP


def _tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.1,
        drain_time_s=0.6,
        short_flow_rate_per_sender=10.0,
        long_flow_size_bytes=300_000,
        max_short_flows=8,
        num_subflows=4,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def sweep_points():
    return run_load_sweep(
        _tiny_config(),
        protocols=(PROTOCOL_TCP, PROTOCOL_MMPTCP),
        load_factors=(1.0, 2.0),
        num_subflows=4,
    )


def test_sweep_produces_one_point_per_protocol_and_load(sweep_points) -> None:
    assert len(sweep_points) == 4
    combos = {(point.protocol, point.load_factor) for point in sweep_points}
    assert combos == {
        (PROTOCOL_TCP, 1.0), (PROTOCOL_TCP, 2.0),
        (PROTOCOL_MMPTCP, 1.0), (PROTOCOL_MMPTCP, 2.0),
    }


def test_sweep_scales_the_arrival_rate(sweep_points) -> None:
    base_rate = _tiny_config().short_flow_rate_per_sender
    for point in sweep_points:
        assert point.arrival_rate == pytest.approx(base_rate * point.load_factor)


def test_sweep_points_carry_usable_statistics(sweep_points) -> None:
    measured = 0
    for point in sweep_points:
        assert isinstance(point, StudyPoint)
        fct_summary = point.result.metrics.short_flow_fct_summary()
        assert point.mean_fct_ms >= 0.0
        assert point.p99_fct_ms >= fct_summary.p50 - 1e-9
        assert 0.0 <= point.rto_incidence <= 1.0
        if fct_summary.count > 0:
            measured += 1
            assert point.completion_rate > 0.0
    # At least the nominal-load points must have produced short-flow samples.
    assert measured >= len(sweep_points) // 2


def test_points_by_protocol_groups_and_orders(sweep_points) -> None:
    grouped = points_by_protocol(sweep_points)
    assert set(grouped) == {PROTOCOL_TCP, PROTOCOL_MMPTCP}
    for series in grouped.values():
        factors = [point.load_factor for point in series]
        assert factors == sorted(factors)


def test_load_sweep_rows_flat_and_complete(sweep_points) -> None:
    rows = load_sweep_rows(sweep_points)
    assert len(rows) == len(sweep_points)
    for row in rows:
        assert {"protocol", "load_factor", "mean_fct_ms", "rto_incidence",
                "long_throughput_mbps"} <= set(row)


def test_load_sweep_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        run_load_sweep(_tiny_config(), protocols=(), load_factors=(1.0,))
    with pytest.raises(ValueError):
        run_load_sweep(_tiny_config(), protocols=(PROTOCOL_TCP,), load_factors=(0.0,))
