"""Tests for the incast fan-in sweep and the multi-homing comparison."""

from __future__ import annotations

import pytest

from repro.experiments import STUDIES, StudyPoint, run_study, study_rows
from repro.experiments.config import TOPOLOGY_DUALHOMED, TOPOLOGY_FATTREE, ExperimentConfig
from repro.experiments.incast_study import build_incast_workload_for
from repro.sim.units import megabits_per_second
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_TCP


def _tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=1.0,
        num_subflows=4,
        seed=29,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


def test_incast_workload_has_one_flow_per_sender_all_synchronised() -> None:
    workload = build_incast_workload_for(_tiny_config(), fan_in=6, response_bytes=50_000,
                                         protocol=PROTOCOL_TCP)
    assert len(workload.flows) == 6
    destinations = {flow.destination for flow in workload.flows}
    assert len(destinations) == 1
    starts = {flow.start_time for flow in workload.flows}
    assert len(starts) == 1
    assert all(flow.size_bytes == 50_000 for flow in workload.flows)


def test_incast_workload_is_paired_across_protocols() -> None:
    config = _tiny_config()
    tcp = build_incast_workload_for(config, 5, 70_000, PROTOCOL_TCP)
    mmptcp = build_incast_workload_for(config, 5, 70_000, PROTOCOL_MMPTCP)
    assert [(f.source, f.destination) for f in tcp.flows] == [
        (f.source, f.destination) for f in mmptcp.flows
    ]


def test_incast_workload_rejects_impossible_fan_in() -> None:
    with pytest.raises(ValueError):
        build_incast_workload_for(_tiny_config(), fan_in=0, response_bytes=1000,
                                  protocol=PROTOCOL_TCP)
    with pytest.raises(ValueError):
        # The tiny fabric only has 16 hosts.
        build_incast_workload_for(_tiny_config(), fan_in=16, response_bytes=1000,
                                  protocol=PROTOCOL_TCP)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_points():
    return run_study(
        STUDIES["incast"],
        _tiny_config(),
        protocols=(PROTOCOL_TCP, PROTOCOL_MMPTCP),
        fan_ins=(4, 8),
        response_bytes=50_000,
    )


def test_incast_sweep_covers_every_combination(sweep_points) -> None:
    combos = {(point.protocol, point.fan_in) for point in sweep_points}
    assert combos == {(PROTOCOL_TCP, 4), (PROTOCOL_TCP, 8),
                      (PROTOCOL_MMPTCP, 4), (PROTOCOL_MMPTCP, 8)}
    assert all(point.topology == TOPOLOGY_FATTREE for point in sweep_points)


def test_incast_sweep_every_burst_drains(sweep_points) -> None:
    for point in sweep_points:
        assert isinstance(point, StudyPoint)
        assert point.completion_rate == pytest.approx(1.0), (point.protocol, point.fan_in)
        assert point.result.metrics.short_flow_fct_summary().count == point.fan_in
        assert point.p99_fct_ms > 0.0


def test_incast_rows_shape(sweep_points) -> None:
    rows = study_rows(sweep_points)
    assert len(rows) == len(sweep_points)
    for row in rows:
        assert {"topology", "protocol", "fan_in", "mean_fct_ms", "completion_rate",
                "total_rtos"} <= set(row)


def test_incast_sweep_rejects_empty_dimensions() -> None:
    with pytest.raises(ValueError):
        run_study(STUDIES["incast"], _tiny_config(), protocols=(), fan_ins=(4,))
    with pytest.raises(ValueError):
        run_study(STUDIES["incast"], _tiny_config(), protocols=(PROTOCOL_TCP,), fan_ins=())


# ---------------------------------------------------------------------------
# Multi-homing comparison
# ---------------------------------------------------------------------------


def test_compare_multihoming_returns_both_fabrics() -> None:
    points = run_study(
        STUDIES["incast"],
        _tiny_config(),
        protocols=(PROTOCOL_MMPTCP,),
        fan_ins=(6,),
        response_bytes=50_000,
        topologies=(TOPOLOGY_FATTREE, TOPOLOGY_DUALHOMED),
    )
    assert [point.topology for point in points] == [TOPOLOGY_FATTREE, TOPOLOGY_DUALHOMED]
    for point in points:
        assert point.completion_rate == pytest.approx(1.0)
        assert point.protocol == PROTOCOL_MMPTCP
