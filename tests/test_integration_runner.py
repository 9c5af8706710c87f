"""Integration tests: the experiment runner across protocols and fabrics.

Each test runs a tiny end-to-end simulation (16–64 hosts, a handful of
flows) through :func:`repro.experiments.runner.run_experiment`, exercising
the full stack — workload generation, topology construction, transport state
machines, metrics extraction — for every protocol and topology the runner
accepts.
"""

from __future__ import annotations

import pytest

from repro.core.mmptcp import PHASE_MPTCP, PHASE_PACKET_SCATTER
from repro.experiments.config import (
    SWITCHING_CONGESTION,
    SWITCHING_NEVER,
    TOPOLOGY_DUALHOMED,
    ExperimentConfig,
)
from repro.experiments.runner import run_experiment
from repro.sim.units import megabits_per_second
from repro.traffic.flowspec import ALL_PROTOCOLS, PROTOCOL_MMPTCP


def _tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=0.6,
        short_flow_rate_per_sender=5.0,
        long_flow_size_bytes=300_000,
        max_short_flows=6,
        num_subflows=4,
        seed=23,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# Every protocol end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_protocol_completes_the_tiny_workload(protocol: str) -> None:
    result = run_experiment(_tiny_config(protocol=protocol))
    metrics = result.metrics
    assert result.workload_size == len(metrics.flows) > 0
    assert all(record.protocol == protocol for record in metrics.flows)
    # The tiny workload is far below capacity: everything should finish.
    assert metrics.short_flow_completion_rate() == pytest.approx(1.0)
    assert all(record.completed for record in metrics.long_flows)
    assert result.events_processed > 0


# ---------------------------------------------------------------------------
# MMPTCP phase bookkeeping through the runner
# ---------------------------------------------------------------------------


def test_mmptcp_short_flows_finish_in_scatter_phase_and_long_flows_switch() -> None:
    config = _tiny_config(protocol=PROTOCOL_MMPTCP, long_flow_size_bytes=600_000)
    result = run_experiment(config)
    shorts = result.metrics.short_flows
    longs = result.metrics.long_flows
    assert shorts and longs
    # 70 KB < the 140 KB default switching threshold.
    assert all(record.phase_at_completion == PHASE_PACKET_SCATTER for record in shorts)
    assert all(record.switch_time is None for record in shorts)
    # 600 KB long flows must have crossed the threshold and switched.
    assert all(record.phase_at_completion == PHASE_MPTCP for record in longs)
    assert all(record.switch_time is not None for record in longs)


def test_packet_scatter_protocol_never_switches() -> None:
    config = _tiny_config(
        protocol=PROTOCOL_MMPTCP,
        num_subflows=1,
        switching_policy=SWITCHING_NEVER,
        long_flow_size_bytes=600_000,
    )
    result = run_experiment(config)
    assert all(
        record.phase_at_completion == PHASE_PACKET_SCATTER for record in result.metrics.flows
    )


def test_mmptcp_congestion_event_switching_through_runner() -> None:
    config = _tiny_config(
        protocol=PROTOCOL_MMPTCP,
        switching_policy=SWITCHING_CONGESTION,
        long_flow_size_bytes=600_000,
    )
    result = run_experiment(config)
    # Without congestion nothing switches; with congestion some flows do.
    # Either way the runner records a consistent phase for every flow.
    for record in result.metrics.flows:
        assert record.phase_at_completion in (PHASE_PACKET_SCATTER, PHASE_MPTCP)
        if record.phase_at_completion == PHASE_MPTCP:
            assert record.switch_time is not None


# ---------------------------------------------------------------------------
# Alternative fabrics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", (TOPOLOGY_DUALHOMED,))
def test_mmptcp_runs_on_alternative_fabrics(topology: str) -> None:
    config = _tiny_config(protocol=PROTOCOL_MMPTCP, topology=topology, max_short_flows=4)
    result = run_experiment(config)
    assert result.metrics.short_flow_completion_rate() == pytest.approx(1.0)


def test_paired_runs_share_the_workload_arrivals() -> None:
    """Same seed => same flow population, sizes and start times across protocols."""
    mptcp = run_experiment(_tiny_config(protocol="mptcp"))
    mmptcp = run_experiment(_tiny_config(protocol="mmptcp"))
    assert len(mptcp.metrics.flows) == len(mmptcp.metrics.flows)
    for a, b in zip(mptcp.metrics.flows, mmptcp.metrics.flows):
        assert (a.flow_id, a.size_bytes, a.is_long, a.start_time) == (
            b.flow_id, b.size_bytes, b.is_long, b.start_time
        )
