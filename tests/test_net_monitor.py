"""Tests for the network monitor (per-layer loss, utilisation, byte counts)."""

from __future__ import annotations

import pytest

from repro.net.monitor import LayerLossStats, NetworkSnapshot
from repro.net.monitor import snapshot as network_snapshot
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.units import megabits_per_second, microseconds
from repro.transport.base import TcpConfig
from repro.transport.receiver import TcpReceiver
from repro.transport.tcp import TcpSender
from support import DumbbellTopology


def _run_dumbbell(pairs: int = 3, flow_bytes: int = 300_000, queue_capacity: int = 20):
    """Several TCP flows through one bottleneck; returns (topology, duration)."""
    simulator = Simulator()
    topology = DumbbellTopology(
        simulator,
        pairs=pairs,
        bottleneck_rate_bps=megabits_per_second(50),
        access_rate_bps=megabits_per_second(500),
        link_delay_s=microseconds(50),
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_capacity),
    )
    config = TcpConfig(mss=1000, initial_cwnd_segments=2)
    for index in range(pairs):
        receiver_host = topology.receivers[index]
        TcpReceiver(simulator, receiver_host, local_port=5001, flow_id=index,
                    expected_bytes=flow_bytes)
        sender = TcpSender(simulator, topology.senders[index], receiver_host.address, 5001,
                           flow_bytes, flow_id=index, config=config)
        sender.start()
    duration = 5.0
    simulator.run(until=duration)
    return topology, duration


# ---------------------------------------------------------------------------
# LayerLossStats / NetworkSnapshot basics
# ---------------------------------------------------------------------------


def test_layer_loss_rate_zero_without_traffic() -> None:
    stats = LayerLossStats(layer="core")
    assert stats.loss_rate == 0.0


def test_layer_loss_rate_fraction() -> None:
    stats = LayerLossStats(layer="edge", offered_packets=200, dropped_packets=10)
    assert stats.loss_rate == pytest.approx(0.05)


def test_snapshot_loss_rate_for_missing_layer_is_zero() -> None:
    snapshot = NetworkSnapshot(duration_s=1.0)
    assert snapshot.loss_rate("aggregation") == 0.0


# ---------------------------------------------------------------------------
# Monitor over real simulations
# ---------------------------------------------------------------------------


def test_monitor_reports_traffic_and_bounded_utilisation() -> None:
    topology, duration = _run_dumbbell()
    snapshot = network_snapshot(topology.hosts, topology.switches, duration)
    assert snapshot.total_bytes_carried > 0
    assert 0.0 <= snapshot.edge_utilisation <= 1.0
    assert 0.0 <= snapshot.core_utilisation <= 1.0
    # The dumbbell only has edge-layer switches, so the edge stats exist.
    assert "edge" in snapshot.layer_loss
    assert snapshot.layer_loss["edge"].offered_packets > 0


def test_monitor_counts_drops_when_bottleneck_queue_is_tiny() -> None:
    congested_topology, duration = _run_dumbbell(pairs=4, queue_capacity=5)
    congested = network_snapshot(
        congested_topology.hosts, congested_topology.switches, duration
    )
    # A five-packet bottleneck buffer shared by four flows must drop, and the
    # drops must be attributed to the (edge-layer) switch queues.
    assert congested.total_packets_dropped > 0
    assert congested.loss_rate("edge") > 0.0
    assert congested.layer_loss["edge"].dropped_packets > 0
    assert congested.layer_loss["edge"].dropped_bytes > 0


def test_monitor_snapshot_consistency_between_loss_fields() -> None:
    topology, duration = _run_dumbbell(pairs=4, queue_capacity=5)
    snapshot = network_snapshot(topology.hosts, topology.switches, duration)
    switch_drops = sum(stats.dropped_packets for stats in snapshot.layer_loss.values())
    # Total drops include host uplink queues as well, so they can only exceed
    # the switch-layer sum.
    assert snapshot.total_packets_dropped >= switch_drops
