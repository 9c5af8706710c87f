"""Unit tests for switch forwarding, routing-table computation and monitoring."""

from __future__ import annotations

import pytest

from repro.net.monitor import snapshot as network_snapshot
from repro.net.packet import FLAG_DATA, Packet
from repro.net.routing import count_equal_cost_paths
from repro.net.switch import LAYER_CORE, LAYER_EDGE
from repro.obs.telemetry import TelemetryRecorder
from repro.sim.engine import Simulator
from support import (
    TwoHostTopology,
    TwoPathTopology,
    forwarded_packets,
    verify_all_pairs_routable,
)


def _packet(src: int, dst: int, src_port: int = 4000) -> Packet:
    return Packet(
        flow_id=1, src=src, dst=dst, src_port=src_port, dst_port=5001,
        flags=FLAG_DATA, payload_size=100,
    )


class _Collector:
    """Endpoint stub that records delivered packets."""

    def __init__(self) -> None:
        self.packets = []

    def on_packet(self, packet) -> None:
        self.packets.append(packet)


def test_switch_forwards_to_destination_host() -> None:
    simulator = Simulator()
    topology = TwoHostTopology(simulator)
    collector = _Collector()
    topology.receiver.bind(5001, collector)
    topology.sender.send(_packet(src=topology.sender.address, dst=topology.receiver.address))
    simulator.run()
    assert len(collector.packets) == 1
    switch = topology.switches[0]
    assert forwarded_packets(switch) >= 1
    assert switch.layer == LAYER_EDGE


def test_unroutable_destination_is_counted_not_crashed() -> None:
    simulator = Simulator()
    topology = TwoHostTopology(simulator)
    recorder = TelemetryRecorder()
    topology.switches[0].probes = recorder
    topology.sender.send(_packet(src=topology.sender.address, dst=999))
    simulator.run()
    assert recorder.counters == {"trace.unroutable": 1}
    assert forwarded_packets(topology.switches[0]) == 0


def test_host_counts_packets_for_unknown_ports_and_wrong_address() -> None:
    simulator = Simulator()
    topology = TwoHostTopology(simulator)
    recorder = TelemetryRecorder()
    topology.receiver.probes = recorder
    # No endpoint bound at port 5001.
    topology.sender.send(_packet(src=topology.sender.address, dst=topology.receiver.address))
    simulator.run()
    assert recorder.counters == {"trace.no_endpoint": 1}

    # Direct mis-delivery (bypasses routing): wrong destination address.
    topology.receiver.receive(_packet(src=0, dst=12345), None)
    assert recorder.counters == {"trace.no_endpoint": 1, "trace.misdelivered": 1}


def test_multipath_routes_installed_for_all_destinations() -> None:
    simulator = Simulator()
    topology = TwoPathTopology(simulator, paths=3)
    assert verify_all_pairs_routable(topology)
    ingress = topology.node("ingress")
    # From the ingress switch, the receiver is reachable via all three path switches.
    routes = ingress.forwarding_table[topology.receiver.address]
    assert len(routes) == 3


def test_ecmp_spreads_different_ports_over_paths() -> None:
    simulator = Simulator()
    topology = TwoPathTopology(simulator, paths=3)
    collector = _Collector()
    topology.receiver.bind(5001, collector)
    for port in range(40000, 40060):
        topology.sender.send(
            _packet(src=topology.sender.address, dst=topology.receiver.address, src_port=port)
        )
    simulator.run()
    assert len(collector.packets) == 60
    used_paths = [switch for switch in topology.core_switches if forwarded_packets(switch) > 0]
    assert len(used_paths) >= 2  # the hash must not map everything to one path


def test_single_flow_uses_single_path() -> None:
    simulator = Simulator()
    topology = TwoPathTopology(simulator, paths=4)
    collector = _Collector()
    topology.receiver.bind(5001, collector)
    for _ in range(30):
        topology.sender.send(
            _packet(src=topology.sender.address, dst=topology.receiver.address, src_port=4000)
        )
    simulator.run()
    used_paths = [s for s in topology.core_switches if forwarded_packets(s) > 0]
    assert len(used_paths) == 1


def test_count_equal_cost_paths() -> None:
    simulator = Simulator()
    topology = TwoPathTopology(simulator, paths=4)
    assert count_equal_cost_paths(topology.graph, "host-a", "host-b") == 4
    assert count_equal_cost_paths(topology.graph, "host-a", "host-a") == 1
    assert count_equal_cost_paths(topology.graph, "host-a", "nonexistent") == 0


def test_install_route_rejects_empty_next_hops() -> None:
    simulator = Simulator()
    topology = TwoHostTopology(simulator)
    with pytest.raises(ValueError):
        topology.switches[0].install_route(123, [])


def test_switch_flow_hash_memo_is_exact_and_bounded() -> None:
    from repro.net import ecmp
    from repro.net.switch import HASH_CACHE_LIMIT, Switch

    simulator = Simulator()
    switch = Switch(simulator, "sw", ecmp_salt=7)
    packet = _packet(src=1, dst=2)
    assert switch.flow_hash_for(packet) == ecmp.ecmp_hash(packet, salt=7)
    # Memo hit returns the identical digest.
    assert switch.flow_hash_for(packet) == ecmp.ecmp_hash(packet, salt=7)

    # The memo never grows past its bound, even under packet scatter.
    for port in range(HASH_CACHE_LIMIT + 100):
        switch.flow_hash_for(_packet(src=1, dst=2, src_port=port % 65535 + 1))
        assert len(switch._hash_cache) <= HASH_CACHE_LIMIT

    # Changing the salt invalidates the memo and changes the digests.
    old_digest = switch.flow_hash_for(packet)
    switch.ecmp_salt = 8
    assert switch._hash_cache == {}
    assert switch.flow_hash_for(packet) == ecmp.ecmp_hash(packet, salt=8)
    assert switch.flow_hash_for(packet) != old_digest


def test_network_monitor_snapshot_aggregates_by_layer() -> None:
    simulator = Simulator()
    topology = TwoPathTopology(simulator, paths=2)
    collector = _Collector()
    topology.receiver.bind(5001, collector)
    for port in range(4000, 4020):
        topology.sender.send(
            _packet(src=topology.sender.address, dst=topology.receiver.address, src_port=port)
        )
    simulator.run()
    snapshot = network_snapshot(topology.hosts, topology.switches, simulator.now or 1.0)
    assert LAYER_CORE in snapshot.layer_loss
    assert LAYER_EDGE in snapshot.layer_loss
    assert snapshot.total_bytes_carried > 0
    assert snapshot.loss_rate(LAYER_CORE) == 0.0
    assert snapshot.loss_rate("nonexistent") == 0.0
