"""Unit tests for link faults, degradation, and failure-aware routing."""

from __future__ import annotations

import pytest

from repro.net.faults import (
    DEGRADE,
    LINK_DOWN,
    LINK_UP,
    MIGRATE_HOST,
    RESTORE,
    FaultEvent,
    FaultInjector,
    degradation,
    host_migration,
    link_failure,
    link_flap,
)
from repro.net.monitor import snapshot as network_snapshot
from repro.scenarios.registry import get_scenario
from repro.sim.engine import Simulator
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from support import RecordingProbes, make_tcp_transfer


def _fattree(simulator: Simulator) -> FatTreeTopology:
    return FatTreeTopology(simulator, FatTreeParams(k=4, hosts_per_edge=1))


# ---------------------------------------------------------------------------
# FaultEvent validation and helpers
# ---------------------------------------------------------------------------


def test_fault_event_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        FaultEvent(time_s=-1.0, kind=LINK_DOWN, node_a="a", node_b="b")
    with pytest.raises(ValueError):
        FaultEvent(time_s=0.0, kind="melt", node_a="a", node_b="b")
    with pytest.raises(ValueError):
        FaultEvent(time_s=0.0, kind=LINK_DOWN, node_a="a", node_b="a")
    with pytest.raises(ValueError):
        FaultEvent(time_s=0.0, kind=DEGRADE, node_a="a", node_b="b", factor=0.0)


def test_fault_helpers_build_consistent_schedules() -> None:
    down, up = link_flap(0.1, 0.2, "a", "b")
    assert down.kind == "link_down" and up.kind == "link_up"
    with pytest.raises(ValueError):
        link_flap(0.2, 0.1, "a", "b")
    events = degradation(0.1, "a", "b", factor=0.5, restore_s=0.3)
    assert [event.kind for event in events] == ["degrade", "restore"]
    with pytest.raises(ValueError):
        degradation(0.3, "a", "b", factor=0.5, restore_s=0.1)
    assert link_failure(0.05, "a", "b").kind == "link_down"


def test_mobility_event_validation() -> None:
    with pytest.raises(ValueError):  # negative downtime is nonsense
        host_migration(0.1, "h", "s", downtime_s=-0.1)

    event = host_migration(0.1, "h", "s", downtime_s=0.05)
    assert event.kind == MIGRATE_HOST
    assert (event.node_a, event.node_b) == ("h", "s")
    assert event.duration_s == 0.05


def test_injector_validates_migration_endpoints_eagerly() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    with pytest.raises(ValueError, match="not a host"):
        FaultInjector(simulator, topology, (host_migration(0.1, "core-0", "edge-0-0"),))
    with pytest.raises(ValueError, match="not a switch"):
        FaultInjector(
            simulator, topology, (host_migration(0.1, "host-0-0-0", "host-1-0-0"),)
        )
    with pytest.raises(ValueError, match="unknown node"):
        FaultInjector(simulator, topology, (host_migration(0.1, "nope", "edge-0-0"),))


def test_drain_expands_into_a_degrade_staircase_then_link_down() -> None:
    # Each core uplink of agg-0-0 halves its rate every 30 ms, three times,
    # then goes down; core-1 follows core-0 30 ms behind.
    simulator = Simulator()
    topology = _fattree(simulator)
    schedule = get_scenario("rolling-drain").faults
    assert [(e.time_s, e.kind, e.node_a, e.node_b, e.factor) for e in schedule] == [
        (0.02, DEGRADE, "core-0", "agg-0-0", 0.5),
        (0.05, DEGRADE, "core-0", "agg-0-0", 0.25),
        (0.08, DEGRADE, "core-0", "agg-0-0", 0.125),
        (0.11, LINK_DOWN, "core-0", "agg-0-0", 1.0),
        (0.05, DEGRADE, "core-1", "agg-0-0", 0.5),
        (0.08, DEGRADE, "core-1", "agg-0-0", 0.25),
        (0.11, DEGRADE, "core-1", "agg-0-0", 0.125),
        (0.14, LINK_DOWN, "core-1", "agg-0-0", 1.0),
    ]
    links = {
        core: topology.interfaces_between(core, "agg-0-0") for core in ("core-0", "core-1")
    }
    original = links["core-0"][0].rate_bps
    probes = RecordingProbes()
    FaultInjector(simulator, topology, schedule, probes=probes).arm()

    # (time, core-0 state, core-1 state): a rate factor, or None once down.
    for time_s, *states in (
        (0.035, 0.5, 1.0),
        (0.065, 0.25, 0.5),
        (0.095, 0.125, 0.25),
        (0.125, None, 0.125),
        (0.155, None, None),
    ):
        simulator.run(until=time_s)
        for core, factor in zip(("core-0", "core-1"), states):
            iface_ab, iface_ba = links[core]
            if factor is None:
                assert not iface_ab.up and not iface_ba.up
                assert not topology.graph.has_edge(core, "agg-0-0")
            else:
                assert iface_ab.up and iface_ba.up
                assert iface_ab.rate_bps == iface_ba.rate_bps == original * factor
    # Every schedule entry is reported once.
    assert sorted((e.time, e.name) for e in probes.events) == sorted(
        (e.time_s, e.kind) for e in schedule
    )


def test_redundant_link_events_are_explicit_noops() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    iface_ab, iface_ba = topology.interfaces_between("core-0", "agg-0-0")
    original = iface_ab.rate_bps
    edges_as_built = topology.graph.number_of_edges()
    schedule = (
        # LINK_UP on an already-up link, RESTORE without a matching DEGRADE,
        # then LINK_DOWN twice: the second down has nothing left to change.
        FaultEvent(time_s=0.01, kind=LINK_UP, node_a="core-0", node_b="agg-0-0"),
        FaultEvent(time_s=0.02, kind=RESTORE, node_a="core-0", node_b="agg-0-0"),
        FaultEvent(time_s=0.03, kind=LINK_DOWN, node_a="core-0", node_b="agg-0-0"),
        FaultEvent(time_s=0.04, kind=LINK_DOWN, node_a="core-0", node_b="agg-0-0"),
    )
    probes = RecordingProbes()
    FaultInjector(simulator, topology, schedule, probes=probes).arm()
    simulator.run(until=0.025)
    # Nothing has changed yet: the redundant up and the orphan restore left
    # rates, link state and the graph exactly as built.
    assert iface_ab.up and iface_ba.up
    assert iface_ab.rate_bps == pytest.approx(original)
    assert topology.graph.has_edge("core-0", "agg-0-0")
    # Re-adding an edge is idempotent: the redundant up left the graph with
    # exactly the edges it was built with.
    assert topology.graph.number_of_edges() == edges_as_built
    simulator.run(until=0.05)
    assert not iface_ab.up and not iface_ba.up
    assert not topology.graph.has_edge("core-0", "agg-0-0")
    # All four events applied (and reported), no-ops included.
    assert [event.name for event in probes.events] == [LINK_UP, RESTORE, LINK_DOWN, LINK_DOWN]


def test_injector_rejects_unknown_links_at_construction() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    with pytest.raises(ValueError):
        FaultInjector(simulator, topology, (link_failure(0.1, "core-0", "nope"),))
    with pytest.raises(ValueError):
        # Both nodes exist but are not adjacent (two core switches).
        FaultInjector(simulator, topology, (link_failure(0.1, "core-0", "core-1"),))


# ---------------------------------------------------------------------------
# Interface-level semantics
# ---------------------------------------------------------------------------


def test_down_link_stalls_a_transfer_and_recovery_completes_it() -> None:
    # Healthy transfer completes quickly.
    harness = make_tcp_transfer(100_000)
    harness.run(until=5.0)
    assert harness.receiver.complete

    # Permanent failure mid-transfer: the transfer cannot finish.
    harness = make_tcp_transfer(100_000)
    iface_ab = harness.topology.sender.interfaces[0]
    iface_ba = harness.topology.receiver.interfaces[0]
    harness.simulator.schedule_at(0.002, iface_ab.set_up, False)
    harness.simulator.schedule_at(0.002, iface_ba.set_up, False)
    harness.run(until=5.0)
    assert not harness.receiver.complete
    assert iface_ab.fault_drops + iface_ab.queue.stats.dropped_packets > 0

    # Failure followed by recovery: retransmissions finish the job.
    harness = make_tcp_transfer(100_000)
    iface_ab = harness.topology.sender.interfaces[0]
    iface_ba = harness.topology.receiver.interfaces[0]
    for iface in (iface_ab, iface_ba):
        harness.simulator.schedule_at(0.002, iface.set_up, False)
        harness.simulator.schedule_at(0.300, iface.set_up, True)
    harness.run(until=10.0)
    assert harness.receiver.complete


def test_degraded_link_slows_a_transfer() -> None:
    fast = make_tcp_transfer(200_000)
    fast.run(until=10.0)
    assert fast.receiver.complete

    slow = make_tcp_transfer(200_000)
    for iface in (slow.topology.sender.interfaces[0], slow.topology.receiver.interfaces[0]):
        iface.set_rate(iface.rate_bps * 0.25)
    slow.run(until=10.0)
    assert slow.receiver.complete
    assert slow.receiver.completion_time > fast.receiver.completion_time

    with pytest.raises(ValueError):
        slow.topology.sender.interfaces[0].set_rate(0)


# ---------------------------------------------------------------------------
# Routing rebuild around failures
# ---------------------------------------------------------------------------


def test_link_down_removes_next_hops_and_link_up_restores_them() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    agg = topology.node("agg-0-0")
    core_index = agg.neighbor_to_interface["core-0"]
    remote_hosts = [host.address for host in topology.hosts if "host-0-" not in host.name]
    assert any(core_index in agg.forwarding_table.get(address, ()) for address in remote_hosts)

    probes = RecordingProbes()
    FaultInjector(
        simulator, topology, link_flap(0.01, 0.02, "core-0", "agg-0-0"), probes=probes
    ).arm()
    simulator.run(until=0.015)

    iface_ab, iface_ba = topology.interfaces_between("core-0", "agg-0-0")
    assert not iface_ab.up and not iface_ba.up
    assert not topology.graph.has_edge("core-0", "agg-0-0")
    # No forwarding entry anywhere may still point at the dead link.
    assert all(core_index not in agg.forwarding_table.get(address, ()) for address in remote_hosts)
    # Every destination must still be reachable from every switch (k=4 has
    # enough redundancy for any single link failure).
    for switch in topology.switches:
        for host in topology.hosts:
            assert switch.forwarding_table.get(host.address), (switch.name, host.name)

    simulator.run(until=0.03)
    assert iface_ab.up and iface_ba.up
    assert topology.graph.has_edge("core-0", "agg-0-0")
    assert any(core_index in agg.forwarding_table.get(address, ()) for address in remote_hosts)
    assert [event.name for event in probes.events] == [LINK_DOWN, LINK_UP]


def test_partial_rebuild_tolerates_a_partitioned_host() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    host = topology.hosts[0]
    # Cut the host's only access link: every switch loses its route to it,
    # but routes to all other hosts survive.
    topology.graph.remove_edge(host.name, "edge-0-0")
    topology.rebuild_routes()
    for switch in topology.switches:
        assert not switch.forwarding_table.get(host.address)
        for other in topology.hosts[1:]:
            assert switch.forwarding_table.get(other.address)


def test_restore_matches_degrade_with_swapped_endpoints() -> None:
    # Endpoint order is documented as irrelevant: a RESTORE naming the link
    # as (b, a) must undo a DEGRADE that named it (a, b).
    simulator = Simulator()
    topology = _fattree(simulator)
    iface_ab, iface_ba = topology.interfaces_between("core-0", "agg-0-0")
    original = iface_ab.rate_bps
    schedule = (
        FaultEvent(time_s=0.01, kind=DEGRADE, node_a="core-0", node_b="agg-0-0", factor=0.25),
        FaultEvent(time_s=0.02, kind="restore", node_a="agg-0-0", node_b="core-0"),
    )
    FaultInjector(simulator, topology, schedule).arm()
    simulator.run(until=0.03)
    assert iface_ab.rate_bps == pytest.approx(original)
    assert iface_ba.rate_bps == pytest.approx(original)


def test_degrade_and_restore_round_trip_rates() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    iface_ab, iface_ba = topology.interfaces_between("core-0", "agg-0-0")
    original = iface_ab.rate_bps
    injector = FaultInjector(
        simulator, topology, degradation(0.01, "core-0", "agg-0-0", 0.25, restore_s=0.02)
    )
    injector.arm()
    simulator.run(until=0.015)
    assert iface_ab.rate_bps == pytest.approx(original * 0.25)
    assert iface_ba.rate_bps == pytest.approx(original * 0.25)
    simulator.run(until=0.03)
    assert iface_ab.rate_bps == pytest.approx(original)
    assert iface_ba.rate_bps == pytest.approx(original)

# ---------------------------------------------------------------------------
# Loss accounting for fault drops
# ---------------------------------------------------------------------------


def test_fault_drops_are_counted_by_the_network_monitor() -> None:
    # Regression: packets dropped by a down interface bypass QueueStats, so
    # they used to vanish from every loss column the monitor produces.
    from repro.net.packet import FLAG_DATA, Packet

    simulator = Simulator()
    topology = _fattree(simulator)
    switch = topology.node("core-0")
    interface = switch.interfaces[0]
    interface.set_up(False)
    packet = Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2,
                    flags=FLAG_DATA, payload_size=1000)
    interface.send(packet)
    assert interface.fault_drops == 1
    assert interface.fault_drops_offered == 1
    assert interface.queue.stats.dropped_packets == 0  # the queue never saw it

    snapshot = network_snapshot(topology.hosts, topology.switches, 1.0)
    assert snapshot.total_fault_drops == 1
    assert snapshot.total_packets_dropped == 1
    core = snapshot.layer_loss["core"]
    assert core.fault_dropped_packets == 1
    # The only packet this layer ever saw was lost at a down interface.
    assert core.loss_rate == 1.0


def test_on_wire_fault_drop_is_a_loss_but_not_a_second_offer() -> None:
    # A packet cut down mid-serialisation already counted as offered when it
    # entered the queue; the loss rate must count it once in the numerator
    # and not inflate the denominator (10 offered / 1 lost is 1/10, not 1/11).
    from repro.net.packet import FLAG_DATA, Packet

    simulator = Simulator()
    topology = _fattree(simulator)
    switch = topology.node("core-0")
    interface = switch.interfaces[0]
    packet = Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2,
                    flags=FLAG_DATA, payload_size=1000)
    interface.send(packet)
    assert interface.queue.stats.offered_packets == 1  # serialising, not dropped
    assert interface.fault_drops == 0
    interface.set_up(False)
    simulator.run(until=1.0)  # serialisation completes while down: lost
    assert interface.fault_drops == 1
    assert interface.fault_drops_offered == 0

    core = network_snapshot(topology.hosts, topology.switches, 1.0).layer_loss["core"]
    assert core.offered_packets == 1
    assert core.fault_dropped_packets == 1
    assert core.loss_rate == 1.0


def test_link_failure_experiment_surfaces_fault_drops_in_metrics() -> None:
    # End-to-end: the canonical link-failure run loses at least one packet
    # that was on the wire when the cable was cut; metrics and the scenario
    # matrix table must report it instead of undercounting losses.
    from repro.analysis.report import scenario_matrix_markdown
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.traffic.flowspec import PROTOCOL_MMPTCP

    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=1,
        protocol=PROTOCOL_MMPTCP,
        num_subflows=4,
        arrival_window_s=0.1,
        drain_time_s=1.2,
        short_flow_rate_per_sender=4.0,
        long_flow_size_bytes=400_000,
        max_short_flows=6,
        initial_cwnd_segments=2,
        seed=7,
        fault_schedule=(link_failure(0.03, "core-0", "agg-0-0"),),
    )
    result = run_experiment(config)
    assert result.metrics.fault_drops > 0
    summary = result.metrics.summary_dict()
    assert summary["fault_drops"] == float(result.metrics.fault_drops)
    # Fault drops flow into the aggregate loss accounting too.
    assert result.metrics.network.total_packets_dropped >= result.metrics.fault_drops

    row = {
        "scenario": "linkfail", "protocol": "mmptcp", "completion_rate": 1.0,
        "mean_fct_ms": 1.0, "p99_fct_ms": 2.0, "retransmits": 3,
        "fault_drops": result.metrics.fault_drops, "long_tput_mbps": 10.0,
    }
    markdown = scenario_matrix_markdown([row], baseline_protocol="tcp")
    header, _, data_row = markdown.splitlines()
    assert "fault drops" in header
    column = header.split("|").index(" fault drops ")
    assert data_row.split("|")[column].strip() == str(result.metrics.fault_drops)
