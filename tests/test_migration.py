"""Endpoint migration & mobility: topology re-homing, port hygiene, and the
MMPTCP-vs-TCP handover contrast.

Covers the full stack of the mobility subsystem:

* ``Topology.detach_host`` / ``attach_host`` / ``migrate_host`` primitives —
  attachment rebinding, stale-route cleanup, address-change chain squashing;
* ``Host.allocate_port`` wrap-around and exhaustion;
* transport-level subflow re-establishment through the address resolver;
* the experiment-level acceptance contrast: MMPTCP completes a transfer
  across a mid-flow re-addressing migration while single-path TCP stalls;
* determinism and store-key distinctness of the new mobility scenarios.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.experiments import run_points, study_rows
from repro.experiments.runner import run_experiment
from repro.net.faults import FaultInjector, host_migration
from repro.net.host import EPHEMERAL_PORT_MAX, EPHEMERAL_PORT_MIN
from repro.scenarios import cell_rows, get_scenario, matrix_plan, tiny_config
from repro.sim.engine import Simulator
from repro.store import run_key
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP
from repro.transport.base import TcpConfig
from repro.transport.mptcp import MptcpConnection, MptcpReceiver
from support import RecordingProbes, handover_config, handover_workload

#: Out-of-band address used for re-addressing tests: encoded well above any
#: FatTree host address, so it can never collide with a real host.
_NEW_ADDRESS = (1 << 28) + 7


def _fattree(simulator: Simulator, hosts_per_edge: int = 1) -> FatTreeTopology:
    return FatTreeTopology(
        simulator, FatTreeParams(k=4, hosts_per_edge=hosts_per_edge)
    )


# ---------------------------------------------------------------------------
# Topology primitives
# ---------------------------------------------------------------------------


def test_migrate_host_rebinds_attachment_and_routes() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    host = topology.node("host-0-0-0")
    old_iface = host.interfaces[0]

    topology.migrate_host("host-0-0-0", "edge-0-1")

    assert not topology.graph.has_edge("host-0-0-0", "edge-0-0")
    assert topology.graph.has_edge("host-0-0-0", "edge-0-1")
    # The old interface stays in the table (indices are pinned) but is dead;
    # the new attachment appends a live one.
    assert len(host.interfaces) == 2
    assert not old_iface.up
    assert host.interfaces[1].up
    # Every switch still routes to the host — now via its new edge.
    for switch in topology.switches:
        assert switch.routes_to(host.address), switch.name
    edge = topology.node("edge-0-1")
    host_port = edge.neighbor_to_interface["host-0-0-0"]
    assert host_port in topology.node("edge-0-1").routes_to(host.address)


def test_migrate_host_with_new_address_cleans_stale_routes() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    host = topology.node("host-0-0-0")
    old_address = host.address

    topology.migrate_host("host-0-0-0", "edge-1-0", new_address=_NEW_ADDRESS)

    assert host.address == _NEW_ADDRESS
    assert topology.host_by_address(_NEW_ADDRESS) is host
    with pytest.raises(KeyError):
        topology.host_by_address(old_address)
    # Regression: rebuild_routes only *writes* entries for current addresses;
    # entries for the old address must have been removed explicitly, or
    # in-flight packets would keep forwarding towards the old attachment.
    for switch in topology.switches:
        assert not switch.routes_to(old_address), switch.name
        assert switch.routes_to(_NEW_ADDRESS), switch.name
    assert topology.current_address_of(old_address) == _NEW_ADDRESS
    # Unmigrated addresses resolve to themselves.
    other = topology.node("host-1-0-0")
    assert topology.current_address_of(other.address) == other.address


def test_address_change_chain_squashes_and_migrating_back_unwinds() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    host = topology.node("host-0-0-0")
    original = host.address
    second = _NEW_ADDRESS
    third = _NEW_ADDRESS + 1

    topology.migrate_host("host-0-0-0", "edge-0-1", new_address=second)
    topology.migrate_host("host-0-0-0", "edge-1-0", new_address=third)
    # Both historical addresses resolve straight to the current one (no
    # chain walking at lookup time).
    assert topology.current_address_of(original) == third
    assert topology.current_address_of(second) == third

    # Migrating back to the original address must not leave a resolution
    # cycle: the original resolves to itself again.
    topology.migrate_host("host-0-0-0", "edge-0-0", new_address=original)
    assert topology.current_address_of(original) == original
    assert topology.current_address_of(second) == original
    assert topology.current_address_of(third) == original


def test_readdress_to_another_hosts_address_is_rejected() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    other = topology.node("host-1-0-0")
    with pytest.raises(ValueError, match="already owned"):
        topology.migrate_host("host-0-0-0", "edge-0-1", new_address=other.address)


def test_detach_is_idempotent_and_attach_validates_node_kinds() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    topology.detach_host("host-0-0-0")
    topology.detach_host("host-0-0-0")  # second detach: nothing left to cut
    assert not topology.graph.has_edge("host-0-0-0", "edge-0-0")
    with pytest.raises(ValueError):
        topology.attach_host("host-0-0-0", "host-1-0-0")  # not a switch
    with pytest.raises(ValueError):
        topology.attach_host("edge-0-0", "edge-0-1")  # not a host


# ---------------------------------------------------------------------------
# The migrate_host fault verb
# ---------------------------------------------------------------------------


def test_migration_fault_detaches_waits_out_downtime_then_reattaches() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    probes = RecordingProbes()
    injector = FaultInjector(
        simulator,
        topology,
        (host_migration(0.01, "host-0-0-0", "edge-0-1", downtime_s=0.05),),
        probes=probes,
    )
    injector.arm()

    simulator.run(until=0.03)  # mid-blackout
    assert not topology.graph.has_edge("host-0-0-0", "edge-0-0")
    assert not topology.graph.has_edge("host-0-0-0", "edge-0-1")
    host = topology.node("host-0-0-0")
    for switch in topology.switches:
        assert not switch.routes_to(host.address)
    assert len(probes.named("migrate_host")) == 1
    assert not probes.named("host_attached")

    simulator.run(until=0.1)  # past re-attach at t=0.06
    assert topology.graph.has_edge("host-0-0-0", "edge-0-1")
    for switch in topology.switches:
        assert switch.routes_to(host.address)
    (attached,) = probes.named("host_attached")
    assert attached.time == pytest.approx(0.06)
    assert attached.data["attachment"] == "edge-0-1"
    # One schedule entry, one applied event — the downtime completion is
    # part of the same migration, not a second event.
    assert injector.applied_events == 1


def test_zero_downtime_migration_converges_in_one_step() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    probes = RecordingProbes()
    FaultInjector(
        simulator,
        topology,
        (host_migration(0.01, "host-0-0-0", "edge-1-1", new_address=_NEW_ADDRESS),),
        probes=probes,
    ).arm()
    simulator.run(until=0.02)
    assert topology.graph.has_edge("host-0-0-0", "edge-1-1")
    assert topology.node("host-0-0-0").address == _NEW_ADDRESS
    # The detach and attach trace back-to-back at the same instant.
    (migrate,) = probes.named("migrate_host")
    (attached,) = probes.named("host_attached")
    assert migrate.time == attached.time == pytest.approx(0.01)
    assert attached.data["address"] == _NEW_ADDRESS


# ---------------------------------------------------------------------------
# Host satellites: ephemeral ports and pinned egress
# ---------------------------------------------------------------------------


def test_allocate_port_wraps_at_the_top_of_the_ephemeral_range() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    host = topology.node("host-0-0-0")
    host._next_ephemeral_port = EPHEMERAL_PORT_MAX
    assert host.allocate_port() == EPHEMERAL_PORT_MAX
    # Regression: the counter used to run straight past 65535 and hand out
    # port numbers no packet header could carry.
    assert host.allocate_port() == EPHEMERAL_PORT_MIN


def test_allocate_port_skips_bound_ports_and_raises_on_exhaustion() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    host = topology.node("host-0-0-0")
    host.bind(EPHEMERAL_PORT_MIN, object())
    host._next_ephemeral_port = EPHEMERAL_PORT_MAX
    assert host.allocate_port() == EPHEMERAL_PORT_MAX
    # 49152 is bound, so the wrap lands on 49153.
    assert host.allocate_port() == EPHEMERAL_PORT_MIN + 1

    for port in range(EPHEMERAL_PORT_MIN, EPHEMERAL_PORT_MAX + 1):
        if host.endpoint_for(port) is None:
            host.bind(port, object())
    with pytest.raises(RuntimeError, match="exhausted the ephemeral port range"):
        host.allocate_port()


# ---------------------------------------------------------------------------
# Transport: subflow re-establishment across a re-addressing migration
# ---------------------------------------------------------------------------


def test_mptcp_reestablishes_subflows_to_the_peers_new_address() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    source = topology.node("host-1-0-0")
    destination = topology.node("host-0-0-0")
    size = 400_000
    receiver = MptcpReceiver(
        simulator, destination, local_port=5001, flow_id=1, expected_bytes=size
    )
    connection = MptcpConnection(
        simulator, source, destination.address, 5001, size,
        num_subflows=2, flow_id=1, config=TcpConfig(mss=1000, initial_cwnd_segments=2),
        address_resolver=topology.current_address_of,
    )
    original_ids = {subflow.subflow_id for subflow in connection.subflows}
    simulator.schedule_at(
        0.02,
        partial(
            topology.migrate_host, "host-0-0-0", "edge-1-0", new_address=_NEW_ADDRESS
        ),
    )
    connection.start()
    simulator.run(until=3.0)

    assert receiver.complete
    assert connection.complete
    assert connection.destination == _NEW_ADDRESS
    # The break was detected exactly once: one re-homing opened one fresh
    # set of subflows (new ids) towards the new address and killed the
    # originals.
    by_id = {subflow.subflow_id: subflow for subflow in connection.subflows}
    new_ids = set(by_id) - original_ids
    assert len(new_ids) == connection.num_subflows
    assert all(by_id[i].destination == _NEW_ADDRESS for i in new_ids)
    assert all(by_id[i].complete for i in original_ids)
    assert any(by_id[i].established for i in new_ids)


# ---------------------------------------------------------------------------
# Experiment-level acceptance: the handover contrast the paper predicts
# ---------------------------------------------------------------------------


def _handover_record(protocol: str, subflows: int, **fault_kwargs):
    result = run_experiment(
        handover_config(protocol, subflows, **fault_kwargs),
        workload=handover_workload(protocol, subflows),
    )
    return result.metrics.flows[0]


def _check_reinjection_sets(monkeypatch) -> list:
    """Check each readdressing's reinjection queue against recorded allocation.

    Every chunk ``allocate_chunk`` hands out is recorded per connection.
    When the peer is readdressed, the queue must hold exactly the recorded
    chunks the data level has not acknowledged, sorted by DSN.  Subflows
    forget acknowledged segments, so this pins that they never forget one a
    reinjection still needs.  Returns the list of checked queue lengths.
    """
    chunks: dict = {}
    checked: list = []
    allocate = MptcpConnection.allocate_chunk
    readdress = MptcpConnection._on_peer_readdressed

    def recording(connection, subflow):
        chunk = allocate(connection, subflow)
        if chunk is not None:
            chunks.setdefault(connection, []).append(chunk)
        return chunk

    def checking(connection, new_address):
        pending: dict = {}
        for dsn, size in chunks.get(connection, ()):
            if dsn + size > connection.data_acked:
                pending[dsn] = max(pending.get(dsn, 0), size)
        readdress(connection, new_address)
        assert list(connection._reinjection_queue) == sorted(pending.items())
        checked.append(len(pending))

    monkeypatch.setattr(MptcpConnection, "allocate_chunk", recording)
    monkeypatch.setattr(MptcpConnection, "_on_peer_readdressed", checking)
    return checked


def test_mmptcp_completes_across_readdressing_migration_while_tcp_black_holes(
    monkeypatch,
) -> None:
    kwargs = dict(downtime_s=0.01, new_address=_NEW_ADDRESS)
    tcp = _handover_record(PROTOCOL_TCP, 1, **kwargs)
    reinjected = _check_reinjection_sets(monkeypatch)
    mmptcp = _handover_record(PROTOCOL_MMPTCP, 4, **kwargs)
    mptcp = _handover_record(PROTOCOL_MPTCP, 4, **kwargs)
    # One readdressing per multipath run, each stranding unacknowledged data.
    assert len(reinjected) == 2 and all(reinjected), reinjected

    # Single-path TCP keeps retransmitting towards the dead address: at
    # least one RTO-scale stall, and the transfer never finishes.
    assert not tcp.completed
    assert tcp.rto_events >= 1
    # The multipath transports resolve the new address and re-establish.
    assert mmptcp.completed
    assert mptcp.completed
    assert mmptcp.bytes_received == mptcp.bytes_received == 500_000


def test_address_preserving_migration_costs_tcp_an_rto_scale_stall() -> None:
    # The blackout outlasts the 200 ms min RTO, so fast retransmit cannot
    # hide it: the sender has to sit through at least one full timeout.
    kwargs = dict(downtime_s=0.25)
    tcp = _handover_record(PROTOCOL_TCP, 1, **kwargs)
    mmptcp = _handover_record(PROTOCOL_MMPTCP, 4, **kwargs)
    # With its address preserved the host comes back routable, so TCP does
    # eventually recover — but only after riding out at least one RTO.
    assert tcp.completed
    assert tcp.rto_events >= 1
    assert mmptcp.completed


# ---------------------------------------------------------------------------
# Scenario determinism and store keys
# ---------------------------------------------------------------------------

_MOBILITY_SCENARIOS = ("vm-migration", "vip-failover", "rolling-drain")


def _mobility_base_config():
    return tiny_config(
        hosts_per_edge=1,
        arrival_window_s=0.05,
        drain_time_s=0.8,
        max_short_flows=4,
        long_flow_size_bytes=300_000,
    )


def test_mobility_matrix_parallel_run_matches_serial_byte_for_byte() -> None:
    protocols = (PROTOCOL_TCP, PROTOCOL_MMPTCP)
    plan = matrix_plan(_mobility_base_config(), _MOBILITY_SCENARIOS, protocols)
    serial = study_rows(run_points(plan, cell_rows, workers=1))
    parallel = study_rows(run_points(plan, cell_rows, workers=2))
    assert serial == parallel
    # Every cell of the mobility matrix must actually finish its flows.
    for row in serial:
        assert row["completion_rate"] == 1.0, row


def test_mobility_scenarios_derive_distinct_store_keys() -> None:
    base = tiny_config()
    keys = {"<baseline>": run_key(base)}
    for name in _MOBILITY_SCENARIOS:
        keys[name] = run_key(get_scenario(name).apply_to(base))
    assert len(set(keys.values())) == len(keys), keys
