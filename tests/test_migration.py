"""Endpoint migration: topology re-homing, port hygiene, and how the
transports ride out a live migration's blackout.

Covers the full stack of the migration subsystem:

* ``Topology.detach_host`` / ``attach_host`` primitives — attachment
  rebinding and route convergence;
* the ``migrate_host`` fault verb's detach, downtime and re-attach;
* ``Host.allocate_port`` wrap-around and exhaustion;
* the experiment-level stall single-path TCP takes across an
  address-preserving migration;
* determinism and store-key distinctness of the fault scenarios.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_points, study_rows
from repro.experiments.runner import run_experiment
from repro.net.faults import FaultInjector, host_migration
from repro.net.host import EPHEMERAL_PORT_MAX, EPHEMERAL_PORT_MIN
from repro.scenarios import cell_rows, get_scenario, matrix_plan, tiny_config
from repro.sim.engine import Simulator
from repro.store import run_key
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_TCP
from support import RecordingProbes, handover_config, handover_workload


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

    topology.detach_host("host-0-0-0", rebuild=False)
    topology.attach_host("host-0-0-0", "edge-0-1")

    assert not topology.graph.has_edge("host-0-0-0", "edge-0-0")
    assert topology.graph.has_edge("host-0-0-0", "edge-0-1")
    # The old interface stays in the table (indices are pinned) but is dead;
    # the new attachment appends a live one.
    assert len(host.interfaces) == 2
    assert not old_iface.up
    assert host.interfaces[1].up
    # Every switch still routes to the host — now via its new edge.
    for switch in topology.switches:
        assert switch.forwarding_table.get(host.address), switch.name
    edge = topology.node("edge-0-1")
    host_port = edge.neighbor_to_interface["host-0-0-0"]
    assert host_port in topology.node("edge-0-1").forwarding_table[host.address]


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
        assert not switch.forwarding_table.get(host.address)
    assert len(probes.named("migrate_host")) == 1
    assert not probes.named("host_attached")

    simulator.run(until=0.1)  # past re-attach at t=0.06
    assert topology.graph.has_edge("host-0-0-0", "edge-0-1")
    for switch in topology.switches:
        assert switch.forwarding_table.get(host.address)
    (attached,) = probes.named("host_attached")
    assert attached.time == pytest.approx(0.06)
    assert attached.data["attachment"] == "edge-0-1"
    # One schedule entry, one migration event — the downtime completion is
    # reported as the re-attach, not as a second migration.
    assert len(probes.named("migrate_host")) == 1


def test_zero_downtime_migration_converges_in_one_step() -> None:
    simulator = Simulator()
    topology = _fattree(simulator)
    probes = RecordingProbes()
    host = topology.node("host-0-0-0")
    address = host.address
    FaultInjector(
        simulator,
        topology,
        (host_migration(0.01, "host-0-0-0", "edge-1-1"),),
        probes=probes,
    ).arm()
    simulator.run(until=0.02)
    assert topology.graph.has_edge("host-0-0-0", "edge-1-1")
    assert host.address == address
    for switch in topology.switches:
        assert switch.forwarding_table.get(address), switch.name
    # The detach and attach trace back-to-back at the same instant.
    (migrate,) = probes.named("migrate_host")
    (attached,) = probes.named("host_attached")
    assert migrate.time == attached.time == pytest.approx(0.01)
    assert attached.data["address"] == address


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
        if port not in host._endpoints:
            host.bind(port, object())
    with pytest.raises(RuntimeError, match="exhausted the ephemeral port range"):
        host.allocate_port()


# ---------------------------------------------------------------------------
# Experiment-level acceptance: a blackout costs single-path TCP an RTO
# ---------------------------------------------------------------------------


def _handover_record(protocol: str, subflows: int, **fault_kwargs):
    result = run_experiment(
        handover_config(protocol, subflows, **fault_kwargs),
        workload=handover_workload(protocol, subflows),
    )
    return result.metrics.flows[0]


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

_MOBILITY_SCENARIOS = ("vm-migration", "rolling-drain")


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
