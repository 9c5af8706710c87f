"""Property-based tests (hypothesis) for fault-aware routing and forwarding.

Two invariants the fault-injection subsystem must uphold:

1. A switch never forwards a packet out of a down interface, no matter which
   subset of its links has failed — even *before* any routing rebuild has
   run (the forwarding-time live re-hash is the last line of defence).
2. On a k=4 FatTree, every flow of a small MMPTCP workload completes under
   any single-link failure schedule on the switching fabric (failures of
   host access links can legitimately partition a host, so the property is
   over switch↔switch links — exactly the links ECMP balances over).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.net.faults import DEGRADE, LINK_DOWN, LINK_UP, RESTORE, FaultEvent, FaultInjector
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from repro.traffic.flowspec import PROTOCOL_MMPTCP
from support import RecordingProbes, switch_link_names

# ---------------------------------------------------------------------------
# Shared k=4 fabric for the forwarding property (building one per example
# would dominate the test's runtime).  Its simulator never runs, so what a
# switch forwards stays in its output queues' counters.
# ---------------------------------------------------------------------------

_TOPOLOGY = FatTreeTopology(Simulator(), FatTreeParams(k=4, hosts_per_edge=1))
_SWITCH_LINKS = switch_link_names(_TOPOLOGY)
_HOST_ADDRESSES = [host.address for host in _TOPOLOGY.hosts]


def _offers(switch) -> list:
    """Per output interface: packets its queue was offered, and offers a down
    interface rejected — together, every packet the switch sent that way."""
    return [
        (interface.queue.stats.offered_packets, interface.fault_drops_offered)
        for interface in switch.interfaces
    ]


def _forward(switch, packet: Packet) -> list:
    """Push ``packet`` through ``switch.receive``; the interfaces it went out of."""
    before = _offers(switch)
    switch.receive(packet, None)
    return [
        interface
        for interface, old, new in zip(switch.interfaces, before, _offers(switch))
        if old != new
    ]


def _set_links(links, up: bool) -> None:
    for name_a, name_b in links:
        iface_ab, iface_ba = _TOPOLOGY.interfaces_between(name_a, name_b)
        iface_ab.set_up(up)
        iface_ba.set_up(up)


@given(
    failed=st.lists(st.sampled_from(_SWITCH_LINKS), max_size=8, unique=True),
    src=st.sampled_from(_HOST_ADDRESSES),
    dst=st.sampled_from(_HOST_ADDRESSES),
    src_port=st.integers(1, 2**16 - 1),
    dst_port=st.integers(1, 2**16 - 1),
)
@settings(max_examples=120, deadline=None)
def test_ecmp_never_selects_a_failed_link(failed, src, dst, src_port, dst_port) -> None:
    try:
        _set_links(failed, up=False)
        for switch in _TOPOLOGY.switches:
            packet = Packet(flow_id=1, src=src, dst=dst, src_port=src_port, dst_port=dst_port)
            outputs = _forward(switch, packet)
            assert all(interface.up for interface in outputs), (
                f"{switch.name} forwarded out of down interface {outputs[0].name} "
                f"with failed links {failed}"
            )
            next_hops = switch.forwarding_table.get(dst, ())
            if any(switch.interfaces[index].up for index in next_hops):
                assert len(outputs) == 1, (switch.name, failed)
            else:
                assert outputs == [], (switch.name, failed)
    finally:
        _set_links(failed, up=True)


@given(
    src=st.sampled_from(_HOST_ADDRESSES),
    dst=st.sampled_from(_HOST_ADDRESSES),
    src_port=st.integers(1, 2**16 - 1),
)
@settings(max_examples=60, deadline=None)
def test_healthy_fabric_always_has_an_output(src, dst, src_port) -> None:
    # Sanity complement: with nothing failed, every switch can forward
    # towards every host.
    for switch in _TOPOLOGY.switches:
        packet = Packet(flow_id=1, src=src, dst=dst, src_port=src_port, dst_port=4242)
        assert len(_forward(switch, packet)) == 1, switch.name


# ---------------------------------------------------------------------------
# End-to-end: flow completion survives any single fabric-link failure.
# ---------------------------------------------------------------------------


def _tiny_mmptcp_config(schedule) -> ExperimentConfig:
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=1,
        protocol=PROTOCOL_MMPTCP,
        num_subflows=4,
        arrival_window_s=0.05,
        drain_time_s=1.4,
        short_flow_rate_per_sender=4.0,
        long_flow_size_bytes=300_000,
        max_short_flows=4,
        initial_cwnd_segments=2,
        seed=11,
        fault_schedule=schedule,
    )


@given(
    link=st.sampled_from(_SWITCH_LINKS),
    down_time=st.floats(min_value=0.0, max_value=0.15, allow_nan=False),
    recovery_delay=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.3)),
)
@settings(max_examples=8, deadline=None)
def test_flows_complete_under_any_single_link_failure(link, down_time, recovery_delay) -> None:
    name_a, name_b = link
    schedule = [FaultEvent(time_s=down_time, kind=LINK_DOWN, node_a=name_a, node_b=name_b)]
    if recovery_delay is not None:
        schedule.append(
            FaultEvent(
                time_s=down_time + recovery_delay, kind=LINK_UP, node_a=name_a, node_b=name_b
            )
        )
    result = run_experiment(_tiny_mmptcp_config(tuple(schedule)))
    incomplete = [
        record.flow_id for record in result.metrics.flows if not record.completed
    ]
    assert not incomplete, (
        f"flows {incomplete} did not complete with {link} down at {down_time}"
        f" (recovery={recovery_delay})"
    )

# ---------------------------------------------------------------------------
# Idempotent application: any random schedule of the four link verbs leaves
# the link in the state a naive last-writer-wins model predicts.
# ---------------------------------------------------------------------------


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([LINK_DOWN, LINK_UP, DEGRADE, RESTORE]),
            st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
        ),
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_random_link_schedules_apply_idempotently(steps) -> None:
    """Redundant events (up on up, orphan restore, down on down) are no-ops.

    The injector's final link state must match a trivial reference model —
    so ``link_up`` on an up link cannot, e.g., re-add a graph edge that was
    never removed, and ``restore`` without a ``degrade`` cannot perturb the
    rate.  Every scheduled event is still reported to the probes.
    """
    simulator = Simulator()
    topology = FatTreeTopology(simulator, FatTreeParams(k=4, hosts_per_edge=1))
    iface_ab, iface_ba = topology.interfaces_between("core-0", "agg-0-0")
    original = iface_ab.rate_bps

    schedule = tuple(
        FaultEvent(
            time_s=0.01 * (index + 1),
            kind=kind,
            node_a="core-0",
            node_b="agg-0-0",
            factor=factor if kind == DEGRADE else 1.0,
        )
        for index, (kind, factor) in enumerate(steps)
    )
    probes = RecordingProbes()
    FaultInjector(simulator, topology, schedule, probes=probes).arm()
    simulator.run(until=0.01 * (len(steps) + 1))

    # Reference model: last up/down verb wins; degrade always scales from
    # the original rate; restore clears any degradation.
    expected_up = True
    degraded_factor = None
    for kind, factor in steps:
        if kind == LINK_DOWN:
            expected_up = False
        elif kind == LINK_UP:
            expected_up = True
        elif kind == DEGRADE:
            degraded_factor = factor
        else:
            degraded_factor = None
    expected_rate = original * (degraded_factor if degraded_factor is not None else 1.0)

    assert iface_ab.up == expected_up and iface_ba.up == expected_up
    assert topology.graph.has_edge("core-0", "agg-0-0") == expected_up
    assert iface_ab.rate_bps == pytest.approx(expected_rate)
    assert iface_ba.rate_bps == pytest.approx(expected_rate)
    assert [event.name for event in probes.events] == [kind for kind, _ in steps]
