"""Shared helpers for the test suite.

These used to live in ``tests/conftest.py``, but importing them as
``from conftest import ...`` is fragile: any other ``conftest.py`` on
``sys.path`` can win the bare ``conftest`` module name and shadow the
helpers.  Tests import this module instead;
``tests/conftest.py`` only defines fixtures.

Run as a script it is also the memory-sizing tool::

    python tests/support.py memory --scale quick --protocol mptcp --subflows 8

which prints one run's peak RSS, its ``tracemalloc`` peak and the top
allocation sites at the highest traced sample (``--help`` lists the rest).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib
import math
import pkgutil
import resource
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

if __name__ == "__main__":  # pragma: no cover - command-line entry point
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaigns.spec import CampaignSpec
from repro.experiments.config import ExperimentConfig
from repro.net.faults import host_migration, link_failure
from repro.net.host import Host
from repro.net.link import QueueFactory, connect
from repro.net.packet import FLAG_DATA, Packet
from repro.net.queues import DropTailQueue
from repro.net.switch import LAYER_CORE, LAYER_EDGE
from repro.obs.telemetry import TelemetryProbes
from repro.sim.engine import Simulator
from repro.sim.units import megabits_per_second, microseconds
from repro.topology.base import Topology
from repro.traffic.flowspec import PROTOCOL_MMPTCP, FlowSpec
from repro.traffic.workloads import Workload
from repro.transport.base import TcpConfig
from repro.transport.receiver import TcpReceiver
from repro.transport.sequence import SegmentMap
from repro.transport.tcp import TcpSender

#: A fast-but-realistic config used across transport tests: small initial
#: window so window growth is observable, conventional 200 ms min RTO.
TEST_TCP_CONFIG = TcpConfig(mss=1000, initial_cwnd_segments=2)


class TraceEvent(NamedTuple):
    """One ``observe_trace`` call as :class:`RecordingProbes` keeps it."""

    time: float
    name: str
    data: Dict[str, Any]


class RecordingProbes(TelemetryProbes):
    """Enabled probes that keep every ``observe_trace`` call, in order.

    The other hooks stay no-ops, so attaching this fake turns every probe
    site on without recording anything but the network and fault events.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def observe_trace(self, time_s: float, name: str, **data: Any) -> None:
        self.events.append(TraceEvent(time_s, name, data))

    def named(self, name: str) -> List[TraceEvent]:
        """The recorded events called ``name``, in order."""
        return [event for event in self.events if event.name == name]


# ---------------------------------------------------------------------------
# Small topologies
# ---------------------------------------------------------------------------
#
# Not the paper's fabrics: each one has a single bottleneck (or a known set
# of paths) whose capacity and buffering are exact, so transport behaviour
# (window growth, fast retransmit, RTO, MPTCP coupling) can be asserted on
# in isolation.


class TwoHostTopology(Topology):
    """Two hosts joined by a single switch — the smallest routable network."""

    def __init__(
        self,
        simulator: Simulator,
        link_rate_bps: float = megabits_per_second(100),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        switch = self.add_switch("switch-0", LAYER_EDGE)
        self.sender = self.add_host("host-a", 0)
        self.receiver = self.add_host("host-b", 1)
        self.connect_nodes(self.sender, switch, link_rate_bps, link_delay_s, queue_factory)
        self.connect_nodes(self.receiver, switch, link_rate_bps, link_delay_s, queue_factory)
        self.build_routes()


class DumbbellTopology(Topology):
    """``pairs`` senders and receivers sharing one bottleneck link.

    The bottleneck runs between the two switches; access links are faster so
    that congestion happens exactly where expected.
    """

    def __init__(
        self,
        simulator: Simulator,
        pairs: int = 2,
        bottleneck_rate_bps: float = megabits_per_second(100),
        access_rate_bps: float = megabits_per_second(1000),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if pairs < 1:
            raise ValueError("a dumbbell needs at least one sender/receiver pair")
        left_switch = self.add_switch("switch-left", LAYER_EDGE)
        right_switch = self.add_switch("switch-right", LAYER_EDGE)
        self.connect_nodes(
            left_switch, right_switch, bottleneck_rate_bps, link_delay_s, queue_factory
        )
        self.senders = []
        self.receivers = []
        for index in range(pairs):
            sender = self.add_host(f"sender-{index}", index)
            receiver = self.add_host(f"receiver-{index}", 1000 + index)
            self.connect_nodes(sender, left_switch, access_rate_bps, link_delay_s, queue_factory)
            self.connect_nodes(
                receiver, right_switch, access_rate_bps, link_delay_s, queue_factory
            )
            self.senders.append(sender)
            self.receivers.append(receiver)
        self.build_routes()


class IncastTopology(Topology):
    """``fan_in`` senders and one receiver on a single switch.

    The receiver's downlink is the incast bottleneck; its queue overflows when
    enough synchronised senders fire at once, which is the TCP-incast pattern
    the paper's introduction describes.
    """

    def __init__(
        self,
        simulator: Simulator,
        fan_in: int = 8,
        link_rate_bps: float = megabits_per_second(100),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if fan_in < 1:
            raise ValueError("an incast topology needs at least one sender")
        switch = self.add_switch("switch-0", LAYER_EDGE)
        self.receiver = self.add_host("receiver", 0)
        self.connect_nodes(self.receiver, switch, link_rate_bps, link_delay_s, queue_factory)
        self.senders = []
        for index in range(fan_in):
            sender = self.add_host(f"sender-{index}", index + 1)
            self.connect_nodes(sender, switch, link_rate_bps, link_delay_s, queue_factory)
            self.senders.append(sender)
        self.build_routes()


class TwoPathTopology(Topology):
    """Two hosts connected through ``paths`` disjoint switch paths.

    The smallest topology on which ECMP path diversity, packet scatter and
    MPTCP sub-flow spreading are observable.
    """

    def __init__(
        self,
        simulator: Simulator,
        paths: int = 2,
        link_rate_bps: float = megabits_per_second(100),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if paths < 1:
            raise ValueError("need at least one path")
        self.sender = self.add_host("host-a", 0)
        self.receiver = self.add_host("host-b", 1)
        ingress = self.add_switch("ingress", LAYER_EDGE)
        egress = self.add_switch("egress", LAYER_EDGE)
        self.connect_nodes(self.sender, ingress, link_rate_bps, link_delay_s, queue_factory)
        self.connect_nodes(self.receiver, egress, link_rate_bps, link_delay_s, queue_factory)
        self.core_switches = []
        for index in range(paths):
            core = self.add_switch(f"path-{index}", LAYER_CORE)
            self.connect_nodes(ingress, core, link_rate_bps, link_delay_s, queue_factory)
            self.connect_nodes(core, egress, link_rate_bps, link_delay_s, queue_factory)
            self.core_switches.append(core)
        self.build_routes()


def verify_all_pairs_routable(topology: Topology) -> bool:
    """True when every switch of ``topology`` has a route to every host."""
    return all(
        switch.forwarding_table.get(host.address)
        for switch in topology.switches
        for host in topology.hosts
    )


def switch_link_names(topology: Topology) -> List[Tuple[str, str]]:
    """Every switch-to-switch link of ``topology`` as a sorted name pair."""
    switch_names = {switch.name for switch in topology.switches}
    return sorted(
        tuple(sorted((a, b)))
        for a, b in topology.graph.edges()
        if a in switch_names and b in switch_names
    )


def serialisation_delay(size_bytes: int, rate_bps: float) -> float:
    """Seconds an idle interface at ``rate_bps`` spends sending ``size_bytes``."""
    simulator = Simulator()
    a, b = Host(simulator, "a", 1), Host(simulator, "b", 2)
    interface, _ = connect(simulator, a, b, rate_bps=rate_bps, delay_s=0.0)
    interface.send(Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2,
                          payload_size=size_bytes, header_size=0))
    return interface.busy_time


def campaign_document(spec: CampaignSpec) -> Dict[str, Any]:
    """The JSON document ``CampaignSpec.from_dict`` reads back as ``spec``."""
    return {
        "name": spec.name,
        "scenarios": list(spec.scenarios),
        "protocols": list(spec.protocols),
        "replications": spec.replications,
        "scale": spec.scale,
        "seed": spec.seed,
        "sweeps": {name: list(values) for name, values in spec.sweeps},
        "config_overrides": dict(spec.config_overrides),
    }


def golden_link_failure_config() -> ExperimentConfig:
    """The link-failure golden run: core-0 <-> agg-0-0 fails at t=30 ms."""
    return ExperimentConfig(
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


def golden_migration_config() -> ExperimentConfig:
    """The migration golden run: host-0-0-0 moves to edge-0-1 mid-workload."""
    # A live migration of host-0-0-0 mid-workload: detach at t=40 ms, 60 ms
    # blackout, re-attach at edge-0-1 under the same address.  Pins the
    # mobility verbs' event sequencing (migrate_host → host_attached), the
    # route churn around the move, and the transports' recovery behaviour.
    return ExperimentConfig(
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
        fault_schedule=(
            host_migration(0.04, "host-0-0-0", "edge-0-1", downtime_s=0.06),
        ),
    )


def handover_config(protocol: str, subflows: int, **fault_kwargs) -> ExperimentConfig:
    """A 100 Mbps fabric where host-0-0-0 moves to edge-0-1 at t=20 ms.

    ``fault_kwargs`` go to :func:`host_migration`.
    """
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        link_delay_s=microseconds(20),
        protocol=protocol,
        num_subflows=subflows,
        arrival_window_s=0.05,
        drain_time_s=1.2,
        seed=7,
        fault_schedule=(
            host_migration(0.02, "host-0-0-0", "edge-0-1", **fault_kwargs),
        ),
    )


def handover_workload(protocol: str, subflows: int) -> Workload:
    """One 500 KB flow towards the host :func:`handover_config` moves."""
    return Workload(flows=[
        FlowSpec(flow_id=1, source="host-1-0-0", destination="host-0-0-0",
                 size_bytes=500_000, start_time=0.0, protocol=protocol,
                 num_subflows=subflows)
    ])


def canonical_event_line(event: TraceEvent) -> str:
    """One deterministic text line for ``event``.

    Floats are rendered with ``repr`` (shortest round-trip form — stable
    across platforms and Python versions since 3.1) and data keys are
    sorted, so the same event always produces the same bytes.
    """
    parts = [repr(event.time), event.name]
    parts.extend(f"{key}={event.data[key]!r}" for key in sorted(event.data))
    return " ".join(parts)


def canonical_trace(events: Iterable[TraceEvent]) -> str:
    """The whole event sequence as one canonical text blob.

    Golden-trace tests record this for a reference run and assert
    byte-for-byte equality after refactors: any change to event timing,
    ordering, naming or payload shows up as a diff rather than as a silent
    behaviour drift.
    """
    return "".join(canonical_event_line(event) + "\n" for event in events)


@dataclass
class TcpTransferHarness:
    """A single TCP transfer over a two-host topology, ready to run."""

    simulator: Simulator
    topology: TwoHostTopology
    sender: TcpSender
    receiver: TcpReceiver

    def run(self, until: float = 10.0) -> None:
        """Start the transfer and run the event loop."""
        self.sender.start()
        self.simulator.run(until=until)


def make_tcp_transfer(
    size_bytes: int,
    link_rate_bps: float = megabits_per_second(100),
    link_delay_s: float = microseconds(50),
    queue_capacity_packets: int = 100,
    config: Optional[TcpConfig] = None,
) -> TcpTransferHarness:
    """Build a sender/receiver pair on a dedicated two-host topology."""
    simulator = Simulator()
    topology = TwoHostTopology(
        simulator,
        link_rate_bps=link_rate_bps,
        link_delay_s=link_delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_capacity_packets),
    )
    tcp_config = config if config is not None else TEST_TCP_CONFIG
    receiver = TcpReceiver(
        simulator, topology.receiver, local_port=5001, flow_id=1, expected_bytes=size_bytes
    )
    sender = TcpSender(
        simulator,
        topology.sender,
        destination=topology.receiver.address,
        destination_port=5001,
        total_bytes=size_bytes,
        flow_id=1,
        config=tcp_config,
    )
    return TcpTransferHarness(simulator, topology, sender, receiver)


#: The RTO-rewind script: a 10-segment window over a 40,000-byte transfer
#: whose seq 5000 is dropped twice (see :func:`rto_rewind_topology`).  The
#: first drop costs a fast retransmit, the second an RTO at ~0.2009 s that
#: rewinds ``snd_nxt`` to 5000; the cumulative ACK for the retransmission
#: then jumps ``snd_una`` to 15000 and leaves ``snd_nxt`` behind it.
RTO_REWIND_CONFIG = TcpConfig(
    mss=1000, initial_cwnd_segments=10, min_rto=0.2,
    max_cwnd_bytes=10_000,
)
RTO_REWIND_BYTES = 40_000


class DropSegmentQueue(DropTailQueue):
    """A drop-tail queue that also drops the first ``times`` sends of ``seq``."""

    def __init__(self, seq: int, times: int = 2) -> None:
        super().__init__()
        self.seq = seq
        self.remaining = times

    def _lose(self, packet: Packet) -> bool:
        if self.remaining and packet.flags & FLAG_DATA and packet.seq == self.seq:
            self.remaining -= 1
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            return True
        return False

    def enqueue(self, packet: Packet) -> bool:
        return not self._lose(packet) and super().enqueue(packet)

    def transit(self, packet: Packet) -> bool:
        return not self._lose(packet) and super().transit(packet)


def rto_rewind_topology(simulator: Simulator) -> TwoHostTopology:
    """A default two-host topology whose sender uplink drops seq 5000 twice."""
    topology = TwoHostTopology(simulator)
    topology.sender.interfaces[0].queue = DropSegmentQueue(5000)
    return topology


def forwarded_packets(switch) -> int:
    """Packets ``switch`` offered to its output queues (accepted or dropped)."""
    return sum(interface.queue.stats.offered_packets for interface in switch.interfaces)


def record_allocations(connection, chunks: List[Tuple[int, int, int]]) -> None:
    """Append each chunk ``connection.allocate_chunk`` hands out to ``chunks``.

    Entries are ``(subflow_id, dsn, size)`` in allocation order.  A subflow's
    segment map forgets segments once both levels have acknowledged them,
    so it is no allocation history; tests observe allocation here instead.
    """
    allocate = connection.allocate_chunk

    def recording(subflow):
        chunk = allocate(subflow)
        if chunk is not None:
            chunks.append((subflow.subflow_id, *chunk))
        return chunk

    connection.allocate_chunk = recording


# ---------------------------------------------------------------------------
# Max-min oracle
# ---------------------------------------------------------------------------

Key = TypeVar("Key")

#: Copied, like the function below, so that the oracle shares no code with
#: the solver it checks.
_REFERENCE_SATURATION_EPSILON = 1e-9


def reference_max_min_rates(
    capacities: Mapping[str, float],
    paths: Mapping[Key, Sequence[str]],
    weights: Optional[Mapping[Key, float]] = None,
) -> Dict[Key, float]:
    """The from-scratch progressive-filling solve, kept as a test oracle.

    This is the body ``repro.sim.fluid.max_min_rates`` had before the
    stateful :class:`~repro.sim.fluid.MaxMinSolver` replaced it: it rebuilds
    its whole participant/link index on every call and accumulates every
    float left to right in sorted key order.  The solver must return
    ``float.hex``-equal rates (``tests/test_fluid.py``); nothing under
    ``src/`` may import it.
    """
    link_sets: Dict[Key, Tuple[str, ...]] = {}
    rates: Dict[Key, float] = {}
    remaining: Dict[str, float] = {}
    for key in sorted(paths):
        links = tuple(dict.fromkeys(paths[key]))
        if not links:
            raise ValueError(f"participant {key!r} has an empty path")
        for link in links:
            if link not in remaining:
                if link not in capacities:
                    raise ValueError(f"participant {key!r} crosses unknown link {link!r}")
                remaining[link] = max(0.0, float(capacities[link]))
        link_sets[key] = links
        rates[key] = 0.0

    weight_of: Dict[Key, float] = {}
    for key in sorted(link_sets):
        weight = 1.0 if weights is None else float(weights[key])
        if weight <= 0:
            raise ValueError(f"participant {key!r} has non-positive weight {weight!r}")
        weight_of[key] = weight

    # Participants whose path crosses a dead link never receive bandwidth.
    active = [
        key
        for key in sorted(link_sets)
        if all(remaining[link] > 0.0 for link in link_sets[key])
    ]

    while active:
        # Aggregate unfrozen weight per link, then find the link that
        # saturates first when every unfrozen participant grows its rate by
        # ``weight * increment``.
        link_weight: Dict[str, float] = {}
        for key in active:
            weight = weight_of[key]
            for link in link_sets[key]:
                link_weight[link] = link_weight.get(link, 0.0) + weight
        bottleneck = ""
        increment = -1.0
        for link in sorted(link_weight):
            share = remaining[link] / link_weight[link]
            if increment < 0.0 or share < increment:
                increment = share
                bottleneck = link

        saturated = set()
        for link in sorted(link_weight):
            remaining[link] -= increment * link_weight[link]
            tolerance = _REFERENCE_SATURATION_EPSILON * max(1.0, float(capacities[link]))
            if remaining[link] <= tolerance:
                remaining[link] = 0.0
                saturated.add(link)
        # The arg-min link is saturated by construction; force it in case
        # round-off left a residual just above the tolerance.
        saturated.add(bottleneck)

        still_active = []
        for key in active:
            rates[key] += increment * weight_of[key]
            if not saturated.isdisjoint(link_sets[key]):
                continue
            still_active.append(key)
        active = still_active

    return rates


# ---------------------------------------------------------------------------
# Receive-buffer oracle
# ---------------------------------------------------------------------------


def reference_insert_segment(
    segments: Sequence[Tuple[int, int]], start: int, end: int
) -> List[Tuple[int, int]]:
    """The linear out-of-order insert, kept as a test oracle.

    This is the body ``ReceiveBuffer._insert_segment`` had before it became a
    bisect plus a slice assignment: it walks and rebuilds the whole sorted,
    disjoint, non-adjacent range list per arrival.  Returns the new list;
    nothing under ``src/`` may import it.
    """
    merged: List[Tuple[int, int]] = []
    placed = False
    for seg_start, seg_end in segments:
        if seg_end < start:
            merged.append((seg_start, seg_end))
        elif seg_start > end:
            if not placed:
                merged.append((start, end))
                placed = True
            merged.append((seg_start, seg_end))
        else:
            # Overlapping or adjacent: merge into the candidate range.
            start = min(start, seg_start)
            end = max(end, seg_end)
    if not placed:
        merged.append((start, end))
    merged.sort()
    return merged


# ---------------------------------------------------------------------------
# Segment-map oracle
# ---------------------------------------------------------------------------


class ReferenceSegmentMap:
    """The dict segment map, kept as a test oracle for ``SegmentMap``.

    This is what ``MptcpSubflow`` held before its map became two int arrays:
    ``{start: (dsn, size)}`` of the live chunks plus the oldest start.  A
    read hits only a live chunk's exact start.  ``forget_below`` needs
    ``floor <= end``, as a sender's cursors always are; nothing under
    ``src/`` may import it.
    """

    def __init__(self) -> None:
        self.segments: Dict[int, Tuple[int, int]] = {}
        self.start = 0
        self.end = 0

    def append(self, dsn: int, size: int) -> None:
        self.segments[self.end] = (dsn, size)
        self.end += size

    def payload_at(self, seq: int) -> int:
        segment = self.segments.get(seq)
        return segment[1] if segment is not None else 0

    def dsn_at(self, seq: int) -> int:
        segment = self.segments.get(seq)
        return segment[0] if segment is not None else seq

    def forget_below(self, floor: int) -> None:
        seq = self.start
        while seq < floor:
            size = self.segments[seq][1]
            if seq + size > floor:
                break
            del self.segments[seq]
            seq += size
        self.start = seq

    def clear(self) -> None:
        self.segments.clear()
        self.start = self.end

    def chunks(self) -> List[Tuple[int, int, int]]:
        """The live chunks as ``(start, dsn, size)``, oldest first."""
        return [(start, dsn, size) for start, (dsn, size) in sorted(self.segments.items())]


def live_chunks(segment_map: SegmentMap, end: int) -> List[Tuple[int, int, int]]:
    """A ``SegmentMap``'s live chunks as ``(start, dsn, size)``, oldest first.

    ``end`` is where the last chunk ends: the subflow's ``total_bytes``.
    """
    head = segment_map._head
    starts = segment_map._starts[head:].tolist()
    ends = starts[1:] + [end]
    return [(start, dsn, stop - start)
            for start, dsn, stop in zip(starts, segment_map._dsns[head:], ends)]


def segment_map_bytes(segment_map: SegmentMap) -> int:
    """What a ``SegmentMap`` occupies: the object and its two arrays."""
    return (sys.getsizeof(segment_map) + sys.getsizeof(segment_map._starts)
            + sys.getsizeof(segment_map._dsns))


# ---------------------------------------------------------------------------
# CPython 3.12's builtin sum(), on any interpreter
# ---------------------------------------------------------------------------


def sum_312(iterable: Iterable[Any], /, start: Any = 0) -> Any:
    """CPython 3.12's ``sum()``: exact-int fast path, then Neumaier-compensated
    floats (3.11 adds floats left to right).  Step for step as
    ``builtin_sum_impl`` in 3.12's ``Python/bltinmodule.c``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def patch_sum_312(monkeypatch: Any) -> None:
    """Make every ``repro`` module's ``sum`` :func:`sum_312` for this test.

    A module global shadows the builtin, so ``repro`` sees what it would see
    on 3.12 while pytest and the standard library keep their own ``sum``.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            monkeypatch.setattr(importlib.import_module(info.name), "sum", sum_312,
                                raising=False)


# ---------------------------------------------------------------------------
# Memory sizing: python tests/support.py memory
# ---------------------------------------------------------------------------


#: The seed ``memory`` sizes unless ``--set seed=N``, and the sites it prints.
MEMORY_SEED = 20150817
MEMORY_TOP_SITES = 10


class MemorySampler:
    """A ``Simulator.profiler`` that samples ``tracemalloc`` every ``every`` events.

    At each sample above every earlier one it keeps the top allocation
    sites, so they are the sites at the highest sample.  The snapshot is
    dropped at once and its own allocations are kept out of :attr:`peak`.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self.events = 0
        self.highest = 0
        self.highest_at = 0
        self.sites: List[tracemalloc.Statistic] = []
        self._peak = 0

    def note(self, callback: Any) -> None:
        self.events += 1
        if self.events % self.every == 0:
            self.sample()

    def sample(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if current <= self.highest:
            return
        self.highest, self.highest_at = current, self.events
        self._peak = max(self._peak, peak)
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__)]
        )
        self.sites = snapshot.statistics("lineno")[:MEMORY_TOP_SITES]
        del snapshot
        tracemalloc.reset_peak()

    @property
    def peak(self) -> int:
        """The traced peak in bytes, the sampler's own snapshots excluded."""
        return max(self._peak, tracemalloc.get_traced_memory()[1])


#: Config fields ``memory`` sets through its own flags, so ``--set`` refuses them.
_FLAG_FIELDS = {"protocol": "--protocol", "num_subflows": "--subflows",
                "link_rate_bps": "--link-rate"}


def _config_override(text: str) -> Tuple[str, Any]:
    field, _, value = text.partition("=")
    if field not in ExperimentConfig.__dataclass_fields__ or not value:
        raise argparse.ArgumentTypeError(f"expected FIELD=VALUE with a config field, got {text!r}")
    if field in _FLAG_FIELDS:
        raise argparse.ArgumentTypeError(f"set {field} with {_FLAG_FIELDS[field]}")
    try:
        return field, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return field, value


def memory_main(argv: Sequence[str]) -> int:
    """Size one run: untraced for ``ru_maxrss``, then traced for its sites."""
    import repro.experiments.runner as runner
    from repro.experiments.config import CHOICES
    from repro.metrics.export import dumps_deterministic
    from repro.scenarios.spec import SCENARIO_SCALES, scale_config

    parser = argparse.ArgumentParser(prog="python tests/support.py memory",
                                     description=memory_main.__doc__)
    parser.add_argument("--scale", choices=SCENARIO_SCALES, default="quick")
    parser.add_argument("--protocol", choices=CHOICES["protocol"], default="mptcp")
    parser.add_argument("--subflows", type=int, default=8)
    parser.add_argument("--link-rate", type=float, help="link_rate_bps, e.g. 1e9")
    parser.add_argument("--set", type=_config_override, action="append", default=[],
                        metavar="FIELD=VALUE", help="any other config field (repeatable)")
    parser.add_argument("--every", type=int, default=50_000,
                        help="events between tracemalloc samples")
    args = parser.parse_args(argv)
    if args.every < 1:
        parser.error("--every must be at least 1")
    updates = dict(args.set)
    if args.link_rate is not None:
        updates["link_rate_bps"] = args.link_rate
    config = scale_config(args.scale, MEMORY_SEED).with_protocol(args.protocol, args.subflows)
    config = config.with_updates(**updates)

    def summary(result) -> str:
        text = dumps_deterministic(result.metrics.summary_dict())
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    untraced = runner.run_experiment(config)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sampler = MemorySampler(args.every)

    class SampledSimulator(runner.Simulator):
        def __init__(self) -> None:
            super().__init__()
            self.profiler = sampler

    saved = runner.Simulator
    runner.Simulator = SampledSimulator
    tracemalloc.start()
    try:
        traced = runner.run_experiment(config)
    finally:
        runner.Simulator = saved
    peak = sampler.peak
    tracemalloc.stop()
    if (traced.events_processed, summary(traced)) != (untraced.events_processed, summary(untraced)):
        print("error: the traced run differs from the untraced one", file=sys.stderr)
        return 1

    mb = 1024 * 1024
    overrides = "".join(f" {field}={value!r}" for field, value in sorted(updates.items()))
    print(f"config: {args.scale} {args.protocol}({config.num_subflows}) seed={config.seed}"
          f"{overrides}")
    print(f"events: {untraced.events_processed:,}  summary sha256: {summary(untraced)}")
    print(f"ru_maxrss: {maxrss_mb:.2f} MB (untraced run)")
    print(f"tracemalloc peak: {peak / mb:.2f} MB")
    if not sampler.sites:
        print(f"no sample: the run dispatched fewer than --every {args.every:,} events")
        return 0
    print(f"highest sample: {sampler.highest / mb:.2f} MB at event {sampler.highest_at:,} "
          f"(every {args.every:,} events); its top allocation sites:")
    root = str(Path(__file__).resolve().parent.parent) + "/"
    for site in sampler.sites:
        frame = site.traceback[0]
        print(f"  {site.size / mb:8.2f} MB {site.count:9,} blocks  "
              f"{frame.filename.replace(root, '')}:{frame.lineno}")
    return 0


if __name__ == "__main__":  # pragma: no cover - command-line entry point
    if sys.argv[1:2] != ["memory"]:
        sys.exit("usage: python tests/support.py memory [--help]")
    sys.exit(memory_main(sys.argv[2:]))
