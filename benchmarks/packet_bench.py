"""Packet-path micro-benchmark: measures µs/packet and extends BENCH_engine.json.

The data-plane counterpart of ``engine_bench.py``.  Two workload families
exercise the per-packet cost of construct → hash → forward → enqueue →
serialise, each at three scales (tiny / small / medium):

* ``forward`` — a 4-way ECMP fabric (host — edge — 4 cores — edge — host)
  with deep queues: every packet crosses one hashed multi-candidate hop and
  two single-candidate hops, half on stable flow 5-tuples (per-switch digest
  memo hits) and half packet-scattered (fresh source port per packet, memo
  misses), mirroring MMPTCP's traffic mix.
* ``incast`` — 8 senders bursting through one switch into a 16-packet
  drop-tail bottleneck: the drop/accounting path under synchronised load.

Each family runs twice: on the real data plane (pooled packets, precomputed
``size``/``flow_bytes``, memoised salted digests, flattened switch/queue hot
paths) and on a self-contained **naive reference** that re-implements the
seed data plane (fresh allocation per packet, ``size`` as a property,
per-hop FNV over the 5-tuple, hook-based queues, list-building ECMP
selection).  Both produce identical delivery/drop counts; the headline
``forwarding_improvement_pct`` compares their µs/packet at the medium scale.

Usage::

    python benchmarks/packet_bench.py --output BENCH_engine.json
    python benchmarks/packet_bench.py --check BENCH_engine.json [--tolerance 0.20]

``--output`` *merges* a ``packet_path`` section into the artifact (the
engine workloads written by ``engine_bench.py`` are preserved).  ``--check``
re-measures and fails (exit 1) if any fast workload's *normalised*
µs/packet (divided by the same run's ``event_chain`` µs/event, so machine
speed cancels out) regressed more than ``tolerance`` against the committed
baseline, or if the forwarding improvement fell below ``--min-improvement``
(default 25%).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

if __package__ in (None, ""):  # running as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from engine_bench import run_event_chain

from itertools import count

from repro.net.host import Host
from repro.net.link import Interface, connect
from repro.net.packet import DEFAULT_HEADER_BYTES, FLAG_DATA, acquire_packet
from repro.net.queues import DropTailQueue, Queue, QueueStats
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.units import transmission_delay

#: Packets injected per run at each scale.
SCALES: Dict[str, int] = {"tiny": 2_000, "small": 8_000, "medium": 24_000}

#: The scale whose naive-vs-fast ratio is the headline improvement figure.
HEADLINE_SCALE = "medium"

_RATE_BPS = 10e9
_DELAY_S = 1e-6
_MSS = 1400
_DST_PORT = 5001

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Naive reference data plane (the seed implementation, kept runnable so the
# improvement is measurable on every machine — mirrors timer_churn_heap)
# ---------------------------------------------------------------------------


_naive_packet_ids = count(1)


class _NaivePacket:
    """Seed-style packet: freshly allocated per send, full header field set,
    ``size`` recomputed on every access."""

    __slots__ = (
        "packet_id", "flow_id", "src", "dst", "src_port", "dst_port",
        "protocol", "seq", "ack", "flags", "payload_size", "header_size",
        "subflow_id", "dsn", "dack", "ecn_capable", "ecn_ce", "ecn_echo",
        "sent_time", "is_retransmission", "hops", "_in_pool",
    )

    def __init__(self, *, flow_id, src, dst, src_port, dst_port, seq=0,
                 ack=0, flags=0, payload_size=0,
                 header_size=DEFAULT_HEADER_BYTES, subflow_id=0, dsn=0,
                 dack=0, ecn_capable=False, ecn_ce=False, ecn_echo=False,
                 sent_time=0.0, is_retransmission=False, protocol=6):
        self.packet_id = next(_naive_packet_ids)
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_size = payload_size
        self.header_size = header_size
        self.subflow_id = subflow_id
        self.dsn = dsn
        self.dack = dack
        self.ecn_capable = ecn_capable
        self.ecn_ce = ecn_ce
        self.ecn_echo = ecn_echo
        self.sent_time = sent_time
        self.is_retransmission = is_retransmission
        self.hops = 0
        self._in_pool = False  # lets the real net layer's release ignore us

    @property
    def size(self):
        return self.header_size + self.payload_size

    def flow_tuple(self):
        return (self.src, self.dst, self.src_port, self.dst_port, self.protocol)


def _naive_fnv(values, salt=0):
    """The seed FNV-1a: per-hop masking and shifting over the 5-tuple."""
    digest = (_FNV_OFFSET ^ (salt & _MASK)) & _MASK
    for value in values:
        remaining = value & _MASK
        for _ in range(8):
            digest ^= remaining & 0xFF
            digest = (digest * _FNV_PRIME) & _MASK
            remaining >>= 8
    return digest


class _NaiveDropTailQueue(Queue):
    """Seed-style queue: hook-driven enqueue/dequeue, guarded capacity checks."""

    def __init__(self, capacity_packets: Optional[int] = 100,
                 capacity_bytes: Optional[int] = None) -> None:
        super().__init__()
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes

    def _admit(self, packet) -> bool:
        if self.capacity_packets is not None and len(self._packets) >= self.capacity_packets:
            return False
        if self.capacity_bytes is not None and self._bytes + packet.size > self.capacity_bytes:
            return False
        return True

    def enqueue(self, packet) -> bool:
        if not self._admit(packet):
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            return False
        self._mark(packet)
        self._packets.append(packet)
        self._bytes += packet.size
        self._on_accepted(packet)
        self.stats.enqueued_packets += 1
        self.stats.enqueued_bytes += packet.size
        return True

    def dequeue(self):
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self._bytes -= packet.size
        self._on_released(packet)
        self.stats.dequeued_packets += 1
        self.stats.dequeued_bytes += packet.size
        return packet


class _NaiveSwitch(Switch):
    """Seed-style forwarding: re-hash the 5-tuple from scratch at every hop."""

    def select_output_interface(self, packet):
        candidates = self.forwarding_table.get(packet.dst)
        if not candidates:
            return None
        if len(candidates) == 1:
            choice = candidates[0]
        else:
            choice = candidates[_naive_fnv(packet.flow_tuple(), self.ecmp_salt)
                                % len(candidates)]
        out_interface = self.interfaces[choice]
        if out_interface.up:
            return out_interface
        live = [index for index in candidates if self.interfaces[index].up]
        if not live:
            return None
        if len(live) == 1:
            return self.interfaces[live[0]]
        return self.interfaces[live[_naive_fnv(packet.flow_tuple(), self.ecmp_salt)
                                    % len(live)]]

    def receive(self, packet, interface) -> None:
        out_interface = self.select_output_interface(packet)
        if out_interface is None:
            self.unroutable_packets += 1
            return
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        out_interface.send(packet)


class _NaiveHost(Host):
    """Seed-style delivery: per-packet trace guard, no pool release."""

    def receive(self, packet, interface) -> None:
        if packet.dst != self.address:
            self.unroutable_packets += 1
            return
        endpoint = self._endpoints.get(packet.dst_port)
        if endpoint is None:
            self.undeliverable_packets += 1
            return
        endpoint.on_packet(packet)


class _NaiveInterface(Interface):
    """Seed-style transmitter: per-packet guard branches, ``transmission_delay``
    as a function call, drops left to the garbage collector."""

    def send(self, packet) -> bool:
        if self.peer is None:
            raise RuntimeError(f"interface {self.name} is not connected")
        if not self.up:
            self.fault_drops += 1
            self.fault_drops_offered += 1
            if self.drop_callback is not None:
                self.drop_callback(packet, self)
            self.node.note_drop(packet, self)
            return False
        accepted = self.queue.enqueue(packet)
        if not accepted:
            if self.drop_callback is not None:
                self.drop_callback(packet, self)
            self.node.note_drop(packet, self)
            return False
        if not self._transmitting:
            self._start_next_transmission()
        return True

    def _start_next_transmission(self) -> None:
        if not self.up:
            self._transmitting = False
            return
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        self._transmitting = True
        tx_delay = transmission_delay(packet.size, self.rate_bps)
        self.busy_time += tx_delay
        self._tx_timer.arm(tx_delay, packet)

    def _finish_transmission(self, packet) -> None:
        if not self.up:
            self.fault_drops += 1
            if self.drop_callback is not None:
                self.drop_callback(packet, self)
            self.node.note_drop(packet, self)
            self._start_next_transmission()
            return
        self.bytes_sent += packet.size
        self.packets_sent += 1
        self.simulator.schedule(self.delay_s, self._deliver, packet)
        self._start_next_transmission()


def _naive_connect(simulator, node_a, node_b, rate_bps, delay_s, queue_factory):
    """Seed ``connect`` over :class:`_NaiveInterface` pairs."""
    iface_ab = _NaiveInterface(simulator, node_a, rate_bps, delay_s, queue_factory())
    iface_ba = _NaiveInterface(simulator, node_b, rate_bps, delay_s, queue_factory())
    iface_ab.attach_peer(node_b, iface_ba)
    iface_ba.attach_peer(node_a, iface_ab)
    node_a.add_interface(iface_ab, node_b)
    node_b.add_interface(iface_ba, node_a)
    return iface_ab, iface_ba


class _CountingEndpoint:
    """Sink endpoint: counts deliveries; retains nothing."""

    def __init__(self) -> None:
        self.received = 0

    def on_packet(self, packet) -> None:
        self.received += 1


def _source_port(index: int) -> int:
    """Half stable flow ports (digest-memo hits), half packet scatter (misses)."""
    if index % 2 == 0:
        return 40_000 + (index // 2) % 32
    return 20_000 + index


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_forward(packets: int, naive: bool) -> int:
    """Push ``packets`` through host — edge — {4 cores} — edge — host."""
    simulator = Simulator()
    host_cls = _NaiveHost if naive else Host
    switch_cls = _NaiveSwitch if naive else Switch
    wire = _naive_connect if naive else connect
    queue_factory: Callable[[], Queue] = (
        (lambda: _NaiveDropTailQueue(capacity_packets=None, capacity_bytes=10**12))
        if naive
        else (lambda: DropTailQueue(capacity_packets=None, capacity_bytes=10**12))
    )

    # Two hashed tiers, as on a fat-tree up-path: the edge hashes over two
    # aggregation switches, each aggregation switch hashes over two cores.
    sender = host_cls(simulator, "A", 1)
    receiver = host_cls(simulator, "B", 2)
    edge_in = switch_cls(simulator, "E1", ecmp_salt=1)
    edge_out = switch_cls(simulator, "E2", ecmp_salt=2)
    aggs = [switch_cls(simulator, f"A{i}", layer="aggregation", ecmp_salt=3 + i)
            for i in range(2)]
    cores = [switch_cls(simulator, f"C{i}", layer="core", ecmp_salt=5 + i) for i in range(4)]

    wire(simulator, sender, edge_in, _RATE_BPS, _DELAY_S, queue_factory)
    edge_uplinks: List[int] = []
    for agg_index, agg in enumerate(aggs):
        wire(simulator, edge_in, agg, _RATE_BPS, _DELAY_S, queue_factory)
        edge_uplinks.append(edge_in.neighbor_to_interface[agg.name])
        agg_uplinks: List[int] = []
        for core in cores[2 * agg_index: 2 * agg_index + 2]:
            wire(simulator, agg, core, _RATE_BPS, _DELAY_S, queue_factory)
            agg_uplinks.append(agg.neighbor_to_interface[core.name])
            wire(simulator, core, edge_out, _RATE_BPS, _DELAY_S, queue_factory)
            core.install_route(receiver.address, [core.neighbor_to_interface["E2"]])
        agg.install_route(receiver.address, agg_uplinks)
    wire(simulator, edge_out, receiver, _RATE_BPS, _DELAY_S, queue_factory)
    edge_in.install_route(receiver.address, edge_uplinks)
    edge_out.install_route(receiver.address, [edge_out.neighbor_to_interface["B"]])

    sink = _CountingEndpoint()
    receiver.bind(_DST_PORT, sink)

    make_packet = _NaivePacket if naive else acquire_packet

    # Pace injections just above the serialisation rate so queues stay
    # shallow and every packet exercises the full pipeline.  The injector is
    # a self-chaining event: the pending-event heap stays tiny, so the
    # measurement is dominated by the packet path, not heap churn.
    spacing = (_MSS + DEFAULT_HEADER_BYTES) * 8.0 / _RATE_BPS * 1.05
    remaining = [packets]

    def inject() -> None:
        left = remaining[0]
        if not left:
            return
        remaining[0] = left - 1
        index = packets - left
        packet = make_packet(
            flow_id=index % 32,
            src=sender.address,
            dst=receiver.address,
            src_port=_source_port(index),
            dst_port=_DST_PORT,
            flags=FLAG_DATA,
            payload_size=_MSS,
        )
        sender.send(packet)
        simulator.schedule(spacing, inject)

    simulator.schedule(0.0, inject)
    simulator.run()
    if sink.received != packets:
        raise RuntimeError(f"forward workload lost packets: {sink.received}/{packets}")
    return packets


def run_incast(packets: int, naive: bool) -> int:
    """8 senders burst through one switch into a 16-packet bottleneck."""
    simulator = Simulator()
    host_cls = _NaiveHost if naive else Host
    switch_cls = _NaiveSwitch if naive else Switch
    wire = _naive_connect if naive else connect
    queue_factory: Callable[[], Queue] = (
        (lambda: _NaiveDropTailQueue(capacity_packets=16))
        if naive
        else (lambda: DropTailQueue(capacity_packets=16))
    )

    switch = switch_cls(simulator, "SW", ecmp_salt=1)
    receiver = host_cls(simulator, "r", 100)
    senders = [host_cls(simulator, f"s{i}", i + 1) for i in range(8)]
    for sender in senders:
        wire(simulator, sender, switch, _RATE_BPS, _DELAY_S, queue_factory)
    wire(simulator, switch, receiver, _RATE_BPS, _DELAY_S, queue_factory)
    switch.install_route(receiver.address, [switch.neighbor_to_interface["r"]])

    sink = _CountingEndpoint()
    receiver.bind(_DST_PORT, sink)

    make_packet = _NaivePacket if naive else acquire_packet
    per_sender = packets // 8
    spacing = (_MSS + DEFAULT_HEADER_BYTES) * 8.0 / _RATE_BPS
    remaining = [per_sender] * 8

    # One self-chaining injector per sender, all firing in lock-step so the
    # bottleneck queue overflows and the drop path is exercised.
    def inject(sender_index: int) -> None:
        left = remaining[sender_index]
        if not left:
            return
        remaining[sender_index] = left - 1
        index = per_sender - left
        packet = make_packet(
            flow_id=sender_index,
            src=senders[sender_index].address,
            dst=receiver.address,
            src_port=_source_port(index),
            dst_port=_DST_PORT,
            flags=FLAG_DATA,
            payload_size=_MSS,
        )
        senders[sender_index].send(packet)
        simulator.schedule(spacing, inject, sender_index)

    for sender_index in range(8):
        simulator.schedule(0.0, inject, sender_index)
    simulator.run()
    offered = per_sender * 8
    delivered = sink.received
    dropped = sum(iface.queue.stats.dropped_packets for iface in switch.interfaces)
    if delivered + dropped != offered:
        raise RuntimeError(
            f"incast accounting broken: {delivered} delivered + {dropped} dropped != {offered}"
        )
    if dropped == 0:
        raise RuntimeError("incast workload produced no drops; bottleneck too deep")
    return offered


#: (family, scale) -> zero-argument callable returning the packet count.
def _workloads() -> Dict[str, Tuple[Callable[[], int], bool]]:
    table: Dict[str, Tuple[Callable[[], int], bool]] = {}
    for family, runner in (("forward", run_forward), ("incast", run_incast)):
        for scale, packets in SCALES.items():
            table[f"{family}_{scale}"] = (
                lambda runner=runner, packets=packets: runner(packets, naive=False),
                False,
            )
            table[f"{family}_naive_{scale}"] = (
                lambda runner=runner, packets=packets: runner(packets, naive=True),
                True,
            )
    return table


# ---------------------------------------------------------------------------
# Measurement and artifact
# ---------------------------------------------------------------------------


def measure(repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` µs/packet for every workload (fast and naive)."""
    results: Dict[str, Dict[str, float]] = {}
    for name, (workload, _naive) in _workloads().items():
        best_us = float("inf")
        packets = 0
        for _ in range(repeats):
            start = time.perf_counter()
            packets = workload()
            elapsed = time.perf_counter() - start
            best_us = min(best_us, elapsed / packets * 1e6)
        results[name] = {"packets": packets, "us_per_packet": round(best_us, 4)}
    return results


def build_report(repeats: int = 3) -> Dict[str, object]:
    """The ``packet_path`` section of BENCH_engine.json."""
    workloads = measure(repeats)

    # Machine-speed proxy shared with engine_bench: µs per chained heap event.
    chain_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        events = run_event_chain()
        chain_best = min(chain_best, (time.perf_counter() - start) / events * 1e6)

    def improvement(family: str) -> float:
        fast = workloads[f"{family}_{HEADLINE_SCALE}"]["us_per_packet"]
        naive = workloads[f"{family}_naive_{HEADLINE_SCALE}"]["us_per_packet"]
        return round((naive - fast) / naive * 100.0, 2)

    return {
        "generated_by": "benchmarks/packet_bench.py",
        "scales": dict(SCALES),
        "event_chain_us_per_event": round(chain_best, 4),
        "workloads": workloads,
        # Fast-path µs/packet divided by this run's event_chain µs/event: a
        # machine-independent view of relative packet cost for the CI gate.
        "normalised": {
            name: round(data["us_per_packet"] / chain_best, 4)
            for name, data in workloads.items()
            if "_naive_" not in name
        },
        "forwarding_improvement_pct": improvement("forward"),
        "incast_improvement_pct": improvement("incast"),
    }


def merge_output(report: Dict[str, object], path: Path) -> None:
    """Write ``report`` under the ``packet_path`` key, preserving other sections."""
    artifact: Dict[str, object] = {}
    if path.exists():
        artifact = json.loads(path.read_text())
    artifact["packet_path"] = report
    # sort_keys + trailing newline: artifact bytes depend only on the
    # measured values, never on dict construction order.
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")


def check(report: Dict[str, object], baseline_path: Path, tolerance: float,
          min_improvement: float) -> int:
    baseline = json.loads(baseline_path.read_text()).get("packet_path")
    failures = []
    if baseline is None:
        failures.append(f"{baseline_path} has no packet_path section")
    else:
        for name, base_norm in baseline["normalised"].items():
            current = report["normalised"].get(name)
            if current is None:
                failures.append(f"workload {name!r} missing from the current run")
                continue
            if current > base_norm * (1.0 + tolerance):
                failures.append(
                    f"{name}: normalised µs/packet {current:.3f} regressed more than "
                    f"{tolerance:.0%} over baseline {base_norm:.3f}"
                )
    improvement = float(report["forwarding_improvement_pct"])
    if improvement < min_improvement:
        failures.append(
            f"forwarding improvement {improvement:.1f}% fell below the "
            f"required {min_improvement:.0f}%"
        )
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(f"packet benchmarks within {tolerance:.0%} of baseline; "
              f"forwarding improvement {improvement:.1f}%, "
              f"incast improvement {float(report['incast_improvement_pct']):.1f}%")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="merge the packet_path section into this JSON artifact")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed baseline and exit "
                             "non-zero on regression")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed normalised µs/packet regression (default 0.20)")
    parser.add_argument("--min-improvement", type=float, default=25.0,
                        help="required forwarding improvement in percent (default 25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    args = parser.parse_args(argv)

    report = build_report(repeats=args.repeats)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output is not None:
        merge_output(report, args.output)
        print(f"merged packet_path into {args.output}", file=sys.stderr)
    if args.check is not None:
        return check(report, args.check, args.tolerance, args.min_improvement)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
