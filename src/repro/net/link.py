"""Links and network interfaces.

The transmission model is the standard store-and-forward one used by ns-3's
point-to-point devices:

1. a node hands a packet to one of its :class:`Interface` objects;
2. the packet is offered to the interface's output queue, a
   :class:`~repro.net.queues.DropTailQueue` (it may be dropped there);
3. when the interface is idle it dequeues the head packet and occupies the
   link for its serialisation time (``size * 8 / rate``);
4. after serialisation, the packet propagates for the link delay and is then
   delivered to the node on the other end.

A full-duplex cable between two nodes is simply a pair of interfaces, one on
each node, wired to each other — :func:`connect` builds that pair.

Packet ownership: an interface *consumes* every packet that is offered to it
and then lost — rejected while the link is down, dropped by the queue, or cut
mid-serialisation.  Those packets are released to the packet pool once the
node has recorded the drop; delivered packets are released further downstream by
the receiving host.  Callers must therefore never touch a packet again once
:meth:`Interface.send` has been called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import Packet, release_packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.node import Node


class Interface:
    """A unidirectional transmitter attached to a node.

    Attributes:
        node: the owning node.
        peer: the node reached through this interface.
        rate_bps: link capacity in bits per second.  May be lowered/raised at
            runtime via :meth:`set_rate` (fault injection); packets already
            serialising finish at the rate in force when they started.
        delay_s: one-way propagation delay in seconds.
        queue: output queue discipline.
        up: administrative/physical state.  A down interface drops every
            packet offered to it, keeps already-queued packets parked, and
            loses packets whose serialisation completes while it is down
            (they were "on the wire" when the cable was cut).
        bytes_sent: bytes transmitted (payload + headers).
        fault_drops: packets lost because the interface was down.
        fault_drops_offered: the subset of ``fault_drops`` rejected at offer
            time — these never reached the output queue, so they are absent
            from its ``offered_packets`` counter (loss-rate denominators must
            add them back; on-the-wire losses are already counted as offered).
        busy_time: cumulative seconds the transmitter has been serialising,
            used to compute link utilisation.
    """

    def __init__(
        self,
        simulator: Simulator,
        node: "Node",
        rate_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_s < 0:
            raise ValueError("link delay cannot be negative")
        self.simulator = simulator
        self.node = node
        self.peer: Optional["Node"] = None
        self.peer_interface: Optional["Interface"] = None
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue()
        self.name = name or f"{node.name}-if{len(node.interfaces)}"
        #: The ``queue`` probe series this interface's occupancy goes to.
        self._queue_series = f"queue.packets/{self.name}"
        self.bytes_sent = 0
        self.busy_time = 0.0
        self.up = True
        self.fault_drops = 0
        self.fault_drops_offered = 0
        self._transmitting = False
        # At most one packet serialises at a time, so one reusable timer
        # covers every transmission this interface will ever make.
        self._tx_timer = simulator.timer(self._finish_transmission)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_peer(self, peer: "Node", peer_interface: "Interface") -> None:
        """Point this interface at the node (and reverse interface) it reaches."""
        self.peer = peer
        self.peer_interface = peer_interface

    # ------------------------------------------------------------------
    # Transmission path
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Offer ``packet`` for transmission.

        The interface takes ownership: a rejected packet is recorded (fault
        or queue drop) and released to the packet pool.
        """
        if self.peer is None:
            raise RuntimeError(f"interface {self.name} is not connected")
        if not self.up:
            self.fault_drops += 1
            self.fault_drops_offered += 1
            self._drop(packet)
            return
        if self._transmitting:
            queue = self.queue
            if not queue.enqueue(packet):
                self._drop(packet)
                return
            # Occupancy only rises here, so sampling each accepted enqueue
            # records every peak without a timer of its own.
            probes = self.node.probes
            if probes.enabled:
                probes.sample(self._queue_series, self.simulator.now, len(queue))
            return
        # Idle transmitter ⇒ the queue is empty (a down link parks packets,
        # but the `up` check above already excluded that state): pass the
        # packet through the queue's counters without the deque round-trip
        # and serialise it immediately.
        if not self.queue.transit(packet):
            self._drop(packet)
            return
        self._transmitting = True
        tx_delay = (packet.size * 8.0) / self.rate_bps
        self.busy_time += tx_delay
        self._tx_timer.arm(tx_delay, packet)

    def _drop(self, packet: Packet) -> None:
        """Report the drop to the owning node, then retire the packet."""
        self.node.note_drop(packet, self)
        release_packet(packet)

    def _start_next_transmission(self) -> None:
        if not self.up:
            # Queued packets stay parked until the link comes back up.
            self._transmitting = False
            return
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        self._transmitting = True
        tx_delay = (packet.size * 8.0) / self.rate_bps
        self.busy_time += tx_delay
        self._tx_timer.arm(tx_delay, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        if not self.up:
            # The link went down while this packet was serialising: it was on
            # the wire when the cable was cut, so it is lost.
            self.fault_drops += 1
            self._drop(packet)
            self._start_next_transmission()
            return
        self.bytes_sent += packet.size
        # Propagation: the receiving node sees the packet one delay later.
        self.simulator.schedule(self.delay_s, self._deliver, packet)
        # The transmitter is free again as soon as serialisation ends.
        self._start_next_transmission()

    def _deliver(self, packet: Packet) -> None:
        self.peer.receive(packet, self.peer_interface)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Change the link state.  Re-enabling a link resumes draining its queue."""
        if self.up == up:
            return
        self.up = up
        if up and not self._transmitting:
            self._start_next_transmission()

    def set_rate(self, rate_bps: float) -> None:
        """Change the link capacity; packets already serialising are unaffected."""
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps

    def purge_queue(self) -> int:
        """Drop every parked packet (host detach: the cable is unplugged).

        Packets sitting in a down interface's queue would otherwise be
        delivered to the *old* peer when the interface is reused — a detached
        host's queue contents are gone for good.  Each purged packet is
        counted as a fault drop and retired through the normal drop path.
        Returns the number of packets purged.
        """
        purged = 0
        while True:
            packet = self.queue.dequeue()
            if packet is None:
                break
            self.fault_drops += 1
            self._drop(packet)
            purged += 1
        return purged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def utilisation(self, duration_s: float) -> float:
        """Fraction of ``duration_s`` this transmitter spent serialising packets."""
        if duration_s <= 0:
            return 0.0
        return min(1.0, self.busy_time / duration_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer.name if self.peer is not None else "unconnected"
        return f"Interface({self.name} -> {peer}, {self.rate_bps/1e6:.0f} Mbps)"


QueueFactory = Callable[[], DropTailQueue]


def connect(
    simulator: Simulator,
    node_a: "Node",
    node_b: "Node",
    rate_bps: float,
    delay_s: float,
    queue_factory: Optional[QueueFactory] = None,
) -> tuple[Interface, Interface]:
    """Create a full-duplex link between ``node_a`` and ``node_b``.

    Each direction gets its own queue from ``queue_factory`` (drop-tail with
    default capacity when omitted).  Returns the pair of interfaces
    ``(a_to_b, b_to_a)``.
    """
    make_queue: QueueFactory = queue_factory if queue_factory is not None else DropTailQueue
    iface_ab = Interface(simulator, node_a, rate_bps, delay_s, make_queue())
    iface_ba = Interface(simulator, node_b, rate_bps, delay_s, make_queue())
    iface_ab.attach_peer(node_b, iface_ba)
    iface_ba.attach_peer(node_a, iface_ab)
    node_a.add_interface(iface_ab, node_b)
    node_b.add_interface(iface_ba, node_a)
    return iface_ab, iface_ba
