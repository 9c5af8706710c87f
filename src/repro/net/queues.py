"""Output queues for network interfaces.

The fabric runs one discipline, :class:`DropTailQueue`: the classic FIFO
bounded in packets, a static per-port buffer as on the paper's drop-tail
switches.  It counts the packets it accepts and drops, and is agnostic of
what is on the other end — the interface object drains it.

Enqueue/dequeue run once per packet per hop, so the discipline keeps them
flat: the admission check and the :class:`QueueStats` updates are inline
integer operations.  A test substitutes its own discipline, a
:class:`DropTailQueue` subclass, through a topology's ``queue_factory``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet


class QueueStats:
    """Admission counters of one queue."""

    __slots__ = ("enqueued_packets", "dropped_packets", "dropped_bytes")

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    @property
    def offered_packets(self) -> int:
        """Packets offered to the queue (accepted + dropped)."""
        return self.enqueued_packets + self.dropped_packets


class DropTailQueue:
    """FIFO of at most ``capacity_packets`` packets that drops arrivals once full.

    A test substitutes its own discipline by subclassing this one; one that
    changes admission overrides ``transit`` too, because an idle interface
    calls ``transit`` instead of ``enqueue``.
    """

    def __init__(self, capacity_packets: int = 100) -> None:
        if capacity_packets <= 0:
            raise ValueError("capacity_packets must be positive")
        self._packets: Deque[Packet] = deque()
        self.stats = QueueStats()
        self._max_packets = capacity_packets

    def __len__(self) -> int:
        return len(self._packets)

    def enqueue(self, packet: Packet) -> bool:
        """Offer ``packet``; return True if accepted, False if dropped."""
        packets = self._packets
        stats = self.stats
        if len(packets) >= self._max_packets:
            stats.dropped_packets += 1
            stats.dropped_bytes += packet.size
            return False
        packets.append(packet)
        stats.enqueued_packets += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or ``None`` if empty."""
        packets = self._packets
        return packets.popleft() if packets else None

    def transit(self, packet: Packet) -> bool:
        """Pass ``packet`` straight through an *empty* queue.

        Interfaces call this instead of ``enqueue`` + immediate ``dequeue``
        when the transmitter is idle (which implies the queue is empty): the
        packet is counted exactly as if it had been enqueued and dequeued
        without the deque round-trip.  An empty queue admits any packet, so
        this returns True; a subclass that drops here returns False.

        Calling this on a non-empty queue is a caller bug (it would let the
        packet jump the queue and silently lose the buffered head) and
        raises immediately.
        """
        if self._packets:
            raise RuntimeError("transit() requires an empty queue")
        self.stats.enqueued_packets += 1
        return True
