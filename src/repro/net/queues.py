"""Output queues for network interfaces.

The fabric runs one discipline, :class:`DropTailQueue`: the classic bounded
FIFO with a static per-port buffer, as on the paper's drop-tail switches.
It counts its drops and accepted/transmitted bytes, and is agnostic of what
is on the other end — the interface object drains it.

Enqueue/dequeue run once per packet per hop, so the discipline implements
them as one *flattened* body: admission checks and :class:`QueueStats`
updates are folded inline as unguarded integer operations (capacity bounds
are normalised to huge sentinels instead of ``None`` checks).  A test
substitutes its own discipline, a :class:`DropTailQueue` subclass, through
a topology's ``queue_factory``.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet

#: Effectively-unbounded capacity sentinel: comparing against this is cheaper
#: than an ``is not None`` guard on every packet.
_UNBOUNDED = sys.maxsize


class QueueStats:
    """Mutable counters shared by all queue disciplines."""

    __slots__ = (
        "enqueued_packets",
        "enqueued_bytes",
        "dequeued_packets",
        "dequeued_bytes",
        "dropped_packets",
        "dropped_bytes",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    @property
    def offered_packets(self) -> int:
        """Packets offered to the queue (accepted + dropped)."""
        return self.enqueued_packets + self.dropped_packets

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that were dropped."""
        offered = self.offered_packets
        return self.dropped_packets / offered if offered else 0.0


class DropTailQueue:
    """Bounded FIFO that drops arrivals once full.

    The bound can be expressed in packets, bytes, or both (whichever limit is
    hit first applies).  A test substitutes its own discipline by
    subclassing this one; one that changes admission overrides
    ``transit`` too, because an idle interface calls ``transit`` instead of
    ``enqueue``.
    """

    def __init__(
        self,
        capacity_packets: Optional[int] = 100,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        if capacity_packets is None and capacity_bytes is None:
            raise ValueError("a drop-tail queue needs at least one capacity bound")
        if capacity_packets is not None and capacity_packets <= 0:
            raise ValueError("capacity_packets must be positive")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._packets: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self._max_packets = capacity_packets if capacity_packets is not None else _UNBOUNDED
        self._max_bytes = capacity_bytes if capacity_bytes is not None else _UNBOUNDED

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def byte_length(self) -> int:
        """Bytes currently buffered."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """True if no packets are buffered."""
        return not self._packets

    def enqueue(self, packet: Packet) -> bool:
        """Offer ``packet``; return True if accepted, False if dropped."""
        stats = self.stats
        size = packet.size
        packets = self._packets
        if len(packets) >= self._max_packets or self._bytes + size > self._max_bytes:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return False
        packets.append(packet)
        self._bytes += size
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or ``None`` if empty."""
        packets = self._packets
        if not packets:
            return None
        packet = packets.popleft()
        size = packet.size
        self._bytes -= size
        stats = self.stats
        stats.dequeued_packets += 1
        stats.dequeued_bytes += size
        return packet

    def transit(self, packet: Packet) -> bool:
        """Pass ``packet`` straight through an *empty* queue.

        Interfaces call this instead of ``enqueue`` + immediate ``dequeue``
        when the transmitter is idle (which implies the queue is empty): the
        packet is counted exactly as if it had been enqueued and dequeued —
        admission and statistics are identical — without the deque
        round-trip.  Returns False if the packet was rejected (it was then
        counted as dropped).

        Calling this on a non-empty queue is a caller bug (it would let the
        packet jump the queue and silently lose the buffered head) and
        raises immediately.
        """
        if self._packets:
            raise RuntimeError("transit() requires an empty queue")
        # Empty queue: the capacity checks reduce to "does one packet fit".
        stats = self.stats
        size = packet.size
        if self._max_packets < 1 or size > self._max_bytes:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return False
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        stats.dequeued_packets += 1
        stats.dequeued_bytes += size
        return True
