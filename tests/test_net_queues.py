"""Unit tests for queue disciplines."""

from __future__ import annotations

import pytest

from repro.net.host import Host
from repro.net.link import connect
from repro.net.packet import FLAG_DATA, Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator


def _packet(size: int = 1000) -> Packet:
    return Packet(
        flow_id=1,
        src=1,
        dst=2,
        src_port=1,
        dst_port=2,
        flags=FLAG_DATA,
        payload_size=size,
        header_size=0,
    )


class TestDropTailQueue:
    def test_fifo_order(self) -> None:
        queue = DropTailQueue(capacity_packets=10)
        packets = [_packet() for _ in range(3)]
        for packet in packets:
            assert queue.enqueue(packet)
        assert [queue.dequeue() for _ in range(3)] == packets
        assert queue.dequeue() is None

    def test_packet_capacity_enforced(self) -> None:
        queue = DropTailQueue(capacity_packets=2)
        assert queue.enqueue(_packet())
        assert queue.enqueue(_packet())
        assert not queue.enqueue(_packet())
        assert queue.stats.dropped_packets == 1
        assert len(queue) == 2

    def test_dequeue_frees_space(self) -> None:
        queue = DropTailQueue(capacity_packets=1)
        assert queue.enqueue(_packet())
        assert not queue.enqueue(_packet())
        queue.dequeue()
        assert queue.enqueue(_packet())

    def test_statistics_track_bytes_and_drop_rate(self) -> None:
        queue = DropTailQueue(capacity_packets=1)
        queue.enqueue(_packet(500))
        queue.enqueue(_packet(700))
        queue.dequeue()
        assert queue.stats.enqueued_packets == 1
        assert queue.stats.dropped_packets == 1
        assert queue.stats.dropped_bytes == 700
        assert queue.stats.offered_packets == 2
        # The loss rate the network snapshot derives from these counters.
        assert queue.stats.dropped_packets / queue.stats.offered_packets == pytest.approx(0.5)

    def test_requires_at_least_one_bound(self) -> None:
        # The bound defaults to 100 packets: a queue is never unbounded.
        queue = DropTailQueue()
        assert all(queue.enqueue(_packet()) for _ in range(100))
        assert not queue.enqueue(_packet())

    def test_rejects_nonpositive_capacities(self) -> None:
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=-1)


class TestTransit:
    """The empty-queue pass-through used by idle interfaces."""

    def test_transit_counts_like_enqueue_plus_dequeue(self) -> None:
        via_transit = DropTailQueue(capacity_packets=4)
        via_deque = DropTailQueue(capacity_packets=4)
        assert via_transit.transit(_packet(700))
        assert via_deque.enqueue(_packet(700)) and via_deque.dequeue() is not None
        for name in ("enqueued_packets", "dropped_packets", "dropped_bytes"):
            assert getattr(via_transit.stats, name) == getattr(via_deque.stats, name), name
        assert len(via_transit) == len(via_deque) == 0


class TestHookSubclassFallback:
    """The subclass seam: a test discipline overrides ``enqueue``, and
    ``transit`` is the idle-link shortcut with an empty-queue precondition."""

    def test_enqueue_override_is_honoured_on_a_busy_link(self) -> None:
        class RejectOddSizes(DropTailQueue):
            def enqueue(self, packet) -> bool:
                if packet.size % 2:
                    self.stats.dropped_packets += 1
                    self.stats.dropped_bytes += packet.size
                    return False
                return super().enqueue(packet)

        simulator = Simulator()
        a, b = Host(simulator, "a", 1), Host(simulator, "b", 2)
        iface, _ = connect(simulator, a, b, rate_bps=1e6, delay_s=0.0,
                           queue_factory=RejectOddSizes)
        # The first packet finds the transmitter idle and goes through the
        # inherited transit(); the next two arrive behind it and are enqueued.
        iface.send(_packet(1000))
        assert iface.queue.stats.offered_packets == 1
        assert iface.queue.stats.dropped_packets == 0
        iface.send(_packet(101))
        assert iface.queue.stats.dropped_packets == 1
        assert len(iface.queue) == 0
        iface.send(_packet(100))
        assert iface.queue.stats.dropped_packets == 1
        assert len(iface.queue) == 1

    def test_transit_on_nonempty_queue_raises(self) -> None:
        queue = DropTailQueue(capacity_packets=4)
        assert queue.enqueue(_packet())
        with pytest.raises(RuntimeError, match="empty queue"):
            queue.transit(_packet())
        assert len(queue) == 1 and queue.stats.offered_packets == 1
