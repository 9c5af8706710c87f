"""Unit tests for interfaces and links (serialisation + propagation model)."""

from __future__ import annotations

import pytest

from repro.net.host import Host
from repro.net.link import connect
from repro.net.packet import FLAG_DATA, Packet
from repro.net.queues import DropTailQueue
from repro.obs.telemetry import NULL_PROBES, TelemetryRecorder
from repro.sim.engine import Simulator


class _SinkHost(Host):
    """A host that records every packet delivered to it (bypassing port demux)."""

    def __init__(self, simulator: Simulator, name: str, address: int) -> None:
        super().__init__(simulator, name, address)
        self.delivered = []

    def receive(self, packet, interface) -> None:  # type: ignore[override]
        self.delivered.append((self.simulator.now, packet))


def _packet(dst: int, payload: int = 1000) -> Packet:
    return Packet(
        flow_id=1,
        src=1,
        dst=dst,
        src_port=1,
        dst_port=2,
        flags=FLAG_DATA,
        payload_size=payload,
        header_size=0,
    )


def test_delivery_time_is_serialisation_plus_propagation() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    # 1000 bytes at 1 Mbps = 8 ms serialisation; 1 ms propagation.
    iface_ab, _ = connect(simulator, a, b, rate_bps=1e6, delay_s=1e-3)
    iface_ab.send(_packet(dst=2, payload=1000))
    simulator.run()
    assert len(b.delivered) == 1
    arrival_time, packet = b.delivered[0]
    assert arrival_time == pytest.approx(0.008 + 0.001)
    assert packet.hops == 1


def test_back_to_back_packets_serialise_sequentially() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(simulator, a, b, rate_bps=1e6, delay_s=0.0)
    iface_ab.send(_packet(dst=2))
    iface_ab.send(_packet(dst=2))
    simulator.run()
    times = [time for time, _ in b.delivered]
    assert times[0] == pytest.approx(0.008)
    assert times[1] == pytest.approx(0.016)


def test_full_duplex_directions_are_independent() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, iface_ba = connect(simulator, a, b, rate_bps=1e6, delay_s=0.0)
    iface_ab.send(_packet(dst=2))
    iface_ba.send(_packet(dst=1))
    simulator.run()
    assert len(a.delivered) == 1
    assert len(b.delivered) == 1


def test_queue_overflow_drops_and_counts() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(
        simulator, a, b, rate_bps=1e6, delay_s=0.0,
        queue_factory=lambda: DropTailQueue(capacity_packets=1),
    )
    # First packet starts transmitting immediately (not queued), the second is
    # buffered, the third and fourth overflow the 1-packet queue.
    results = [iface_ab.send(_packet(dst=2)) for _ in range(4)]
    simulator.run()
    assert results == [True, True, False, False]
    assert a.dropped_packets == 2
    assert len(b.delivered) == 2


def test_interface_counters_and_utilisation() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(simulator, a, b, rate_bps=1e6, delay_s=0.0)
    iface_ab.send(_packet(dst=2, payload=1000))
    simulator.run()
    assert iface_ab.packets_sent == 1
    assert iface_ab.bytes_sent == 1000
    # The link was busy for 8 ms; over a 16 ms window that is 50 % utilisation.
    assert iface_ab.utilisation(0.016) == pytest.approx(0.5)
    assert iface_ab.utilisation(0.0) == 0.0


def test_sending_on_unconnected_interface_fails() -> None:
    simulator = Simulator()
    host = _SinkHost(simulator, "a", 1)
    from repro.net.link import Interface

    interface = Interface(simulator, host, rate_bps=1e6, delay_s=0.0)
    with pytest.raises(RuntimeError):
        interface.send(_packet(dst=2))


def test_link_parameter_validation() -> None:
    simulator = Simulator()
    host = _SinkHost(simulator, "a", 1)
    from repro.net.link import Interface

    with pytest.raises(ValueError):
        Interface(simulator, host, rate_bps=0.0, delay_s=0.0)
    with pytest.raises(ValueError):
        Interface(simulator, host, rate_bps=1e6, delay_s=-1.0)


def test_idle_interface_bypass_keeps_queue_stats_exact() -> None:
    # The idle-transmitter fast path must count packets exactly as if they
    # had been enqueued and immediately dequeued.
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(simulator, a, b, rate_bps=1e6, delay_s=0.0)
    iface_ab.send(_packet(dst=2))  # idle: bypasses the deque
    iface_ab.send(_packet(dst=2))  # busy: queued for real
    simulator.run()
    stats = iface_ab.queue.stats
    assert stats.enqueued_packets == 2
    assert stats.dequeued_packets == 2
    assert stats.enqueued_bytes == stats.dequeued_bytes == 2000
    assert stats.dropped_packets == 0
    assert len(b.delivered) == 2


def test_idle_interface_bypass_respects_byte_bound() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(
        simulator, a, b, rate_bps=1e6, delay_s=0.0,
        queue_factory=lambda: DropTailQueue(capacity_packets=None, capacity_bytes=500),
    )
    assert not iface_ab.send(_packet(dst=2, payload=1000))  # larger than the buffer
    assert iface_ab.queue.stats.dropped_packets == 1
    assert a.dropped_packets == 1


def test_drop_callback_invoked() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(
        simulator, a, b, rate_bps=1e6, delay_s=0.0,
        queue_factory=lambda: DropTailQueue(capacity_packets=1),
    )
    dropped = []
    iface_ab.drop_callback = lambda packet, interface: dropped.append(packet)
    for _ in range(4):
        iface_ab.send(_packet(dst=2))
    assert len(dropped) == 2


def test_queue_drops_reach_the_probes_installed_on_the_node() -> None:
    # Unprobed nodes share the disabled NULL_PROBES: an overflow is counted
    # on the node and reported nowhere.  Once a recorder sits on the sending
    # host, the next overflow shows up as one trace.packet_drop.
    simulator = Simulator()
    a = Host(simulator, "a", 1)
    b = Host(simulator, "b", 2)
    iface_ab, _ = connect(
        simulator, a, b, rate_bps=1e6, delay_s=0.0,
        queue_factory=lambda: DropTailQueue(capacity_packets=1),
    )
    for _ in range(3):
        iface_ab.send(_packet(dst=2))  # third offer overflows silently
    assert a.probes is NULL_PROBES
    assert a.dropped_packets == 1
    recorder = TelemetryRecorder()
    a.probes = recorder
    iface_ab.send(_packet(dst=2))
    assert a.dropped_packets == 2
    assert recorder.counters == {"trace.packet_drop": 1}
