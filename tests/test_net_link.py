"""Unit tests for interfaces and links (serialisation + propagation model)."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.net.host import Host
from repro.net.link import connect
from repro.net.packet import FLAG_DATA, Packet
from repro.net.queues import DropTailQueue
from repro.obs.telemetry import NULL_PROBES, TelemetryRecorder
from repro.sim.engine import Simulator
from repro.sim.units import megabits_per_second, microseconds
from repro.transport.base import TcpConfig
from repro.transport.receiver import TcpReceiver
from repro.transport.tcp import TcpSender
from support import IncastTopology


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
    assert packet.payload_size == 1000


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
    drops = []
    for _ in range(4):
        iface_ab.send(_packet(dst=2))
        drops.append(iface_ab.queue.stats.dropped_packets)
    simulator.run()
    assert drops == [0, 0, 1, 2]
    assert iface_ab.queue.stats.dropped_packets == 2
    assert len(b.delivered) == 2


def test_interface_counters_and_utilisation() -> None:
    simulator = Simulator()
    a = _SinkHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(simulator, a, b, rate_bps=1e6, delay_s=0.0)
    iface_ab.send(_packet(dst=2, payload=1000))
    simulator.run()
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
    assert stats.enqueued_packets == stats.offered_packets == 2
    assert stats.dropped_packets == 0
    assert len(iface_ab.queue) == 0
    assert len(b.delivered) == 2


def test_drop_callback_invoked() -> None:
    # Every drop an interface makes is reported to its node's drop hook.
    simulator = Simulator()
    dropped = []

    class _DropRecordingHost(_SinkHost):
        def note_drop(self, packet, interface) -> None:
            dropped.append((packet.payload_size, interface))

    a = _DropRecordingHost(simulator, "a", 1)
    b = _SinkHost(simulator, "b", 2)
    iface_ab, _ = connect(
        simulator, a, b, rate_bps=1e6, delay_s=0.0,
        queue_factory=lambda: DropTailQueue(capacity_packets=1),
    )
    for payload in (100, 200, 300, 400):
        iface_ab.send(_packet(dst=2, payload=payload))
    assert dropped == [(300, iface_ab), (400, iface_ab)]


def test_queue_drops_reach_the_probes_installed_on_the_node() -> None:
    # Unprobed nodes share the disabled NULL_PROBES: an overflow is counted
    # by the queue and reported nowhere.  Once a recorder sits on the sending
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
    assert iface_ab.queue.stats.dropped_packets == 1
    recorder = TelemetryRecorder()
    a.probes = recorder
    iface_ab.send(_packet(dst=2))
    assert iface_ab.queue.stats.dropped_packets == 2
    assert recorder.counters == {"trace.packet_drop": 1}


# ---------------------------------------------------------------------------
# The ``queue`` probe: occupancy recorded at each busy enqueue
# ---------------------------------------------------------------------------

_INCAST_QUEUE_PACKETS = 64


def _incast_burst(fan_in: int, groups=("queue",)):
    """A synchronised ``fan_in``-to-1 TCP burst through one switch.

    Every node reports to one recorder subscribed to ``groups`` (no
    recorder when ``groups`` is empty).  Returns the topology, the
    recorder, the simulator and each flow's (receiver, sender) pair.
    """
    simulator = Simulator()
    topology = IncastTopology(
        simulator,
        fan_in=fan_in,
        link_rate_bps=megabits_per_second(100),
        link_delay_s=microseconds(50),
        queue_factory=lambda: DropTailQueue(capacity_packets=_INCAST_QUEUE_PACKETS),
    )
    recorder = TelemetryRecorder(groups=groups) if groups else None
    if recorder is not None:
        for node in (*topology.hosts, *topology.switches):
            node.probes = recorder
    config = TcpConfig(mss=1000, initial_cwnd_segments=4)
    size = 70_000
    flows = []
    for index, sender_host in enumerate(topology.senders):
        receiver = TcpReceiver(simulator, topology.receiver, local_port=5001 + index,
                               flow_id=index, expected_bytes=size)
        sender = TcpSender(simulator, sender_host, topology.receiver.address, 5001 + index,
                           size, flow_id=index, config=config)
        simulator.schedule_at(0.001, sender.start)
        flows.append((receiver, sender))
    simulator.run(until=3.0)
    return topology, recorder, simulator, flows


def _queue_peaks(recorder: TelemetryRecorder):
    return {
        name: max(value for _, value in buffer.samples)
        for name, buffer in recorder.series.items()
    }


def test_queue_probe_records_buildup_during_incast() -> None:
    _, recorder, _, _ = _incast_burst(fan_in=8)
    peaks = _queue_peaks(recorder)
    assert peaks, "an 8-to-1 burst over a 100 Mbps link must queue packets"
    assert all(name.startswith("queue.packets/") for name in peaks)
    assert max(peaks.values()) >= 2
    for buffer in recorder.series.values():
        times = [time_s for time_s, _ in buffer.samples]
        assert times == sorted(times)
        assert all(value >= 1 for _, value in buffer.samples)


def test_larger_fan_in_builds_deeper_queues() -> None:
    small = _queue_peaks(_incast_burst(fan_in=4)[1])
    large = _queue_peaks(_incast_burst(fan_in=16)[1])
    assert max(large.values()) >= max(small.values())


def test_busiest_queue_is_the_receivers_downlink() -> None:
    topology, recorder, _, _ = _incast_burst(fan_in=8)
    peaks = _queue_peaks(recorder)
    downlink = topology.node("switch-0").interface_to("receiver")
    assert max(peaks, key=peaks.__getitem__) == f"queue.packets/{downlink.name}"


def test_queue_probe_records_nothing_without_traffic() -> None:
    simulator = Simulator()
    topology = IncastTopology(simulator, fan_in=2)
    recorder = TelemetryRecorder(groups=("queue",))
    for node in (*topology.hosts, *topology.switches):
        node.probes = recorder
    simulator.run(until=0.1)
    assert recorder.series == {}


def test_queue_samples_never_exceed_the_queue_capacity() -> None:
    _, recorder, _, _ = _incast_burst(fan_in=16)
    assert max(_queue_peaks(recorder).values()) <= _INCAST_QUEUE_PACKETS


def test_observing_queues_adds_no_events_and_changes_no_flow() -> None:
    # The probe samples inside the enqueue it observes, so it schedules
    # nothing: a periodic sampler added 15,000 events to this very burst.
    def outcome(groups):
        _, _, simulator, flows = _incast_burst(fan_in=8, groups=groups)
        return simulator.events_processed, [
            (receiver.complete, receiver.completion_time, asdict(sender.stats))
            for receiver, sender in flows
        ]

    assert outcome(("queue",)) == outcome(())
