"""Tests for MMPTCP: packet scatter, phase switching and the full hybrid."""

from __future__ import annotations

import random

from repro.core.mmptcp import PHASE_MPTCP, PHASE_PACKET_SCATTER, MmptcpConnection
from repro.core.phase_switching import (
    CongestionEventSwitching,
    DataVolumeSwitching,
    HybridSwitching,
    NeverSwitch,
)
from repro.core.reordering import StaticReorderingPolicy, TopologyInformedPolicy
from repro.net.queues import DropTailQueue
from repro.obs.telemetry import TelemetryRecorder
from repro.sim.engine import Simulator
from repro.transport.base import TcpConfig
from repro.transport.mptcp import MptcpReceiver
from support import TwoHostTopology, TwoPathTopology, forwarded_packets

TEST_CONFIG = TcpConfig(mss=1000, initial_cwnd_segments=2)


def _run_mmptcp(size: int, *, paths: int = 4, subflows: int = 4, queue_packets: int = 100,
                switching=None, reordering=None, until: float = 30.0, seed: int = 1,
                probes=None, instrument=None):
    simulator = Simulator()
    topology = TwoPathTopology(
        simulator, paths=paths,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_packets),
    )
    receiver = MptcpReceiver(simulator, topology.receiver, local_port=5001,
                             expected_bytes=size)
    connection = MmptcpConnection(
        simulator, topology.sender, topology.receiver.address, 5001, size,
        num_subflows=subflows, config=TEST_CONFIG,
        switching_policy=switching if switching is not None else DataVolumeSwitching(100_000),
        reordering_policy=reordering, path_count_hint=paths, rng=random.Random(seed),
    )
    if probes is not None:
        connection.set_probes(probes)
    if instrument is not None:
        instrument(topology)
    connection.start()
    simulator.run(until=until)
    return connection, receiver, topology


class TestPacketScatterPhase:
    def test_short_flow_completes_entirely_in_scatter_phase(self) -> None:
        connection, receiver, _ = _run_mmptcp(70_000, switching=DataVolumeSwitching(100_000))
        assert receiver.complete
        assert connection.complete
        assert connection.phase == PHASE_PACKET_SCATTER
        assert connection.switch_time is None
        assert len(connection.subflows) == 1  # only the scatter subflow exists

    def test_scattered_packets_use_randomised_source_ports(self) -> None:
        data_ports = []

        def record_data_ports(topology) -> None:
            deliver = topology.receiver.receive

            def receive(packet, interface) -> None:
                if packet.carries_data:
                    data_ports.append(packet.src_port)
                deliver(packet, interface)

            topology.receiver.receive = receive

        connection, receiver, topology = _run_mmptcp(70_000, instrument=record_data_ports)
        assert receiver.complete
        scatter = connection.scatter_subflow
        assert len(data_ports) >= 70_000 // TEST_CONFIG.mss
        assert len(set(data_ports)) > len(data_ports) // 2
        assert scatter.local_port not in data_ports
        # The receiver learned exactly one canonical port (from the SYN) even
        # though the data packets carried many different source ports.
        assert receiver.subflow_peer_ports == {0: scatter.local_port}

    def test_scatter_spreads_over_multiple_paths(self) -> None:
        connection, receiver, topology = _run_mmptcp(140_000, paths=4,
                                                     switching=NeverSwitch())
        assert receiver.complete
        used_paths = [s for s in topology.core_switches if forwarded_packets(s) > 0]
        # A single-path flow would use exactly one path; packet scatter must
        # touch (almost) all of them.
        assert len(used_paths) >= 3

    def test_acks_reach_canonical_port_despite_scatter(self) -> None:
        connection, receiver, _ = _run_mmptcp(40_000)
        scatter = connection.scatter_subflow
        assert scatter.snd_una == scatter.total_bytes > 0


class TestPhaseSwitching:
    def test_long_flow_switches_on_data_volume(self) -> None:
        connection, receiver, _ = _run_mmptcp(600_000,
                                              switching=DataVolumeSwitching(100_000))
        assert receiver.complete
        assert connection.phase == PHASE_MPTCP
        assert connection.switch_time is not None
        assert connection.bytes_in_scatter_phase >= 100_000
        # The scatter subflow plus the configured number of MPTCP subflows.
        assert len(connection.subflows) == 1 + 4

    def test_scatter_flow_gets_no_new_data_after_switch(self) -> None:
        connection, receiver, _ = _run_mmptcp(600_000,
                                              switching=DataVolumeSwitching(100_000))
        assert receiver.complete
        scatter = connection.scatter_subflow
        # Everything beyond the scatter allocation was carried by MPTCP subflows.
        mptcp_allocated = sum(s.total_bytes for s in connection.subflows if s is not scatter)
        assert scatter.total_bytes + mptcp_allocated == 600_000
        assert mptcp_allocated > 0
        assert scatter.flight_size() == 0  # the scatter flow has drained

    def test_congestion_event_switching_triggers_on_loss(self) -> None:
        recorder = TelemetryRecorder()
        connection, receiver, _ = _run_mmptcp(
            500_000, queue_packets=6, switching=CongestionEventSwitching(), until=60.0,
            probes=recorder,
        )
        assert receiver.complete
        # The tiny queue guarantees at least one congestion event, so the
        # connection must have switched.
        assert connection.phase == PHASE_MPTCP
        (switch,) = [data for _, name, data in recorder.events if name == "phase.switch"]
        assert switch["reason"].startswith("congestion:")

    def test_never_switch_policy_keeps_single_scatter_flow(self) -> None:
        connection, receiver, _ = _run_mmptcp(400_000, switching=NeverSwitch(), until=60.0)
        assert receiver.complete
        assert connection.phase == PHASE_PACKET_SCATTER
        assert len(connection.subflows) == 1

    def test_phase_switch_callback_and_no_subflows_for_fully_allocated_flow(self) -> None:
        # The switch threshold sits below the flow size, but by the time it is
        # crossed the rest may already be allocated; either way the switch
        # happens exactly once for switching flows.
        recorder = TelemetryRecorder()
        connection, receiver, _ = _run_mmptcp(
            300_000, paths=2, subflows=2, switching=DataVolumeSwitching(50_000),
            probes=recorder,
        )
        assert receiver.complete
        assert connection.phase == PHASE_MPTCP
        assert recorder.counters["phase.switches"] == 1

    def test_hybrid_policy_switches_on_whichever_comes_first(self) -> None:
        connection, receiver, _ = _run_mmptcp(400_000, switching=HybridSwitching(80_000))
        assert receiver.complete
        assert connection.phase == PHASE_MPTCP


class TestMmptcpVsMptcpBehaviour:
    def test_scatter_phase_avoids_rtos_where_thin_subflows_fail(self) -> None:
        """A 70 KB flow through a small queue: MMPTCP's single scatter window
        recovers with fast retransmit while MPTCP(8) over the same bottleneck
        is prone to timeouts.  (Statistical claim checked at workload scale in
        the benchmarks; here we only require MMPTCP to finish promptly.)"""
        connection, receiver, _ = _run_mmptcp(70_000, paths=4, queue_packets=10,
                                              switching=DataVolumeSwitching(100_000),
                                              until=60.0)
        assert receiver.complete
        fct = connection.completion_time
        assert fct is not None and fct < 0.2  # no 200 ms RTO stall

    def test_pure_packet_scatter_connection(self) -> None:
        simulator = Simulator()
        topology = TwoPathTopology(simulator, paths=4)
        receiver = MptcpReceiver(simulator, topology.receiver, local_port=5001,
                                 expected_bytes=200_000)
        connection = MmptcpConnection(
            simulator, topology.sender, topology.receiver.address, 5001, 200_000,
            num_subflows=1, config=TEST_CONFIG, switching_policy=NeverSwitch(),
            path_count_hint=4,
        )
        connection.start()
        simulator.run(until=30.0)
        assert receiver.complete
        assert connection.phase == PHASE_PACKET_SCATTER
        assert len(connection.subflows) == 1  # the MPTCP phase never opened


class TestReorderingIntegration:
    def test_topology_informed_policy_reduces_spurious_retransmits(self) -> None:
        naive_policy = StaticReorderingPolicy(threshold=3)
        informed_policy = TopologyInformedPolicy(path_count=8)
        _run_naive = _run_mmptcp(200_000, paths=8, reordering=naive_policy,
                                 switching=NeverSwitch(), seed=5)
        _run_informed = _run_mmptcp(200_000, paths=8, reordering=informed_policy,
                                    switching=NeverSwitch(), seed=5)
        naive_conn, naive_recv, _ = _run_naive
        informed_conn, informed_recv, _ = _run_informed
        assert naive_recv.complete and informed_recv.complete
        naive_spurious = naive_conn.scatter_subflow.stats.fast_retransmits
        informed_spurious = informed_conn.scatter_subflow.stats.fast_retransmits
        # With the threshold sized to the path count, reordering-induced fast
        # retransmits must not exceed those of the naive threshold.
        assert informed_spurious <= naive_spurious

    def test_default_reordering_policy_is_topology_informed(self) -> None:
        simulator = Simulator()
        topology = TwoHostTopology(simulator)
        connection = MmptcpConnection(simulator, topology.sender, topology.receiver.address,
                                      5001, 10_000, path_count_hint=16)
        policy = connection.scatter_subflow.reordering_policy
        assert isinstance(policy, TopologyInformedPolicy)
        assert policy.path_count == 16
