"""Tests for MPTCP: subflows, data allocation, LIA coupling and completion."""

from __future__ import annotations

import random
from functools import reduce
from operator import add

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.transport.base import TcpConfig
from repro.transport.cc.lia import LiaController
from repro.transport.mptcp import MptcpConnection, MptcpReceiver, MptcpSubflow
from support import (
    RTO_REWIND_BYTES,
    RTO_REWIND_CONFIG,
    TwoHostTopology,
    TwoPathTopology,
    forwarded_packets,
    live_chunks,
    record_allocations,
    rto_rewind_topology,
)

TEST_CONFIG = TcpConfig(mss=1000, initial_cwnd_segments=2)


def _run_mptcp(size: int, subflows: int, paths: int = 4, queue_packets: int = 100,
               until: float = 30.0, instrument=None):
    simulator = Simulator()
    topology = TwoPathTopology(
        simulator, paths=paths,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_packets),
    )
    receiver = MptcpReceiver(simulator, topology.receiver, local_port=5001,
                             expected_bytes=size)
    connection = MptcpConnection(
        simulator, topology.sender, topology.receiver.address, 5001,
        size, num_subflows=subflows, config=TEST_CONFIG,
    )
    if instrument is not None:
        instrument(connection)
    connection.start()
    simulator.run(until=until)
    return connection, receiver, topology


class TestBasicOperation:
    def test_transfer_completes_with_multiple_subflows(self) -> None:
        connection, receiver, _ = _run_mptcp(300_000, subflows=4)
        assert connection.complete
        assert receiver.complete
        assert receiver.bytes_received_in_order == 300_000

    def test_every_byte_allocated_exactly_once(self) -> None:
        chunks: list = []
        connection, receiver, _ = _run_mptcp(
            100_000, subflows=3,
            instrument=lambda connection: record_allocations(connection, chunks))
        allocated = sum(subflow.total_bytes for subflow in connection.subflows)
        assert allocated == 100_000
        # DSN ranges, recorded as they were allocated, must tile the stream
        # without overlap.
        ranges = sorted((dsn, dsn + size) for _, dsn, size in chunks)
        cursor = 0
        for start, end in ranges:
            assert start == cursor
            cursor = end
        assert cursor == 100_000

    def test_multiple_subflows_carry_data(self) -> None:
        connection, _, _ = _run_mptcp(400_000, subflows=4)
        carrying = [s for s in connection.subflows if s.total_bytes > 0]
        assert len(carrying) >= 2

    def test_subflows_use_distinct_source_ports_and_paths(self) -> None:
        connection, _, topology = _run_mptcp(400_000, subflows=4, paths=4)
        ports = {subflow.local_port for subflow in connection.subflows}
        assert len(ports) == 4
        used_paths = [s for s in topology.core_switches if forwarded_packets(s) > 0]
        assert len(used_paths) >= 2

    def test_single_subflow_mptcp_degenerates_to_tcp_like_behaviour(self) -> None:
        connection, receiver, _ = _run_mptcp(100_000, subflows=1)
        assert connection.complete
        assert connection.subflows[0].total_bytes == 100_000

    def test_aggregate_stats_sum_subflows(self) -> None:
        connection, _, _ = _run_mptcp(200_000, subflows=3)
        stats = connection.aggregate_stats()
        for name in ("data_packets_sent", "retransmitted_packets", "fast_retransmits",
                     "rto_events", "spurious_retransmits", "duplicate_acks"):
            assert getattr(stats, name) == sum(
                getattr(s.stats, name) for s in connection.subflows
            ), name
        assert stats.data_packets_sent > 0

    def test_validation(self) -> None:
        simulator = Simulator()
        topology = TwoHostTopology(simulator)
        with pytest.raises(ValueError):
            MptcpConnection(simulator, topology.sender, topology.receiver.address, 5001,
                            1000, num_subflows=0)
        with pytest.raises(ValueError):
            MptcpConnection(simulator, topology.sender, topology.receiver.address, 5001,
                            -5, num_subflows=2)


class TestLossRecovery:
    def test_recovers_from_congestion_on_narrow_queues(self) -> None:
        connection, receiver, _ = _run_mptcp(400_000, subflows=4, queue_packets=8,
                                             until=60.0)
        assert receiver.complete
        stats = connection.aggregate_stats()
        assert stats.retransmitted_packets > 0

    def test_thin_subflow_windows_suffer_rtos_for_short_flows(self) -> None:
        # 8 subflows for a 70 KB flow leaves ~6 packets per subflow; with a
        # lossy bottleneck some subflows cannot raise 3 dup-ACKs and must wait
        # for the retransmission timer — the pathology motivating MMPTCP.
        # With a generous queue the same flow finishes without any timeout.
        lossy, lossy_recv, _ = _run_mptcp(70_000, subflows=8, paths=1, queue_packets=3,
                                          until=60.0)
        clean, clean_recv, _ = _run_mptcp(70_000, subflows=8, paths=4, queue_packets=100,
                                          until=60.0)
        assert lossy_recv.complete and clean_recv.complete
        assert clean.aggregate_stats().rto_events == 0
        assert lossy.completion_time > clean.completion_time


class _SegmentMapWatch:
    """Inspects every subflow's seq -> (dsn, size) map after each refill.

    Records the peak map size and the peak ``cwnd // mss`` per subflow.
    After each refill that mapped a chunk it also collects ``stale``: the
    entries still meeting the removal rule, i.e. ending at or below both
    ``snd_una`` and ``snd_nxt``.
    """

    def __init__(self, connection) -> None:
        self.peaks: dict = {}
        self.stale: list = []
        self._refill = connection._refill_subflow
        connection._refill_subflow = self._watched

    def _watched(self, subflow) -> None:
        before = subflow.total_bytes
        self._refill(subflow)
        peak = self.peaks.setdefault(subflow.subflow_id, [0, 0])
        peak[0] = max(peak[0], len(live_chunks(subflow._segment_map, subflow.total_bytes)))
        peak[1] = max(peak[1], int(subflow.cwnd) // subflow.mss)
        if subflow.total_bytes == before:
            return
        floor = min(subflow.snd_una, subflow.snd_nxt)
        self.stale.extend(
            (subflow.subflow_id, seq)
            for seq, _, size in live_chunks(subflow._segment_map, subflow.total_bytes)
            if seq + size <= floor
        )


class TestSegmentMap:
    def test_map_is_bounded_by_data_in_flight(self) -> None:
        # Narrow queues keep the windows far below the 2,000-segment stream
        # and force losses, so both cursors and the data-level ACK lag.
        watches = []
        connection, receiver, _ = _run_mptcp(
            2_000_000, subflows=4, paths=2, queue_packets=10,
            instrument=lambda connection: watches.append(_SegmentMapWatch(connection)))
        watch = watches[0]
        assert receiver.complete
        assert connection.aggregate_stats().retransmitted_packets > 0
        assert watch.stale == []
        # A subflow keeps only what it may still send itself, so its own
        # peak window bounds its map, whatever its siblings lose.
        for subflow in connection.subflows:
            peak_map, peak_window = watch.peaks[subflow.subflow_id]
            assert peak_map <= peak_window + 1
            assert 2 * peak_map < subflow.total_bytes // TEST_CONFIG.mss

    def test_map_serves_reads_below_snd_una_after_an_rto_rewind(self) -> None:
        # After the RTO rewind a cumulative ACK leaves snd_nxt below snd_una,
        # and send_available reads the map at snd_nxt (the resend is a known
        # TCP defect).  Pruning at snd_una alone would miss that read and
        # stall the subflow, so every read inside the mapped range must hit.
        simulator = Simulator()
        topology = rto_rewind_topology(simulator)
        receiver = MptcpReceiver(simulator, topology.receiver, local_port=5001,
                                 expected_bytes=RTO_REWIND_BYTES)
        connection = MptcpConnection(
            simulator, topology.sender, topology.receiver.address, 5001,
            RTO_REWIND_BYTES, num_subflows=1, config=RTO_REWIND_CONFIG)
        subflow = connection.subflows[0]
        reads = []
        payload_at = subflow._payload_at

        def spying(seq: int) -> int:
            payload = payload_at(seq)
            reads.append((seq, subflow.snd_una, subflow.total_bytes, payload))
            return payload

        subflow._payload_at = spying
        connection.start()
        simulator.run(until=10.0)
        assert receiver.complete and connection.complete
        assert any(seq < snd_una for seq, snd_una, _, _ in reads)
        misses = [seq for seq, _, mapped_end, payload in reads
                  if seq < mapped_end and payload <= 0]
        assert misses == []

    @pytest.mark.parametrize("protocol", ["mptcp", "mmptcp"])
    def test_maps_are_empty_once_the_connection_completes(
        self, monkeypatch, protocol: str
    ) -> None:
        connections: list = []
        late_reads: list = []
        init = MptcpConnection.__init__
        payload_at = MptcpSubflow._payload_at

        def recording(connection, *args, **kwargs) -> None:
            init(connection, *args, **kwargs)
            connections.append(connection)

        def spying(subflow, seq: int) -> int:
            payload = payload_at(subflow, seq)
            if subflow.connection.complete:
                late_reads.append(payload)
            return payload

        monkeypatch.setattr(MptcpConnection, "__init__", recording)
        monkeypatch.setattr(MptcpSubflow, "_payload_at", spying)
        run_experiment(ExperimentConfig(
            fattree_k=4, hosts_per_edge=2, link_rate_bps=200e6,
            arrival_window_s=0.1, drain_time_s=0.6, short_flow_rate_per_sender=4.0,
            long_flow_size_bytes=400_000, short_flow_size_bytes=70_000,
            max_short_flows=6, protocol=protocol, num_subflows=2,
            seed=7,
        ))
        assert connections and all(connection.complete for connection in connections)
        for connection in connections:
            for subflow in connection.subflows:
                segment_map = subflow._segment_map
                assert live_chunks(segment_map, subflow.total_bytes) == []
                # Emptied, not just forgotten: the arrays hold no chunk.
                assert len(segment_map._starts) == len(segment_map._dsns) == 0
        assert late_reads == []

    def test_a_subflow_dict_holds_only_endpoint_and_subflow_state(self) -> None:
        # TcpSender keeps its own state in slots, so a subflow's instance
        # dict stays small enough for CPython's shared-key layout.
        simulator = Simulator()
        topology = TwoHostTopology(simulator)
        connection = MptcpConnection(simulator, topology.sender, topology.receiver.address,
                                     5001, 10_000, num_subflows=1, config=TEST_CONFIG)
        assert set(vars(connection.subflows[0])) == {
            "simulator", "host", "local_port",
            "connection", "_segment_map",
        }


class TestLiaCoupling:
    def test_lia_increase_never_exceeds_uncoupled_newreno(self) -> None:
        connection, _, _ = _run_mptcp(100_000, subflows=2)
        subflow = connection.subflows[0]
        controller = LiaController(connection)
        subflow.ssthresh = 1.0  # force congestion-avoidance branch
        before = subflow.cwnd
        controller.on_ack(subflow, subflow.mss)
        coupled_increase = subflow.cwnd - before
        subflow.cwnd = before
        uncoupled_increase = subflow.mss * subflow.mss / before
        assert coupled_increase <= uncoupled_increase + 1e-9

    def test_lia_slow_start_matches_newreno(self) -> None:
        connection, _, _ = _run_mptcp(50_000, subflows=2)
        subflow = connection.subflows[0]
        controller = LiaController(connection)
        subflow.ssthresh = 1e9
        before = subflow.cwnd
        controller.on_ack(subflow, subflow.mss)
        assert subflow.cwnd == pytest.approx(before + subflow.mss)

    def test_alpha_computation_handles_empty_connection(self) -> None:
        simulator = Simulator()
        topology = TwoHostTopology(simulator)
        connection = MptcpConnection(simulator, topology.sender, topology.receiver.address,
                                     5001, 10_000, num_subflows=2, config=TEST_CONFIG)
        controller = LiaController(connection)
        _, alpha = controller._coupling()
        assert alpha > 0.0

    def test_coupling_is_bit_equal_to_the_rfc_formula(self) -> None:
        # The one-pass sums must round exactly as the RFC formula summed left
        # to right over the live subflows (what sum() did before Python 3.12
        # compensated it), or a congestion-avoidance ACK moves cwnd.
        def sequential_sum(values) -> float:
            return reduce(add, values, 0.0)

        rng = random.Random(6356)
        simulator = Simulator()
        topology = TwoHostTopology(simulator)
        connection = MptcpConnection(simulator, topology.sender, topology.receiver.address,
                                     5001, 10_000, num_subflows=8, config=TEST_CONFIG)
        controller = LiaController(connection)
        for _ in range(200):
            for subflow in connection.subflows:
                subflow.established = rng.random() < 0.8
                subflow.complete = rng.random() < 0.2
                subflow.cwnd = rng.choice((0.0, rng.uniform(1_000, 300_000)))
                subflow.rto_estimator.add_sample(rng.uniform(20e-6, 0.05))
            live = [subflow for subflow in connection.subflows
                    if subflow.established and not subflow.complete and subflow.cwnd > 0]
            total_cwnd = sequential_sum(subflow.cwnd for subflow in live)
            denominator = sequential_sum(
                subflow.cwnd / subflow.rto_estimator.smoothed_rtt for subflow in live)
            alpha = 1.0 if not live else total_cwnd * max(
                subflow.cwnd / subflow.rto_estimator.smoothed_rtt**2 for subflow in live
            ) / denominator**2
            assert controller._coupling() == (total_cwnd, alpha)


class TestReceiver:
    def test_reordering_events_counted(self) -> None:
        connection, receiver, _ = _run_mptcp(300_000, subflows=4, queue_packets=10,
                                             until=60.0)
        assert receiver.complete
        # Out-of-order arrivals at the data level are expected once losses and
        # multiple subflows are involved; the counter must be non-negative and
        # consistent with the per-subflow buffers.
        assert receiver.reordering_events >= 0
        assert receiver.bytes_received_in_order == 300_000

    def test_receiver_tracks_one_buffer_per_subflow(self) -> None:
        connection, receiver, _ = _run_mptcp(200_000, subflows=3)
        active = [s for s in connection.subflows if s.stats.data_packets_sent > 0]
        assert set(receiver.subflow_buffers.keys()) >= {s.subflow_id for s in active}
