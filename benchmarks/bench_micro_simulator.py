"""Micro-benchmarks of the simulation substrate itself.

Not part of the paper's evaluation — these measure the cost of the building
blocks (event loop, queue operations, ECMP hashing, a single TCP transfer)
so regressions in simulator performance are caught and so the wall-clock cost
of the figure-level benchmarks can be understood.
"""

from __future__ import annotations

import pytest

from engine_bench import run_timer_churn
from repro.net.ecmp import select_path
from repro.net.packet import FLAG_DATA, Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.units import megabits_per_second
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from repro.topology.simple import TwoHostTopology
from repro.transport.base import TcpConfig
from repro.transport.receiver import TcpReceiver
from repro.transport.tcp import TcpSender


@pytest.mark.benchmark(group="micro")
def test_micro_event_loop_throughput(benchmark) -> None:
    """Schedule-and-run cost of 100k chained events."""

    def run_events() -> int:
        simulator = Simulator()
        remaining = [100_000]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                simulator.schedule(1e-6, tick)

        simulator.schedule(0.0, tick)
        simulator.run()
        return simulator.events_processed

    events = benchmark(run_events)
    assert events == 100_001


@pytest.mark.benchmark(group="micro")
def test_micro_droptail_queue_operations(benchmark) -> None:
    """Enqueue/dequeue cost for 10k packets."""

    def churn() -> int:
        queue = DropTailQueue(capacity_packets=64)
        delivered = 0
        for index in range(10_000):
            queue.enqueue(Packet(flow_id=1, src=1, dst=2, src_port=index % 65535,
                                 dst_port=80, flags=FLAG_DATA, payload_size=1400))
            if index % 2:
                if queue.dequeue() is not None:
                    delivered += 1
        return delivered

    delivered = benchmark(churn)
    assert delivered > 0


@pytest.mark.benchmark(group="micro")
def test_micro_ecmp_hashing(benchmark) -> None:
    """Path-selection cost for 10k distinct 5-tuples."""

    packets = [
        Packet(flow_id=1, src=1, dst=2, src_port=1024 + index, dst_port=80,
               flags=FLAG_DATA, payload_size=1400)
        for index in range(10_000)
    ]

    def hash_all() -> int:
        return sum(select_path(packet, 16, salt=7) for packet in packets)

    total = benchmark(hash_all)
    assert total > 0


@pytest.mark.benchmark(group="micro")
def test_micro_timer_churn_wheel(benchmark) -> None:
    """RTO-style arm/re-arm churn through reusable Timer handles."""

    events = benchmark(lambda: run_timer_churn(use_timers=True, flows=256, ticks=50_000))
    assert events > 50_000


@pytest.mark.benchmark(group="micro")
def test_micro_timer_churn_naive_heap(benchmark) -> None:
    """The same churn as naive schedule/cancel events on the same heap."""

    events = benchmark(lambda: run_timer_churn(use_timers=False, flows=256, ticks=50_000))
    assert events > 50_000


@pytest.mark.benchmark(group="micro")
def test_micro_cancelled_event_compaction(benchmark) -> None:
    """Heavy schedule/cancel churn on the raw heap; hygiene must keep the
    physical queue bounded by the live population, not by total churn."""

    def churn() -> int:
        simulator = Simulator()
        survivors = 0
        event = None
        for index in range(50_000):
            simulator.cancel(event)
            event = simulator.schedule(1.0 + index * 1e-6, lambda: None)
        # One live event out of 50k scheduled: without compaction the heap
        # would hold every dead entry until run().
        assert simulator.heap_size < 1_000
        simulator.run()
        survivors += simulator.events_processed
        return survivors

    survivors = benchmark(churn)
    assert survivors == 1


@pytest.mark.benchmark(group="micro")
def test_micro_single_tcp_transfer(benchmark) -> None:
    """End-to-end cost of simulating one 500 KB TCP transfer."""

    def transfer() -> float:
        simulator = Simulator()
        topology = TwoHostTopology(simulator, link_rate_bps=megabits_per_second(1000))
        receiver = TcpReceiver(simulator, topology.receiver, local_port=5001,
                               expected_bytes=500_000)
        sender = TcpSender(simulator, topology.sender, topology.receiver.address, 5001,
                           500_000, config=TcpConfig())
        sender.start()
        simulator.run(until=10.0)
        assert receiver.complete
        return receiver.completion_time or 0.0

    fct = benchmark(transfer)
    assert fct > 0.0


@pytest.mark.benchmark(group="micro")
def test_micro_fattree_construction_and_routing(benchmark) -> None:
    """Cost of building and routing a k=8 FatTree (80 switches, 128 hosts)."""

    def build() -> int:
        topology = FatTreeTopology(Simulator(), FatTreeParams(k=8))
        return len(topology.hosts)

    hosts = benchmark(build)
    assert hosts == 128
