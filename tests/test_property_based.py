"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ecmp import fnv1a_64, select_path
from repro.net.packet import FLAG_DATA, Packet
from repro.net.queues import DropTailQueue
from repro.sim.randomness import derive_seed
from repro.sim.units import throughput_bps
from repro.traffic.arrivals import poisson_arrivals
from repro.traffic.matrices import permutation_pairs
from repro.transport.rto import RtoEstimator
from repro.transport.sequence import ReceiveBuffer

from support import (
    TwoPathTopology,
    record_allocations,
    reference_insert_segment,
    serialisation_delay,
)

# ---------------------------------------------------------------------------
# ReceiveBuffer: regardless of arrival order, delivering every segment of a
# stream exactly advances the frontier to the total length.
# ---------------------------------------------------------------------------

segment_lists = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=30
)


def _add_and_check(buffer: ReceiveBuffer, covered: list, start: int, length: int) -> list:
    """Add ``[start, start+length)`` to ``buffer`` and to the oracle's ``covered`` ranges.

    The buffer must then hold exactly the oracle's union of received bytes:
    the range from 0 as its frontier, every later range out of order.
    """
    buffer.add(start, length)
    covered = reference_insert_segment(covered, start, start + length)
    if covered[0][0] == 0:
        assert (buffer.rcv_nxt, buffer._segments) == (covered[0][1], covered[1:])
    else:
        assert (buffer.rcv_nxt, buffer._segments) == (0, covered)
    return covered


@given(sizes=segment_lists, order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_receive_buffer_reassembles_any_arrival_order(sizes, order_seed) -> None:
    segments = []
    offset = 0
    for size in sizes:
        segments.append((offset, size))
        offset += size
    total = offset
    rng = random.Random(order_seed)
    shuffled = segments[:]
    rng.shuffle(shuffled)

    buffer = ReceiveBuffer()
    covered: list = []
    for start, length in shuffled:
        covered = _add_and_check(buffer, covered, start, length)
    assert buffer.rcv_nxt == total
    assert buffer._segments == []


@given(sizes=segment_lists, dup_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_receive_buffer_idempotent_under_duplicates(sizes, dup_seed) -> None:
    segments = []
    offset = 0
    for size in sizes:
        segments.append((offset, size))
        offset += size
    rng = random.Random(dup_seed)
    stream = segments + [rng.choice(segments) for _ in range(len(segments))]
    rng.shuffle(stream)
    buffer = ReceiveBuffer()
    covered: list = []
    for start, length in stream:
        covered = _add_and_check(buffer, covered, start, length)
    # Duplicates neither move the frontier past the distinct bytes sent nor
    # leave anything buffered behind it.
    assert buffer.rcv_nxt == offset
    assert buffer._segments == []


@given(
    frontier_gap=st.integers(min_value=1, max_value=1000),
    length=st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_receive_buffer_out_of_order_never_advances_frontier(frontier_gap, length) -> None:
    buffer = ReceiveBuffer()
    advanced = buffer.add(frontier_gap, length)
    assert advanced == 0
    assert buffer.rcv_nxt == 0


@given(
    arrivals=st.lists(
        st.tuples(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_receive_buffer_insert_matches_the_linear_oracle(arrivals) -> None:
    # Out-of-order arrivals only (start >= 1 > rcv_nxt == 0): overlaps,
    # adjacency, containment and exact duplicates all land in the insert.
    buffer = ReceiveBuffer()
    expected: list = []
    for start, length in arrivals:
        assert buffer.add(start, length) == 0
        expected = reference_insert_segment(expected, start, start + length)
        assert buffer._segments == expected
    assert buffer.rcv_nxt == 0
    # Filling the gap absorbs everything contiguous with the frontier.
    buffer.add(0, 1)
    assert buffer.rcv_nxt == (expected[0][1] if expected[0][0] == 1 else 1)


# ---------------------------------------------------------------------------
# ECMP hashing: determinism, range, and flow stickiness.
# ---------------------------------------------------------------------------

packet_fields = st.tuples(
    st.integers(0, 2**20), st.integers(0, 2**20),
    st.integers(1, 65535), st.integers(1, 65535), st.integers(1, 64),
)


@given(fields=packet_fields, num_paths=st.integers(1, 64), salt=st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_ecmp_choice_in_range_and_deterministic(fields, num_paths, salt) -> None:
    src, dst, sport, dport, salt_extra = fields
    packet = Packet(flow_id=1, src=src, dst=dst, src_port=sport, dst_port=dport,
                    flags=FLAG_DATA, payload_size=10)
    choice = select_path(packet, num_paths, salt=salt)
    assert 0 <= choice < num_paths
    # Same 5-tuple, same salt -> same choice (flow stickiness under ECMP).
    clone = Packet(flow_id=2, src=src, dst=dst, src_port=sport, dst_port=dport,
                   flags=FLAG_DATA, payload_size=999)
    assert select_path(clone, num_paths, salt=salt) == choice


@given(values=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8),
       salt=st.integers(0, 2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_fnv_hash_is_stable_and_64bit(values, salt) -> None:
    digest = fnv1a_64(tuple(values), salt=salt)
    assert digest == fnv1a_64(tuple(values), salt=salt)
    assert 0 <= digest < 2**64


# ---------------------------------------------------------------------------
# Queues: conservation — every offered packet is either delivered, dropped or
# still buffered, in FIFO order, through enqueue and through transit().
# ---------------------------------------------------------------------------

queue_operations = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(("enqueue", "dequeue", "transit"))),
    min_size=1,
    max_size=200,
)


def _check_conservation(queues, operations, capacity=None) -> None:
    """Drive the ports of one switch and check the books after every step."""
    buffered = [[] for _ in queues]  # the FIFO each port should be holding
    dequeued = [0] * len(queues)
    for step, (port, operation) in enumerate(operations):
        port %= len(queues)
        queue, fifo = queues[port], buffered[port]
        packet = Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2, flags=FLAG_DATA,
                        payload_size=100 + 50 * (step % 3))
        if operation == "enqueue":
            if queue.enqueue(packet):
                fifo.append(packet)
        elif operation == "dequeue":
            expected = fifo.pop(0) if fifo else None
            assert queue.dequeue() is expected
            dequeued[port] += expected is not None
        elif fifo:
            with pytest.raises(RuntimeError):
                queue.transit(packet)
        elif queue.transit(packet):
            dequeued[port] += 1
        for held, count, each in zip(buffered, dequeued, queues):
            stats = each.stats
            assert len(each) == len(held)
            assert stats.enqueued_packets == count + len(each)
            assert stats.offered_packets == stats.enqueued_packets + stats.dropped_packets
            if capacity is not None:
                assert len(each) <= capacity


@given(capacity=st.integers(min_value=1, max_value=20), operations=queue_operations)
@settings(max_examples=200, deadline=None)
def test_droptail_queue_conserves_packets(capacity, operations) -> None:
    _check_conservation([DropTailQueue(capacity_packets=capacity)], operations,
                        capacity=capacity)


# ---------------------------------------------------------------------------
# RTO estimator: the timeout always respects its clamps.
# ---------------------------------------------------------------------------


@given(
    samples=st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=0, max_size=50),
    backoffs=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_rto_always_within_clamps(samples, backoffs) -> None:
    estimator = RtoEstimator(min_rto=0.2, max_rto=60.0)
    for sample in samples:
        estimator.add_sample(sample)
    for _ in range(backoffs):
        estimator.backoff()
    assert 0.2 <= estimator.rto <= 60.0


# ---------------------------------------------------------------------------
# Traffic generation invariants.
# ---------------------------------------------------------------------------


@given(n=st.integers(min_value=2, max_value=100), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_permutation_matrix_is_always_a_derangement(n, seed) -> None:
    hosts = [f"h{i}" for i in range(n)]
    pairs = permutation_pairs(hosts, random.Random(seed))
    assert len(pairs) == n
    assert all(src != dst for src, dst in pairs)
    assert sorted(dst for _, dst in pairs) == sorted(hosts)


@given(rate=st.floats(min_value=0.1, max_value=500.0),
       duration=st.floats(min_value=0.01, max_value=5.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_poisson_arrivals_sorted_and_in_window(rate, duration, seed) -> None:
    arrivals = poisson_arrivals(rate, duration, random.Random(seed))
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < duration for t in arrivals)


# ---------------------------------------------------------------------------
# Units and seed derivation.
# ---------------------------------------------------------------------------


@given(size=st.integers(min_value=0, max_value=10**9),
       rate=st.floats(min_value=1e3, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_transmission_delay_non_negative_and_linear(size, rate) -> None:
    delay = serialisation_delay(size, rate)
    assert delay >= 0.0
    assert serialisation_delay(2 * size, rate) >= delay


@given(size=st.integers(min_value=1, max_value=10**9),
       duration=st.floats(min_value=1e-6, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_throughput_roundtrips_with_transmission_delay(size, duration) -> None:
    rate = throughput_bps(size, duration)
    assert rate > 0
    assert serialisation_delay(size, rate) * (1 + 1e-9) >= duration * (1 - 1e-9)


@given(seed=st.integers(min_value=0, max_value=2**62), name=st.text(min_size=0, max_size=30))
@settings(max_examples=200, deadline=None)
def test_derive_seed_stable_and_in_range(seed, name) -> None:
    value = derive_seed(seed, name)
    assert value == derive_seed(seed, name)
    assert 0 <= value < 2**64


# ---------------------------------------------------------------------------
# MPTCP allocation: whatever the stream size and subflow count, the DSN
# ranges mapped onto subflows tile the stream exactly once — no byte is
# dropped, duplicated or allocated out of place.
# ---------------------------------------------------------------------------


@given(
    chunks=st.integers(min_value=1, max_value=40),
    subflows=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_mptcp_allocation_tiles_the_stream_exactly_once(chunks, subflows) -> None:
    from repro.sim.engine import Simulator
    from repro.transport.base import TcpConfig
    from repro.transport.mptcp import MptcpConnection, MptcpReceiver

    simulator = Simulator()
    topology = TwoPathTopology(simulator, paths=2)
    size = chunks * 1000
    receiver = MptcpReceiver(simulator, topology.receiver, local_port=5001,
                             expected_bytes=size)
    connection = MptcpConnection(
        simulator, topology.sender, topology.receiver.address, 5001, size,
        num_subflows=subflows, config=TcpConfig(mss=1000, initial_cwnd_segments=2))
    chunks = []
    record_allocations(connection, chunks)
    connection.start()
    simulator.run(until=60.0)
    assert receiver.complete
    ranges = sorted((dsn, dsn + length) for _, dsn, length in chunks)
    cursor = 0
    for start, end in ranges:
        assert start == cursor
        cursor = end
    assert cursor == size
