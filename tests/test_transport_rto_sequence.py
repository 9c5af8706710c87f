"""Unit tests for RTT/RTO estimation, the receive buffer and the segment map."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.transport.sequence as sequence
from repro.transport.rto import RtoEstimator
from repro.transport.sequence import ReceiveBuffer, SegmentMap

from support import ReferenceSegmentMap, live_chunks, segment_map_bytes


class TestRtoEstimator:
    def test_initial_rto_used_before_samples(self) -> None:
        estimator = RtoEstimator(min_rto=0.2, initial_rto=1.0)
        assert estimator.rto == 1.0
        assert estimator.smoothed_rtt == 1.0

    def test_first_sample_initialises_srtt(self) -> None:
        estimator = RtoEstimator(min_rto=0.0001)
        estimator.add_sample(0.010)
        assert estimator.srtt == pytest.approx(0.010)
        assert estimator.rttvar == pytest.approx(0.005)
        # RTO = srtt + 4 * rttvar = 30 ms
        assert estimator.rto == pytest.approx(0.030)

    def test_min_rto_clamp_dominates_small_rtts(self) -> None:
        # The data-centre pathology: microsecond RTTs but a 200 ms floor.
        estimator = RtoEstimator(min_rto=0.2)
        for _ in range(20):
            estimator.add_sample(0.0005)
        assert estimator.rto == 0.2

    def test_smoothing_converges_towards_stable_rtt(self) -> None:
        estimator = RtoEstimator(min_rto=0.0001)
        for _ in range(100):
            estimator.add_sample(0.02)
        assert estimator.srtt == pytest.approx(0.02, rel=1e-3)
        assert estimator.rttvar == pytest.approx(0.0, abs=1e-3)

    def test_backoff_doubles_and_sample_resets(self) -> None:
        estimator = RtoEstimator(min_rto=0.0001, max_rto=60.0)
        estimator.add_sample(0.01)
        base = estimator.rto
        estimator.backoff()
        assert estimator.rto == pytest.approx(2 * base)
        estimator.backoff()
        assert estimator.rto == pytest.approx(4 * base)
        # A fresh measurement cancels the backoff (RFC 6298 §5.7); the RTO
        # returns to the un-backed-off scale (the smoothing tightens it a bit).
        estimator.add_sample(0.01)
        assert estimator.backoff_factor == 1.0
        assert estimator.rto <= base

    def test_max_rto_clamp(self) -> None:
        estimator = RtoEstimator(min_rto=0.2, max_rto=1.0)
        for _ in range(10):
            estimator.backoff()
        assert estimator.rto == 1.0

    def test_min_rtt_tracked(self) -> None:
        estimator = RtoEstimator()
        estimator.add_sample(0.03)
        estimator.add_sample(0.01)
        estimator.add_sample(0.05)
        assert estimator.min_rtt == pytest.approx(0.01)

    def test_invalid_parameters_and_samples(self) -> None:
        with pytest.raises(ValueError):
            RtoEstimator(min_rto=0.0)
        with pytest.raises(ValueError):
            RtoEstimator(min_rto=1.0, max_rto=0.5)
        estimator = RtoEstimator()
        with pytest.raises(ValueError):
            estimator.add_sample(0.0)


class TestReceiveBuffer:
    def test_in_order_delivery_advances_frontier(self) -> None:
        buffer = ReceiveBuffer()
        assert buffer.add(0, 1000) == 1000
        assert buffer.add(1000, 1000) == 1000
        assert buffer.rcv_nxt == 2000
        assert buffer._segments == []

    def test_out_of_order_held_then_absorbed(self) -> None:
        buffer = ReceiveBuffer()
        assert buffer.add(1000, 1000) == 0
        assert buffer.rcv_nxt == 0
        assert buffer._segments == [(1000, 2000)]
        assert buffer.out_of_order_arrivals == 1
        # Filling the gap releases both segments at once.
        assert buffer.add(0, 1000) == 2000
        assert buffer.rcv_nxt == 2000
        assert buffer._segments == []

    def test_duplicate_data_counted_not_readded(self) -> None:
        buffer = ReceiveBuffer()
        buffer.add(0, 1000)
        assert buffer.add(0, 1000) == 0
        assert buffer.rcv_nxt == 1000
        assert buffer._segments == []

    def test_partial_overlap_with_frontier(self) -> None:
        buffer = ReceiveBuffer()
        buffer.add(0, 1000)
        advanced = buffer.add(500, 1000)
        assert advanced == 500
        assert buffer.rcv_nxt == 1500

    def test_multiple_gaps_and_missing_ranges(self) -> None:
        buffer = ReceiveBuffer()
        buffer.add(2000, 1000)
        buffer.add(4000, 1000)
        # Two gaps: [0, 2000) before the frontier's first range, [3000, 4000).
        assert (buffer.rcv_nxt, buffer._segments) == (0, [(2000, 3000), (4000, 5000)])
        buffer.add(0, 2000)
        assert (buffer.rcv_nxt, buffer._segments) == (3000, [(4000, 5000)])
        buffer.add(3000, 1000)
        assert (buffer.rcv_nxt, buffer._segments) == (5000, [])

    def test_has_received(self) -> None:
        buffer = ReceiveBuffer()
        buffer.add(0, 1000)
        buffer.add(2000, 500)
        # Received: [0, 1000) in order and [2000, 2500) out of order.
        assert buffer.rcv_nxt == 1000
        assert buffer._segments == [(2000, 2500)]

    def test_zero_or_negative_length_ignored(self) -> None:
        buffer = ReceiveBuffer()
        assert buffer.add(0, 0) == 0
        assert buffer.add(10, -5) == 0
        assert buffer.rcv_nxt == 0


#: A small MSS keeps every sequence number of a drawn map cheap to read.
MAP_MSS = 4

#: One step driven through both maps: ``("map", size, dsn)`` maps a chunk,
#: ``("forget", draw)`` forgets below ``draw % (end + 1)`` and ``("clear",)``
#: is a connection's completion.  Most chunks are one MSS, as a subflow's are.
map_steps = st.lists(
    st.one_of(
        st.tuples(st.just("map"), st.just(MAP_MSS), st.integers(0, 10**6)),
        st.tuples(st.just("map"), st.integers(1, MAP_MSS), st.integers(0, 10**6)),
        st.tuples(st.just("forget"), st.integers(0, 10**6)),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


def _step(segment_map: SegmentMap, reference: ReferenceSegmentMap, step: tuple) -> None:
    if step[0] == "map":
        segment_map.append(reference.end, step[2])
        reference.append(step[2], step[1])
    elif step[0] == "forget":
        floor = step[1] % (reference.end + 1)
        segment_map.forget_below(floor, reference.end)
        reference.forget_below(floor)
    else:
        segment_map.clear()
        reference.clear()


def _assert_same_answers(segment_map: SegmentMap, reference: ReferenceSegmentMap) -> None:
    # Every sequence number from below the oldest chunk to past the end:
    # forgotten starts, live starts, offsets inside a chunk, end and beyond.
    end = reference.end
    for seq in range(-1, end + MAP_MSS + 2):
        assert segment_map.payload_at(seq, end) == reference.payload_at(seq), seq
        assert segment_map.dsn_at(seq) == reference.dsn_at(seq), seq
    chunks = live_chunks(segment_map, end)
    assert chunks == reference.chunks()
    assert len(chunks) == len(reference.segments)
    assert (chunks[0][0] if chunks else end) == reference.start


class TestSegmentMap:
    @given(steps=map_steps, last=st.integers(1, MAP_MSS - 1), last_dsn=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_answers_as_the_dict_it_replaced(self, steps, last: int, last_dsn: int) -> None:
        segment_map = SegmentMap(MAP_MSS)
        reference = ReferenceSegmentMap()
        _assert_same_answers(segment_map, reference)
        for step in [*steps, ("map", last, last_dsn)]:
            _step(segment_map, reference, step)
            _assert_same_answers(segment_map, reference)

    def test_answers_as_the_dict_over_a_long_windowed_transfer(self) -> None:
        # A sender's shape at scale: a window of MSS chunks at shuffled DSNs,
        # a floor that trails it (and sometimes stops inside a chunk), and a
        # short stream-final chunk, so the arrays compact many times over.
        rng = random.Random(20150817)
        mss = 1000
        segment_map = SegmentMap(mss)
        reference = ReferenceSegmentMap()
        for _ in range(3000):
            size = mss if rng.random() < 0.98 else rng.randint(1, mss - 1)
            dsn = rng.randrange(0, 10**9)
            segment_map.append(reference.end, dsn)
            reference.append(dsn, size)
            floor = max(reference.start, reference.end - rng.randint(0, 40) * mss)
            floor -= rng.choice((0, 0, 0, 1, mss // 2))
            segment_map.forget_below(floor, reference.end)
            reference.forget_below(floor)
            for seq in (reference.start - mss, reference.start, floor, floor + 1,
                        reference.end - size, reference.end, reference.end + mss):
                assert segment_map.payload_at(seq, reference.end) == reference.payload_at(seq)
                assert segment_map.dsn_at(seq) == reference.dsn_at(seq)
        assert live_chunks(segment_map, reference.end) == reference.chunks()
        segment_map.clear()
        reference.clear()
        _assert_same_answers(segment_map, reference)

    def test_a_read_on_mss_chunks_does_not_bisect(self, monkeypatch) -> None:
        bisects = []
        bisect_left = sequence.bisect_left

        def counting(*args):
            bisects.append(args[1])
            return bisect_left(*args)

        monkeypatch.setattr(sequence, "bisect_left", counting)
        segment_map = SegmentMap(1000)
        for index in range(64):
            segment_map.append(1000 * index, 10 * index)
        segment_map.forget_below(5000, 64_000)
        for seq in range(5000, 64_000, 1000):
            assert segment_map.dsn_at(seq) == seq // 100
            assert segment_map.payload_at(seq, 64_000) == 1000
        assert bisects == []
        # A chunk shorter than the MSS before the one read makes the guess
        # miss; the bisect still finds the chunk.
        short = SegmentMap(1000)
        for start in (0, 1000, 1400, 2400):
            short.append(start, start)
        assert short.payload_at(2400, 3400) == 1000
        assert bisects == [2400]

    def test_a_chunk_costs_two_machine_ints(self) -> None:
        segment_map = SegmentMap(1000)
        empty = segment_map_bytes(segment_map)
        chunks = 10_000
        for index in range(chunks):
            segment_map.append(1000 * index, 1000 * index)
        grown = segment_map_bytes(segment_map) - empty
        # Two 8-byte ints per chunk, plus ``array``'s over-allocation of at
        # most 1/16 of its length and 7 items; the dict of (dsn, size) tuples
        # it replaced cost about 150-200 bytes per chunk.
        assert grown <= 2 * 8 * (chunks + chunks // 16 + 7)
        assert grown / chunks <= 17
