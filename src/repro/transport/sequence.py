"""Byte-sequence bookkeeping shared by senders and receivers.

:class:`ReceiveBuffer` tracks the in-order frontier (``rcv_nxt``) of a byte
stream plus any out-of-order byte ranges already received, exactly what a
TCP receive buffer does minus the actual payload bytes (the simulator never
materialises data).  MPTCP receivers keep one buffer per subflow (subflow
sequence space) and one for the connection-level data sequence space.

:class:`SegmentMap` is the sender's side: where each chunk an MPTCP subflow
may still send sits in the connection's data sequence space.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import List, Tuple

_segment_start = itemgetter(0)
_segment_end = itemgetter(1)


class ReceiveBuffer:
    """Tracks which byte ranges of a stream have been received."""

    def __init__(self) -> None:
        self.rcv_nxt = 0
        #: sorted, disjoint, non-adjacent out-of-order ranges [start, end)
        self._segments: List[Tuple[int, int]] = []
        self.out_of_order_arrivals = 0

    # ------------------------------------------------------------------

    def add(self, start: int, length: int) -> int:
        """Record the arrival of bytes ``[start, start+length)``.

        Returns the number of bytes by which the in-order frontier advanced
        (zero for out-of-order or duplicate data).
        """
        if length <= 0:
            return 0
        end = start + length
        if end <= self.rcv_nxt:
            return 0

        previous_frontier = self.rcv_nxt
        if start > self.rcv_nxt:
            self.out_of_order_arrivals += 1
            self._insert_segment(start, end)
            return 0

        # Overlaps the frontier: advance it, then absorb any stored segments
        # that have become contiguous.
        self.rcv_nxt = max(self.rcv_nxt, end)
        self._absorb_contiguous()
        return self.rcv_nxt - previous_frontier

    def _insert_segment(self, start: int, end: int) -> None:
        """File ``[start, end)``, merging every stored range it overlaps or touches.

        ``_segments`` is sorted, disjoint and non-adjacent, so its starts and
        its ends are both increasing: the ranges to merge are the contiguous
        run from the first whose end reaches ``start`` to the last whose start
        is within ``end``.  O(log n + merged).
        """
        segments = self._segments
        first = bisect_left(segments, start, key=_segment_end)
        after = bisect_right(segments, end, key=_segment_start)
        if first < after:
            start = min(start, segments[first][0])
            end = max(end, segments[after - 1][1])
        segments[first:after] = [(start, end)]

    def _absorb_contiguous(self) -> None:
        while self._segments and self._segments[0][0] <= self.rcv_nxt:
            seg_end = self._segments.pop(0)[1]
            if seg_end > self.rcv_nxt:
                self.rcv_nxt = seg_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReceiveBuffer(rcv_nxt={self.rcv_nxt}, ooo={self._segments})"


class SegmentMap:
    """Subflow sequence → data sequence mapping of the chunks still sendable.

    A subflow maps each chunk the connection hands it at the end of its own
    sequence space, so the mapped chunks tile the range up to the subflow's
    ``total_bytes`` with no gap; the reads that need that bound take it as
    ``end``.  Each chunk is therefore two machine ints in two parallel
    ``array('q')``: its subflow-sequence start and its DSN.  Its size is the
    distance to the next start, or to ``end`` for the last chunk.  Chunks
    below ``_head`` are forgotten, and the arrays drop them once the head
    passes half their length, so no Python object exists per chunk.

    A read answers what a ``{start: (dsn, size)}`` dict of the live chunks
    would: only a live chunk's exact start hits, and any other sequence
    number (forgotten, inside a chunk, at or past ``end``) reads as payload
    0 and DSN ``seq``.  Chunks are one MSS but for the stream's last, so a
    read guesses the index from the offset and bisects only on a miss.
    """

    __slots__ = ("_starts", "_dsns", "_head", "_mss")

    def __init__(self, mss: int) -> None:
        self._starts = array("q")
        self._dsns = array("q")
        self._head = 0
        self._mss = mss

    def append(self, start: int, dsn: int) -> None:
        """Map the chunk at ``start``, where the last one ends, to ``dsn``."""
        self._starts.append(start)
        self._dsns.append(dsn)

    def _index(self, seq: int) -> int:
        """Index of the live chunk starting at ``seq``, or -1 if none does."""
        starts = self._starts
        head = self._head
        count = len(starts)
        if head == count or seq < starts[head]:
            return -1
        index = head + (seq - starts[head]) // self._mss
        if index < count and starts[index] == seq:
            return index
        index = bisect_left(starts, seq, head)
        return index if index < count and starts[index] == seq else -1

    def payload_at(self, seq: int, end: int) -> int:
        """Size of the live chunk starting at ``seq`` (0 if none does)."""
        index = self._index(seq) + 1
        if not index:
            return 0
        return (self._starts[index] if index < len(self._starts) else end) - seq

    def dsn_at(self, seq: int) -> int:
        """DSN of the live chunk starting at ``seq`` (``seq`` if none does)."""
        index = self._index(seq)
        return self._dsns[index] if index >= 0 else seq

    def forget_below(self, floor: int, end: int) -> None:
        """Forget the oldest chunks that end at or below ``floor``."""
        starts = self._starts
        head = self._head
        last = len(starts) - 1
        while head < last and starts[head + 1] <= floor:
            head += 1
        if head == last and end <= floor:
            head += 1
        if 2 * head > len(starts):
            del starts[:head]
            del self._dsns[:head]
            head = 0
        self._head = head

    def clear(self) -> None:
        """Forget every chunk."""
        del self._starts[:]
        del self._dsns[:]
        self._head = 0
