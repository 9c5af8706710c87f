"""Tests for the packet free-list pool and the cached packet-derived fields.

The two properties the data-plane refactor rests on:

* any acquire/release interleaving never yields two live packets that alias
  the same object, and released-packet state never leaks into a reused
  packet (every field of a recycled packet equals a freshly constructed
  one's);
* the cached derived fields (``size`` slot, packed ``flow_bytes``, memoised
  ``flow_hash``) always agree with their from-scratch definitions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ecmp import ecmp_hash, fnv1a_64
from repro.net.packet import (
    DEFAULT_HEADER_BYTES,
    FLAG_DATA,
    POISON,
    Packet,
    PacketPool,
    default_pool,
    release_packet,
    set_pool_debug,
)

#: Every constructor field of Packet, with small strategy domains.
_FIELD_STRATEGIES = dict(
    flow_id=st.integers(0, 5),
    src=st.integers(0, 300),
    dst=st.integers(0, 300),
    src_port=st.integers(1, 65535),
    dst_port=st.integers(1, 65535),
    seq=st.integers(0, 10_000),
    ack=st.integers(0, 10_000),
    flags=st.integers(0, 15),
    payload_size=st.integers(0, 2000),
    header_size=st.integers(1, 100),
    subflow_id=st.integers(0, 8),
    dsn=st.integers(0, 10_000),
    dack=st.integers(0, 10_000),
)

#: ``header_size`` is not kept: it shows only in ``size``.
_OBSERVABLE_FIELDS = tuple(
    name for name in _FIELD_STRATEGIES if name != "header_size"
) + ("protocol", "size")


def _fields(**overrides):
    base = dict(
        flow_id=1, src=10, dst=20, src_port=4000, dst_port=5001,
        flags=FLAG_DATA, payload_size=1400,
    )
    base.update(overrides)
    return base


def _flow_tuple(packet: Packet) -> tuple:
    """The 5-tuple ECMP hashes, in the reference hash's order."""
    return (packet.src, packet.dst, packet.src_port, packet.dst_port, packet.protocol)


# ---------------------------------------------------------------------------
# Pool discipline
# ---------------------------------------------------------------------------


class TestPacketPool:
    def test_acquire_reuses_released_packets(self) -> None:
        pool = PacketPool()
        first = pool.acquire(**_fields())
        pool.release(first)
        second = pool.acquire(**_fields(flow_id=9))
        assert second is first  # recycled object...
        assert second.flow_id == 9  # ...with completely fresh state
        assert pool.allocated == 1 and pool.reused == 1

    def test_double_release_raises(self) -> None:
        pool = PacketPool()
        packet = pool.acquire(**_fields())
        pool.release(packet)
        with pytest.raises(RuntimeError, match="double release"):
            pool.release(packet)

    def test_free_list_is_bounded(self) -> None:
        pool = PacketPool(max_free=2)
        packets = [pool.acquire(**_fields()) for _ in range(5)]
        for packet in packets:
            pool.release(packet)
        assert len(pool._free) == 2

    def test_debug_poisons_released_packets(self) -> None:
        pool = PacketPool(debug=True)
        packet = pool.acquire(**_fields())
        pool.release(packet)
        assert packet.src == POISON and packet.dst == POISON
        assert packet.size == POISON

    @pytest.mark.parametrize("field", ["src", "dst", "seq", "ack", "size", "dsn"])
    def test_debug_catches_mutation_while_released(self, field: str) -> None:
        pool = PacketPool(debug=True)
        packet = pool.acquire(**_fields())
        pool.release(packet)
        setattr(packet, field, 42)  # simulated use-after-release write
        with pytest.raises(RuntimeError, match="use-after-release"):
            pool.acquire(**_fields())

    def test_default_pool_debug_toggle_restores(self) -> None:
        previous = set_pool_debug(True)
        try:
            assert default_pool().debug
            packet = default_pool().acquire(**_fields())
            release_packet(packet)
            assert packet.src == POISON
        finally:
            set_pool_debug(previous)
        assert default_pool().debug == previous

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(st.integers(0, 3), min_size=1, max_size=60),
        fields=st.fixed_dictionaries(_FIELD_STRATEGIES),
    )
    def test_interleavings_never_alias_and_never_leak(self, ops, fields) -> None:
        """Any acquire/release interleaving: live packets are distinct objects
        and every acquired packet matches a from-scratch construction."""
        pool = PacketPool(max_free=4, debug=True)
        live: list[Packet] = []
        reference = Packet(**fields)
        for op in ops:
            if op == 3 and live:
                pool.release(live.pop())
            else:
                live.append(pool.acquire(**fields))
                # No two live packets are ever the same object.
                assert len({id(packet) for packet in live}) == len(live)
                for name in _OBSERVABLE_FIELDS:
                    assert getattr(live[-1], name) == getattr(reference, name), name
                assert live[-1].flow_key() == reference.flow_key()


# ---------------------------------------------------------------------------
# Cached derived fields
# ---------------------------------------------------------------------------


class TestDerivedFieldCaches:
    def test_size_is_a_precomputed_slot(self) -> None:
        pool = PacketPool()
        packet = pool.acquire(**_fields(payload_size=100, header_size=40))
        assert packet.size == 140
        pool.release(packet)
        reused = pool.acquire(**_fields(payload_size=500, header_size=0))
        assert reused is packet
        assert reused.size == 500

    def test_flow_key_is_lazy_and_cached(self) -> None:
        packet = Packet(**_fields())
        assert packet.flow_bytes is None  # not packed until a hashed hop
        key = packet.flow_key()
        assert packet.flow_bytes is key
        assert packet.flow_key() is key

    def test_flow_hash_matches_reference_fnv(self) -> None:
        packet = Packet(**_fields())
        assert packet.flow_hash is None
        assert ecmp_hash(packet, salt=0) == fnv1a_64(_flow_tuple(packet), salt=0)
        assert packet.flow_hash == fnv1a_64(_flow_tuple(packet), salt=0)

    @settings(max_examples=100, deadline=None)
    @given(
        src=st.integers(0, 2**40),
        dst=st.integers(0, 2**40),
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        salt=st.integers(0, 2**64 - 1),
    )
    def test_bytes_hash_equals_tuple_hash(self, src, dst, src_port, dst_port, salt) -> None:
        """The cached-bytes FNV walk is value-identical to the seed tuple FNV
        for every 5-tuple and salt — the invariant keeping golden traces
        byte-stable across the caching refactor."""
        packet = Packet(
            flow_id=0, src=src, dst=dst, src_port=src_port, dst_port=dst_port
        )
        assert ecmp_hash(packet, salt) == fnv1a_64(_flow_tuple(packet), salt)

    def test_default_header_size_preserved(self) -> None:
        packet = Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2)
        assert packet.size == DEFAULT_HEADER_BYTES
