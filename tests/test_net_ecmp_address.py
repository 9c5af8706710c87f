"""Unit tests for ECMP hashing and FatTree addressing."""

from __future__ import annotations

import pytest

from repro.net.address import encode_fattree_address
from repro.net.ecmp import ecmp_hash, fnv1a_64, select_path
from repro.net.packet import FLAG_DATA, Packet


def _packet(src_port: int = 4000, dst_port: int = 5001) -> Packet:
    return Packet(
        flow_id=1, src=10, dst=20, src_port=src_port, dst_port=dst_port,
        flags=FLAG_DATA, payload_size=100,
    )


class TestEcmp:
    def test_hash_is_deterministic(self) -> None:
        packet = _packet()
        assert ecmp_hash(packet, salt=3) == ecmp_hash(packet, salt=3)

    def test_hash_depends_on_salt(self) -> None:
        packet = _packet()
        values = {ecmp_hash(packet, salt=salt) for salt in range(16)}
        assert len(values) > 1

    def test_hash_depends_on_source_port(self) -> None:
        # This is the property MMPTCP's packet scatter exploits: changing the
        # source port changes the selected path.
        choices = {
            select_path(_packet(src_port=port), num_paths=8, salt=1)
            for port in range(40000, 40050)
        }
        assert len(choices) > 1

    def test_same_flow_always_same_path(self) -> None:
        packet_a = _packet()
        packet_b = _packet()
        for paths in (2, 3, 4, 8):
            assert select_path(packet_a, paths, salt=7) == select_path(packet_b, paths, salt=7)

    def test_select_path_range(self) -> None:
        for port in range(1000, 1100):
            assert 0 <= select_path(_packet(src_port=port), 5, salt=2) < 5

    def test_select_path_single_path(self) -> None:
        assert select_path(_packet(), 1) == 0

    def test_select_path_rejects_zero_paths(self) -> None:
        with pytest.raises(ValueError):
            select_path(_packet(), 0)

    def test_select_path_spreads_roughly_evenly(self) -> None:
        counts = [0] * 4
        for port in range(2000, 3000):
            counts[select_path(_packet(src_port=port), 4, salt=11)] += 1
        assert min(counts) > 150  # perfectly even would be 250 each

    def test_fnv_zero_salt_default(self) -> None:
        assert fnv1a_64((1, 2, 3)) == fnv1a_64((1, 2, 3), salt=0)
        assert fnv1a_64((1, 2, 3)) != fnv1a_64((3, 2, 1))


class TestFatTreeAddress:
    def test_roundtrip(self) -> None:
        address = encode_fattree_address(pod=3, edge=2, host=7)
        # Packed as pod << 20 | edge << 10 | host: each field unpacks back.
        assert (address >> 20, (address >> 10) & 0x3FF, address & 0x3FF) == (3, 2, 7)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            encode_fattree_address(-1, 0, 0)
        with pytest.raises(ValueError):
            encode_fattree_address(0, 0, 5000)

    def test_addresses_are_unique_across_positions(self) -> None:
        seen = set()
        for pod in range(4):
            for edge in range(2):
                for host in range(8):
                    seen.add(encode_fattree_address(pod, edge, host))
        assert len(seen) == 4 * 2 * 8
