"""Unit tests for the packet model."""

from __future__ import annotations

from repro.net.ecmp import ecmp_hash, fnv1a_64
from repro.net.packet import (
    DEFAULT_HEADER_BYTES,
    FLAG_ACK,
    FLAG_DATA,
    FLAG_FIN,
    FLAG_SYN,
    Packet,
    make_ack,
)


def _data_packet(**overrides) -> Packet:
    fields = dict(
        flow_id=1,
        src=10,
        dst=20,
        src_port=4000,
        dst_port=5001,
        seq=2800,
        flags=FLAG_DATA,
        payload_size=1400,
        subflow_id=2,
        dsn=7000,
    )
    fields.update(overrides)
    return Packet(**fields)


def test_size_is_header_plus_payload() -> None:
    packet = _data_packet()
    assert packet.size == DEFAULT_HEADER_BYTES + 1400


def test_flag_properties() -> None:
    syn = Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2, flags=FLAG_SYN)
    syn_ack = Packet(flow_id=1, src=2, dst=1, src_port=2, dst_port=1, flags=FLAG_SYN | FLAG_ACK)
    fin = Packet(flow_id=1, src=1, dst=2, src_port=1, dst_port=2, flags=FLAG_FIN)
    data = _data_packet()
    assert syn.is_syn and not syn.is_ack and not syn.carries_data
    assert syn_ack.is_syn and syn_ack.is_ack
    assert fin.is_fin
    assert data.carries_data and not data.is_syn


def test_flow_tuple_used_by_ecmp() -> None:
    packet = _data_packet()
    assert ecmp_hash(packet) == fnv1a_64((10, 20, 4000, 5001, packet.protocol))


def test_make_ack_swaps_direction_and_copies_subflow() -> None:
    data = _data_packet()
    ack = make_ack(data, ack=4200, dack=9000)
    assert ack.src == data.dst and ack.dst == data.src
    assert ack.src_port == data.dst_port and ack.dst_port == data.src_port
    assert ack.is_ack and not ack.carries_data
    assert ack.ack == 4200
    assert ack.dack == 9000
    assert ack.subflow_id == data.subflow_id
    assert ack.flow_id == data.flow_id


def test_make_ack_can_target_canonical_port() -> None:
    # Packet-scatter data packets carry a random source port, but ACKs must
    # go back to the sender's canonical port.
    data = _data_packet(src_port=61234)
    ack = make_ack(data, ack=1400, dst_port=4000, src_port=5001)
    assert ack.dst_port == 4000
    assert ack.src_port == 5001
