"""Single-path TCP receiver.

The receiver answers the sender's SYN, acknowledges every data packet
cumulatively (generating the duplicate ACKs that drive fast retransmit), and
reports flow completion once the expected number of bytes has arrived
in order.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.host import Host
from repro.net.packet import FLAG_ACK, FLAG_SYN, Packet, acquire_packet, make_ack
from repro.sim.engine import Simulator
from repro.transport.base import Endpoint
from repro.transport.sequence import ReceiveBuffer

ReceiverCallback = Callable[["TcpReceiver"], None]


class TcpReceiver(Endpoint):
    """Receiving endpoint of a single-path TCP flow."""

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        local_port: Optional[int] = None,
        flow_id: int = 0,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[ReceiverCallback] = None,
    ) -> None:
        super().__init__(simulator, host, local_port)
        self.flow_id = flow_id
        self.expected_bytes = expected_bytes
        self.on_complete = on_complete
        self.buffer = ReceiveBuffer()
        self.peer_address: Optional[int] = None
        self.peer_port: Optional[int] = None
        self.established = False
        self.complete = False
        self.completion_time: Optional[float] = None
        self.first_data_time: Optional[float] = None
        self.acks_sent = 0
        self.data_packets_received = 0
        #: ACKs/SYN-ACKs our own NIC refused to send (down or congested
        #: uplink) — mirrors :attr:`SenderStats.send_fault_drops`.
        self.send_fault_drops = 0

    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Handle SYNs and data segments from the sender."""
        if packet.is_syn and not packet.is_ack:
            self._handle_syn(packet)
            return
        if packet.carries_data:
            self._handle_data(packet)

    # ------------------------------------------------------------------

    def _handle_syn(self, packet: Packet) -> None:
        # Learn (or confirm) the sender's canonical port; duplicate SYNs simply
        # elicit another SYN-ACK.
        self.peer_address = packet.src
        self.peer_port = packet.src_port
        self.established = True
        syn_ack = acquire_packet(
            flow_id=self.flow_id,
            src=self.host.address,
            dst=packet.src,
            src_port=self.local_port,
            dst_port=packet.src_port,
            flags=FLAG_SYN | FLAG_ACK,
            subflow_id=packet.subflow_id,
            sent_time=self.simulator.now,
        )
        if not self.transmit(syn_ack):
            self.send_fault_drops += 1

    def _handle_data(self, packet: Packet) -> None:
        if self.peer_port is None:
            # Data before any SYN: adopt the packet's source as the canonical
            # peer so the flow still makes progress (mirrors an accepting
            # socket with the handshake folded in).
            self.peer_address = packet.src
            self.peer_port = packet.src_port
        if self.first_data_time is None:
            self.first_data_time = self.simulator.now
        self.data_packets_received += 1
        self.buffer.add(packet.seq, packet.payload_size)
        self._send_ack(packet)
        self._check_completion()

    def _send_ack(self, packet: Packet) -> None:
        ack = make_ack(
            packet,
            ack=self.buffer.rcv_nxt,
            dack=self.buffer.rcv_nxt,
            src_port=self.local_port,
            dst_port=self.peer_port,
            sent_time=self.simulator.now,
        )
        self.acks_sent += 1
        if not self.transmit(ack):
            self.send_fault_drops += 1

    def _check_completion(self) -> None:
        if self.complete or self.expected_bytes is None:
            return
        if self.buffer.rcv_nxt >= self.expected_bytes:
            self.complete = True
            self.completion_time = self.simulator.now
            if self.on_complete is not None:
                self.on_complete(self)

    # ------------------------------------------------------------------

    @property
    def bytes_received_in_order(self) -> int:
        """Bytes delivered to the application so far."""
        return self.buffer.rcv_nxt
