"""Single-path TCP receiver.

The receiver answers the sender's SYN, acknowledges every data packet
cumulatively (generating the duplicate ACKs that drive fast retransmit), and
reports flow completion once the expected number of bytes has arrived
in order.  :class:`~repro.transport.mptcp.MptcpReceiver` is this receiver
with per-subflow reassembly added.
"""

from __future__ import annotations

from typing import Optional

from repro.net.host import Host
from repro.net.packet import FLAG_ACK, FLAG_SYN, Packet, acquire_packet, make_ack
from repro.sim.engine import Simulator
from repro.transport.base import Endpoint
from repro.transport.sequence import ReceiveBuffer


class TcpReceiver(Endpoint):
    """Receiving endpoint of a single-path TCP flow.

    ``buffer`` is the byte stream whose in-order frontier completes the flow.
    """

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        local_port: Optional[int] = None,
        flow_id: int = 0,
        expected_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(simulator, host, local_port)
        self.flow_id = flow_id
        self.expected_bytes = expected_bytes
        self.buffer = ReceiveBuffer()
        self.complete = False
        self.completion_time: Optional[float] = None

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
        # Duplicate SYNs simply elicit another SYN-ACK.
        self._learn_peer_port(packet)
        self.host.send(
            acquire_packet(
                flow_id=self.flow_id,
                src=self.host.address,
                dst=packet.src,
                src_port=self.local_port,
                dst_port=packet.src_port,
                flags=FLAG_SYN | FLAG_ACK,
                subflow_id=packet.subflow_id,
            )
        )

    def _learn_peer_port(self, packet: Packet) -> None:
        """Note the port a SYN came from (``MptcpReceiver`` keeps one per subflow).

        A TCP sender sends every segment from the port of its SYN, so each
        ACK simply goes back to the segment's own source port.
        """

    def _handle_data(self, packet: Packet) -> None:
        buffer = self.buffer
        buffer.add(packet.seq, packet.payload_size)
        self.host.send(
            make_ack(packet, ack=buffer.rcv_nxt, dack=buffer.rcv_nxt, src_port=self.local_port)
        )
        self._check_completion()

    def _check_completion(self) -> None:
        if self.complete or self.expected_bytes is None:
            return
        if self.buffer.rcv_nxt >= self.expected_bytes:
            self.complete = True
            self.completion_time = self.simulator.now

    # ------------------------------------------------------------------

    @property
    def bytes_received_in_order(self) -> int:
        """Bytes delivered to the application so far."""
        return self.buffer.rcv_nxt
