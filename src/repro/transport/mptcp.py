"""Multipath TCP (MPTCP) with coupled congestion control.

An :class:`MptcpConnection` spreads one application byte stream (addressed by
*data sequence numbers*, DSNs) over several :class:`MptcpSubflow` objects.
Each subflow is a full TCP NewReno sender with its own source port — and
therefore, under hash-based ECMP, its own path through the fabric — its own
congestion window, its own RTT estimate and its own loss recovery.  Window
growth is coupled across subflows by the Linked Increases Algorithm
(RFC 6356) so the aggregate is fair to single-path TCP.

The behaviour the paper studies emerges naturally from this structure: a
70 KB flow split over 8 subflows gives each subflow only a handful of
packets, so a single loss frequently cannot gather three duplicate ACKs and
the whole connection stalls for a 200 ms retransmission timeout
(Figure 1(a)/(b) of the paper).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.packet import FLAG_ACK, FLAG_SYN, Packet, acquire_packet, make_ack
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.transport.base import Endpoint, SenderStats, TcpConfig
from repro.transport.cc.lia import LiaController
from repro.transport.sequence import ReceiveBuffer, SegmentMap
from repro.transport.tcp import TcpSender

ConnectionCallback = Callable[["MptcpConnection"], None]


class MptcpSubflow(TcpSender):
    """One TCP subflow of an MPTCP (or MMPTCP) connection.

    The subflow does not own application data; it pulls chunks from the
    connection on demand (whenever its congestion window has room) and keeps
    the subflow-sequence-number → data-sequence-number mapping needed to
    stamp outgoing packets.
    """

    def __init__(
        self,
        connection: "MptcpConnection",
        subflow_id: int,
        local_port: Optional[int] = None,
        congestion_control=None,
        reordering_policy=None,
    ) -> None:
        self.connection = connection
        #: Where each segment this subflow may still send sits in the data
        #: stream: sending reads at ``snd_nxt``, a retransmission at
        #: ``snd_una``.  ``snd_nxt`` can lag ``snd_una`` (an ACK may pass it
        #: after an RTO rewind) and only ever moves back to ``snd_una``, so
        #: a chunk is forgotten once it ends at or below both cursors
        #: (:meth:`_forget_acknowledged`), and the maps are emptied once the
        #: connection completes.  The chunks end at ``total_bytes``.
        self._segment_map = SegmentMap(connection.config.mss)
        super().__init__(
            connection.simulator,
            connection.host,
            connection.destination,
            connection.destination_port,
            total_bytes=0,
            flow_id=connection.flow_id,
            config=connection.config,
            congestion_control=(
                congestion_control
                if congestion_control is not None
                else LiaController(connection)
            ),
            local_port=local_port,
            subflow_id=subflow_id,
            reordering_policy=reordering_policy,
            on_congestion_event=connection._subflow_congestion_event,
        )

    # -- data acquisition ---------------------------------------------------

    def _refill(self) -> None:
        """Pull data from the connection while the window has room for more."""
        self.connection._refill_subflow(self)

    def _payload_at(self, seq: int) -> int:
        return self._segment_map.payload_at(seq, self.total_bytes)

    def _dsn_at(self, seq: int) -> int:
        return self._segment_map.dsn_at(seq)

    def _forget_acknowledged(self) -> None:
        """Drop the oldest mapped chunks neither send cursor can reach again."""
        self._segment_map.forget_below(min(self.snd_una, self.snd_nxt), self.total_bytes)

    def _all_data_allocated(self) -> bool:
        return self.connection.all_data_allocated

    def _handle_ack(self, packet: Packet) -> None:
        if self.complete:
            return
        super()._handle_ack(packet)
        if self.connection.complete:
            # This ACK completed the connection.  Its handling may still have
            # resent from this map (a sibling delivered those bytes first),
            # so the maps are emptied only now; nothing reads one again.
            for subflow in self.connection.subflows:
                subflow._segment_map.clear()

    def _process_dack(self, packet: Packet) -> None:
        self.connection.on_dack(packet.dack)

    def _on_all_data_acked(self) -> None:
        # This subflow delivered everything it was assigned; the *connection*
        # completes only when the data-level acknowledgement covers the whole
        # stream (handled by MptcpConnection.on_dack).
        self._cancel_rto_timer()

    # -- establishment ------------------------------------------------------

    def _handle_syn_ack(self, packet: Packet) -> None:
        was_established = self.established
        super()._handle_syn_ack(packet)
        if not was_established and self.established:
            self.connection._subflow_established(self)

    @property
    def allocated_bytes(self) -> int:
        """Bytes of the connection stream currently mapped onto this subflow."""
        return self.total_bytes


class MptcpConnection:
    """Sender side of an MPTCP connection."""

    #: Telemetry probe sink; the disabled-singleton class attribute mirrors
    #: :attr:`repro.transport.base.Endpoint.probes`.  Attach a recorder with
    #: :meth:`set_probes` so existing subflows pick it up too.
    probes: TelemetryProbes = NULL_PROBES

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        destination: int,
        destination_port: int,
        total_bytes: int,
        num_subflows: int = 8,
        flow_id: int = 0,
        config: TcpConfig = TcpConfig(),
        on_complete: Optional[ConnectionCallback] = None,
        create_subflows: bool = True,
    ) -> None:
        if total_bytes < 0:
            raise ValueError("total_bytes cannot be negative")
        if num_subflows < 1:
            raise ValueError("an MPTCP connection needs at least one subflow")
        self.simulator = simulator
        self.host = host
        self.destination = destination
        self.destination_port = destination_port
        self.total_bytes = total_bytes
        self.num_subflows = num_subflows
        self.flow_id = flow_id
        self.config = config
        self.on_complete = on_complete

        self.subflows: List[MptcpSubflow] = []
        self._next_dsn = 0
        self.data_acked = 0
        self.started = False
        self.complete = False
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None

        if create_subflows:
            self._create_subflows(num_subflows, first_subflow_id=0)

    # ------------------------------------------------------------------
    # Subflow management
    # ------------------------------------------------------------------

    def set_probes(self, probes: TelemetryProbes) -> None:
        """Attach a telemetry sink to the connection and every subflow.

        Subflows created later (MMPTCP's phase switch) inherit it through
        :meth:`_create_subflows`.
        """
        self.probes = probes
        for subflow in self.subflows:
            subflow.probes = probes

    def _create_subflows(self, count: int, first_subflow_id: int) -> List[MptcpSubflow]:
        """Build (but do not start) ``count`` subflows from ``first_subflow_id`` on.

        The subflows share the address pair and differ only in source port,
        so hash-based ECMP spreads them over the fabric's equal-cost paths.
        """
        created = [self._make_subflow(first_subflow_id + i) for i in range(count)]
        if self.probes.enabled:
            for subflow in created:
                subflow.probes = self.probes
        self.subflows.extend(created)
        return created

    def _make_subflow(self, subflow_id: int) -> MptcpSubflow:
        """Factory hook; MMPTCP overrides it to build its packet-scatter subflow."""
        return MptcpSubflow(self, subflow_id)

    def _subflow_established(self, subflow: MptcpSubflow) -> None:
        """Hook invoked when a subflow finishes its handshake."""

    def _subflow_congestion_event(self, subflow: TcpSender, kind: str) -> None:
        """Hook invoked on each subflow loss event (MMPTCP's switching observes it)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Open every subflow (each performs its own handshake) and begin sending."""
        if self.started:
            return
        self.started = True
        self.start_time = self.simulator.now
        for subflow in self.subflows:
            subflow.start()

    # ------------------------------------------------------------------
    # Data allocation (demand driven)
    # ------------------------------------------------------------------

    @property
    def all_data_allocated(self) -> bool:
        """True once every byte of the stream has been mapped onto some subflow."""
        return self._next_dsn >= self.total_bytes

    def allocate_chunk(self, subflow: MptcpSubflow) -> Optional[Tuple[int, int]]:
        """Assign the next chunk (at most one MSS) of the stream to ``subflow``."""
        if self.all_data_allocated:
            return None
        size = min(self.config.mss, self.total_bytes - self._next_dsn)
        dsn = self._next_dsn
        self._next_dsn += size
        self._on_data_allocated(subflow, dsn, size)
        return dsn, size

    def _on_data_allocated(self, subflow: MptcpSubflow, dsn: int, size: int) -> None:
        """Hook for subclasses (MMPTCP's data-volume switching observes this)."""

    def _has_data_for(self, subflow: MptcpSubflow) -> bool:
        """True while the connection still has stream bytes for ``subflow``.

        MMPTCP overrides this to exclude the scatter subflow after the phase
        switch.
        """
        return not self.all_data_allocated

    def _refill_subflow(self, subflow: MptcpSubflow) -> None:
        """Serve ``subflow``'s demand: map chunks while its window has room."""
        probes = self.probes
        while (
            subflow.established
            and subflow.snd_una + subflow.cwnd > subflow.total_bytes
            and self._has_data_for(subflow)
        ):
            chunk = self.allocate_chunk(subflow)
            if chunk is None:
                break
            dsn, size = chunk
            subflow._forget_acknowledged()
            subflow._segment_map.append(subflow.total_bytes, dsn)
            subflow.total_bytes += size
            if probes.enabled:
                probes.count("scheduler.grants")
                probes.count(f"scheduler.grants/flow{self.flow_id}.sf{subflow.subflow_id}")

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def on_dack(self, dack: int) -> None:
        """Fold a data-level acknowledgement into the connection state."""
        if dack > self.data_acked:
            self.data_acked = dack
        if not self.complete and self.data_acked >= self.total_bytes > 0:
            self.complete = True
            self.completion_time = self.simulator.now
            for subflow in self.subflows:
                subflow.complete = True
                subflow._cancel_rto_timer()
            if self.on_complete is not None:
                self.on_complete(self)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def aggregate_stats(self) -> SenderStats:
        """Sum the per-subflow counters into one connection-level record."""
        total = SenderStats()
        total.start_time = self.start_time if self.start_time is not None else 0.0
        total.completion_time = self.completion_time
        # The connection is established as soon as its first subflow is —
        # that earliest handshake is when data can start flowing.
        established = [
            subflow.stats.established_time
            for subflow in self.subflows
            if subflow.stats.established_time is not None
        ]
        total.established_time = min(established) if established else None
        for subflow in self.subflows:
            stats = subflow.stats
            total.packets_sent += stats.packets_sent
            total.bytes_sent += stats.bytes_sent
            total.data_packets_sent += stats.data_packets_sent
            total.retransmitted_packets += stats.retransmitted_packets
            total.retransmitted_bytes += stats.retransmitted_bytes
            total.fast_retransmits += stats.fast_retransmits
            total.rto_events += stats.rto_events
            total.spurious_retransmits += stats.spurious_retransmits
            total.acks_received += stats.acks_received
            total.duplicate_acks += stats.duplicate_acks
            total.send_fault_drops += stats.send_fault_drops
        return total

    def close(self) -> None:
        """Release every subflow's port binding."""
        for subflow in self.subflows:
            subflow.close()


class MptcpReceiver(Endpoint):
    """Receiver side of an MPTCP (or MMPTCP) connection.

    Keeps one reassembly buffer per subflow (subflow sequence space) plus the
    connection-level buffer over data sequence numbers; every ACK carries both
    the subflow-level cumulative ACK and the data-level cumulative ACK.
    """

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        local_port: Optional[int] = None,
        flow_id: int = 0,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[["MptcpReceiver"], None]] = None,
    ) -> None:
        super().__init__(simulator, host, local_port)
        self.flow_id = flow_id
        self.expected_bytes = expected_bytes
        self.on_complete = on_complete
        self.data_buffer = ReceiveBuffer()
        self.subflow_buffers: Dict[int, ReceiveBuffer] = {}
        self.subflow_peer_ports: Dict[int, int] = {}
        self.peer_address: Optional[int] = None
        self.complete = False
        self.completion_time: Optional[float] = None
        self.first_data_time: Optional[float] = None
        self.acks_sent = 0
        self.data_packets_received = 0
        #: ACKs/SYN-ACKs our own NIC refused to send (down or congested
        #: uplink) — mirrors :attr:`~repro.transport.base.SenderStats.send_fault_drops`.
        self.send_fault_drops = 0

    # ------------------------------------------------------------------

    def _buffer_for(self, subflow_id: int) -> ReceiveBuffer:
        if subflow_id not in self.subflow_buffers:
            self.subflow_buffers[subflow_id] = ReceiveBuffer()
        return self.subflow_buffers[subflow_id]

    def on_packet(self, packet: Packet) -> None:
        """Handle per-subflow SYNs and data segments."""
        if packet.is_syn and not packet.is_ack:
            self._handle_syn(packet)
            return
        if packet.carries_data:
            self._handle_data(packet)

    def _handle_syn(self, packet: Packet) -> None:
        self.peer_address = packet.src
        self.subflow_peer_ports[packet.subflow_id] = packet.src_port
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
        if self.first_data_time is None:
            self.first_data_time = self.simulator.now
        self.data_packets_received += 1
        subflow_buffer = self._buffer_for(packet.subflow_id)
        subflow_buffer.add(packet.seq, packet.payload_size)
        self.data_buffer.add(packet.dsn, packet.payload_size)
        self._send_ack(packet, subflow_buffer)
        self._check_completion()

    def _send_ack(self, packet: Packet, subflow_buffer: ReceiveBuffer) -> None:
        # Acknowledgements go back to the subflow's *canonical* port (learned
        # from its SYN), not to the possibly randomised source port of the data
        # packet — this is what makes per-packet source-port scatter workable.
        canonical_port = self.subflow_peer_ports.get(packet.subflow_id, packet.src_port)
        ack = make_ack(
            packet,
            ack=subflow_buffer.rcv_nxt,
            dack=self.data_buffer.rcv_nxt,
            src_port=self.local_port,
            dst_port=canonical_port,
            sent_time=self.simulator.now,
        )
        self.acks_sent += 1
        if not self.transmit(ack):
            self.send_fault_drops += 1

    def _check_completion(self) -> None:
        if self.complete or self.expected_bytes is None:
            return
        if self.data_buffer.rcv_nxt >= self.expected_bytes:
            self.complete = True
            self.completion_time = self.simulator.now
            if self.on_complete is not None:
                self.on_complete(self)

    # ------------------------------------------------------------------

    @property
    def bytes_received_in_order(self) -> int:
        """Connection-level bytes delivered in order so far."""
        return self.data_buffer.rcv_nxt

    @property
    def reordering_events(self) -> int:
        """Out-of-order arrivals observed across all subflow buffers."""
        return sum(buffer.out_of_order_arrivals for buffer in self.subflow_buffers.values())
