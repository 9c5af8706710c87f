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

from typing import Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.packet import Packet, make_ack
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.transport.base import SenderStats, TcpConfig
from repro.transport.cc.lia import LiaController
from repro.transport.receiver import TcpReceiver
from repro.transport.sequence import ReceiveBuffer, SegmentMap
from repro.transport.tcp import TcpSender


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

        self.subflows: List[MptcpSubflow] = []
        self._next_dsn = 0
        self.data_acked = 0
        self.started = False
        self.complete = False
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

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def aggregate_stats(self) -> SenderStats:
        """Sum the per-subflow loss and send counters into one record."""
        total = SenderStats()
        for subflow in self.subflows:
            stats = subflow.stats
            total.data_packets_sent += stats.data_packets_sent
            total.retransmitted_packets += stats.retransmitted_packets
            total.fast_retransmits += stats.fast_retransmits
            total.rto_events += stats.rto_events
            total.spurious_retransmits += stats.spurious_retransmits
            total.duplicate_acks += stats.duplicate_acks
        return total

    def close(self) -> None:
        """Release every subflow's port binding."""
        for subflow in self.subflows:
            subflow.close()


class MptcpReceiver(TcpReceiver):
    """Receiver side of an MPTCP (or MMPTCP) connection.

    Keeps one reassembly buffer per subflow (subflow sequence space) on top
    of :class:`TcpReceiver`'s ``buffer``, which here holds the data sequence
    space; every ACK carries both the subflow-level cumulative ACK and the
    data-level cumulative ACK.  MMPTCP's packet-scatter phase needs nothing
    more: ACKs go to each subflow's canonical port, learned from its SYN.
    """

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        local_port: Optional[int] = None,
        flow_id: int = 0,
        expected_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(simulator, host, local_port, flow_id, expected_bytes)
        self.subflow_buffers: Dict[int, ReceiveBuffer] = {}
        self.subflow_peer_ports: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def _learn_peer_port(self, packet: Packet) -> None:
        self.subflow_peer_ports[packet.subflow_id] = packet.src_port

    def _handle_data(self, packet: Packet) -> None:
        subflow_buffer = self.subflow_buffers.get(packet.subflow_id)
        if subflow_buffer is None:
            subflow_buffer = self.subflow_buffers[packet.subflow_id] = ReceiveBuffer()
        subflow_buffer.add(packet.seq, packet.payload_size)
        buffer = self.buffer
        buffer.add(packet.dsn, packet.payload_size)
        # Acknowledgements go back to the subflow's *canonical* port (learned
        # from its SYN), not to the possibly randomised source port of the data
        # packet — this is what makes per-packet source-port scatter workable.
        self.host.send(
            make_ack(
                packet,
                ack=subflow_buffer.rcv_nxt,
                dack=buffer.rcv_nxt,
                src_port=self.local_port,
                dst_port=self.subflow_peer_ports.get(packet.subflow_id, packet.src_port),
            )
        )
        self._check_completion()

    # ------------------------------------------------------------------

    @property
    def reordering_events(self) -> int:
        """Out-of-order arrivals observed across all subflow buffers."""
        return sum(buffer.out_of_order_arrivals for buffer in self.subflow_buffers.values())
