"""Single-path TCP NewReno sender.

This is the workhorse every other transport in the library builds on:

* each MPTCP subflow is a :class:`TcpSender` subclass that pulls its data
  from the MPTCP connection on demand and stamps data-sequence numbers;
* the MMPTCP packet-scatter flow additionally randomises the source port of
  every data packet and widens the duplicate-ACK threshold.

The implementation follows RFC 5681/6582 (slow start, congestion avoidance,
fast retransmit, NewReno fast recovery with partial-ACK handling) and RFC
6298 (RTO management with Karn's rule and exponential backoff).  There is no
SACK — matching the custom ns-3 MPTCP model the paper used, where a lost
packet that cannot gather three duplicate ACKs must wait for the
retransmission timer, which is exactly the failure mode MMPTCP targets.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from repro.net.host import Host
from repro.net.packet import FLAG_DATA, FLAG_SYN, Packet, acquire_packet
from repro.sim.engine import Simulator
from repro.transport.base import (
    INITIAL_RTO_S,
    INITIAL_SSTHRESH_BYTES,
    MAX_RTO_S,
    Endpoint,
    SenderStats,
    TcpConfig,
)
from repro.transport.cc.base import (
    LOSS_FAST_RETRANSMIT,
    LOSS_TIMEOUT,
    CongestionController,
    NewRenoController,
)
from repro.transport.rto import RtoEstimator

CongestionEventCallback = Callable[["TcpSender", str], None]


@runtime_checkable
class ReorderingPolicy(Protocol):
    """Duck type for the MMPTCP reordering-tolerance policies.

    Implementations live in :mod:`repro.core.reordering`; the sender only
    needs a current duplicate-ACK threshold and a notification hook for
    spurious retransmissions.
    """

    def current_threshold(self, sender: "TcpSender") -> int:
        """Return the duplicate-ACK count that should trigger fast retransmit."""
        ...

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """Called when a fast retransmission is judged to have been unnecessary."""
        ...


class TcpSender(Endpoint):
    """Sending endpoint of a single-path TCP flow."""

    #: Every attribute ``__init__`` sets.  An MPTCP subflow would otherwise
    #: carry more keys than CPython's shared-key instance dict holds, and
    #: pay for a private dict of its own.  ``Endpoint`` keeps ``__dict__``
    #: for the attributes of subclasses and for per-instance overrides.
    __slots__ = (
        "destination",
        "destination_port",
        "total_bytes",
        "flow_id",
        "config",
        "mss",
        "subflow_id",
        "cc",
        "reordering_policy",
        "on_congestion_event",
        "cwnd",
        "ssthresh",
        "in_fast_recovery",
        "recover_seq",
        "dup_ack_count",
        "snd_una",
        "snd_nxt",
        "snd_max",
        "rto_estimator",
        "_rto_timer",
        "_timed_seq",
        "_timed_at",
        "_last_fast_retx_seq",
        "_last_fast_retx_time",
        "established",
        "started",
        "complete",
        "stats",
    )

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        destination: int,
        destination_port: int,
        total_bytes: int,
        flow_id: int = 0,
        config: TcpConfig = TcpConfig(),
        congestion_control: Optional[CongestionController] = None,
        local_port: Optional[int] = None,
        subflow_id: int = 0,
        reordering_policy: Optional[ReorderingPolicy] = None,
        on_congestion_event: Optional[CongestionEventCallback] = None,
    ) -> None:
        super().__init__(simulator, host, local_port)
        if total_bytes < 0:
            raise ValueError("total_bytes cannot be negative")
        self.destination = destination
        self.destination_port = destination_port
        self.total_bytes = total_bytes
        self.flow_id = flow_id
        self.config = config
        self.mss = config.mss
        self.subflow_id = subflow_id
        self.cc = congestion_control if congestion_control is not None else NewRenoController()
        self.reordering_policy = reordering_policy
        self.on_congestion_event = on_congestion_event

        # Congestion state -------------------------------------------------
        self.cwnd: float = float(config.initial_cwnd_bytes)
        self.ssthresh: float = float(INITIAL_SSTHRESH_BYTES)
        self.in_fast_recovery = False
        self.recover_seq = 0
        self.dup_ack_count = 0

        # Sequence state ----------------------------------------------------
        self.snd_una = 0
        self.snd_nxt = 0
        #: Highest sequence number ever transmitted; anything re-sent below
        #: this is a retransmission (matters after a go-back-N timeout).
        self.snd_max = 0

        # Timers & RTT ------------------------------------------------------
        self.rto_estimator = RtoEstimator(
            min_rto=config.min_rto, max_rto=MAX_RTO_S, initial_rto=INITIAL_RTO_S
        )
        # One reusable timer handle for the connection's whole life:
        # restarting the timer on every ACK/data event is the hottest
        # cancel/re-arm churn in the simulator and never touches the heap.
        self._rto_timer = simulator.timer(self._on_rto)
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0

        # Spurious-retransmission detection (for the reordering ablation).
        self._last_fast_retx_seq: Optional[int] = None
        self._last_fast_retx_time = 0.0

        # Lifecycle ----------------------------------------------------------
        self.established = False
        self.started = False
        self.complete = False
        self.stats = SenderStats()

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the connection: record the start time and send the SYN."""
        if self.started:
            return
        self.started = True
        self.stats.start_time = self.simulator.now
        self._send_syn()
        self._restart_rto_timer()

    def flight_size(self) -> float:
        """Bytes currently outstanding (sent but not cumulatively acknowledged)."""
        return float(self.snd_nxt - self.snd_una)

    def dupack_threshold(self) -> int:
        """Duplicate-ACK threshold, possibly adapted by a reordering policy."""
        if self.reordering_policy is not None:
            return max(1, self.reordering_policy.current_threshold(self))
        return self.config.dupack_threshold

    # ------------------------------------------------------------------
    # Packet arrival
    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Handle SYN-ACKs and ACKs from the receiver."""
        if packet.is_syn and packet.is_ack:
            self._handle_syn_ack(packet)
            return
        if packet.is_ack:
            self._handle_ack(packet)

    def _handle_syn_ack(self, packet: Packet) -> None:
        if self.established:
            return
        self.established = True
        # The handshake round-trip doubles as the first RTT sample.
        handshake_rtt = self.simulator.now - self.stats.start_time
        if handshake_rtt > 0:
            self.rto_estimator.add_sample(handshake_rtt)
        self.cc.on_established(self)
        self._restart_rto_timer()
        self.send_available()

    def _handle_ack(self, packet: Packet) -> None:
        if self.complete or not self.established:
            return
        self._process_dack(packet)

        ack = packet.ack
        if ack > self.snd_una:
            self._handle_new_ack(ack)
        elif ack == self.snd_una and self.flight_size() > 0:
            self._handle_duplicate_ack()

    def _handle_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.snd_una
        self.snd_una = ack
        self.dup_ack_count = 0

        # RTT sampling with Karn's rule: only segments never retransmitted are timed.
        if self._timed_seq is not None and ack >= self._timed_seq:
            rtt = self.simulator.now - self._timed_at
            if rtt > 0:
                self.rto_estimator.add_sample(rtt)
            self._timed_seq = None

        # Spurious fast-retransmit detection: if the retransmitted segment is
        # acknowledged faster than any packet could have made a round trip,
        # the original was merely reordered, not lost.
        if (
            self._last_fast_retx_seq is not None
            and ack > self._last_fast_retx_seq
            and self.rto_estimator.min_rtt != float("inf")
            and self.simulator.now - self._last_fast_retx_time
            < 0.5 * self.rto_estimator.min_rtt
        ):
            self.stats.spurious_retransmits += 1
            if self.reordering_policy is not None:
                self.reordering_policy.on_spurious_retransmit(self)
            self._last_fast_retx_seq = None

        if self.in_fast_recovery:
            if ack >= self.recover_seq:
                # Full recovery: deflate the window back to ssthresh.
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
            else:
                # NewReno partial ACK: retransmit the next missing segment and
                # deflate by the amount acknowledged.
                self._retransmit_segment(self.snd_una)
                self.cwnd = max(self.ssthresh, self.cwnd - newly_acked + self.mss)
        else:
            self.cc.on_ack(self, newly_acked)

        self._apply_cwnd_cap()

        probes = self.probes
        if probes.enabled:
            now = self.simulator.now
            track = f"flow{self.flow_id}.sf{self.subflow_id}"
            probes.sample(f"transport.cwnd/{track}", now, self.cwnd)
            probes.sample(f"transport.ssthresh/{track}", now, self.ssthresh)
            probes.sample(f"transport.srtt_s/{track}", now, self.rto_estimator.smoothed_rtt)

        if self.snd_una >= self.total_bytes and self._all_data_allocated():
            self._on_all_data_acked()
            return

        self._restart_rto_timer()
        self.send_available()

    def _handle_duplicate_ack(self) -> None:
        self.stats.duplicate_acks += 1
        self.dup_ack_count += 1
        if self.in_fast_recovery:
            # Window inflation for every further duplicate ACK.
            self.cwnd += self.mss
            self._apply_cwnd_cap()
            self.send_available()
            return
        if self.dup_ack_count >= self.dupack_threshold():
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        self.ssthresh = self.cc.ssthresh_after_loss(self, LOSS_FAST_RETRANSMIT)
        self.recover_seq = self.snd_nxt
        self.in_fast_recovery = True
        self.stats.fast_retransmits += 1
        if self.probes.enabled:
            self.probes.count("transport.fast_retransmit")
        self._last_fast_retx_seq = self.snd_una
        self._last_fast_retx_time = self.simulator.now
        self._retransmit_segment(self.snd_una)
        self.cwnd = self.ssthresh + 3 * self.mss
        self._apply_cwnd_cap()
        self._notify_congestion_event(LOSS_FAST_RETRANSMIT)
        self.send_available()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send_available(self) -> None:
        """Transmit as many new segments as the congestion window permits."""
        if not self.established or self.complete:
            return
        self._refill()
        while self.snd_nxt < self.total_bytes:
            window_limit = self.snd_una + self.cwnd
            if self.config.max_cwnd_bytes is not None:
                window_limit = min(window_limit, self.snd_una + self.config.max_cwnd_bytes)
            payload = self._payload_at(self.snd_nxt)
            if payload <= 0:
                break
            if self.snd_nxt + payload > window_limit:
                break
            already_sent_before = self.snd_nxt < self.snd_max
            self._send_data(self.snd_nxt, payload, is_retransmission=already_sent_before)
            self.snd_nxt += payload
            self.snd_max = max(self.snd_max, self.snd_nxt)
            self._refill()
        if self.flight_size() > 0 and not self._rto_timer.armed:
            self._restart_rto_timer()

    def _send_data(self, seq: int, payload: int, is_retransmission: bool) -> None:
        # Acquire from the packet pool: the network releases the packet once
        # it is consumed (delivered or dropped), so this sender never touches
        # it again after handing it to the host.
        packet = acquire_packet(
            flow_id=self.flow_id,
            src=self.host.address,
            dst=self.destination,
            src_port=self._data_source_port(),
            dst_port=self.destination_port,
            seq=seq,
            flags=FLAG_DATA,
            payload_size=payload,
            subflow_id=self.subflow_id,
            dsn=self._dsn_at(seq),
        )
        self.stats.data_packets_sent += 1
        if is_retransmission:
            self.stats.retransmitted_packets += 1
            # Karn's rule: give up on timing anything currently in flight.
            self._timed_seq = None
        elif self._timed_seq is None:
            self._timed_seq = seq + payload
            self._timed_at = self.simulator.now
        self.host.send(packet)

    def _retransmit_segment(self, seq: int) -> None:
        payload = self._payload_at(seq)
        if payload <= 0:
            return
        self._send_data(seq, payload, is_retransmission=True)

    def _send_syn(self) -> None:
        self.host.send(
            acquire_packet(
                flow_id=self.flow_id,
                src=self.host.address,
                dst=self.destination,
                src_port=self.local_port,
                dst_port=self.destination_port,
                flags=FLAG_SYN,
                subflow_id=self.subflow_id,
            )
        )

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------

    def _restart_rto_timer(self) -> None:
        if self.probes.enabled:
            self.probes.count("transport.rto_armed")
        self._rto_timer.arm(self.rto_estimator.rto)

    def _cancel_rto_timer(self) -> None:
        self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self.complete:
            return
        if not self.established:
            # The SYN (or the SYN-ACK) was lost: retry the handshake.
            self.rto_estimator.backoff()
            self._send_syn()
            self._restart_rto_timer()
            return
        if self.flight_size() <= 0:
            return

        self.stats.rto_events += 1
        probes = self.probes
        if probes.enabled:
            probes.count("transport.rto_fired")
            probes.event(
                "transport.rto",
                self.simulator.now,
                flow_id=self.flow_id,
                subflow_id=self.subflow_id,
                seq=self.snd_una,
                rto_s=self.rto_estimator.rto,
            )
        self.ssthresh = self.cc.ssthresh_after_loss(self, LOSS_TIMEOUT)
        self.cwnd = float(self.mss)
        self.in_fast_recovery = False
        self.dup_ack_count = 0
        self._timed_seq = None
        self._last_fast_retx_seq = None
        # Go-back-N from the first unacknowledged byte.
        self.snd_nxt = self.snd_una
        self.rto_estimator.backoff()
        self._notify_congestion_event(LOSS_TIMEOUT)
        self._restart_rto_timer()
        self.send_available()

    # ------------------------------------------------------------------
    # Hooks overridden by subclasses (MPTCP subflow, packet scatter)
    # ------------------------------------------------------------------

    def _refill(self) -> None:
        """Pull more data from the MPTCP connection (no-op for plain TCP)."""

    def _payload_at(self, seq: int) -> int:
        """Payload size of the segment starting at ``seq``."""
        return min(self.mss, self.total_bytes - seq)

    def _dsn_at(self, seq: int) -> int:
        """Connection-level data sequence number for ``seq`` (plain TCP: identity)."""
        return seq

    def _data_source_port(self) -> int:
        """Source port stamped on data packets (packet scatter randomises this)."""
        return self.local_port

    def _process_dack(self, packet: Packet) -> None:
        """Connection-level acknowledgement processing (MPTCP overrides this)."""

    def _all_data_allocated(self) -> bool:
        """True when ``total_bytes`` is final (always true for plain TCP)."""
        return True

    def _on_all_data_acked(self) -> None:
        """Every byte has been cumulatively acknowledged: finish the flow."""
        self.complete = True
        self.stats.completion_time = self.simulator.now
        self._cancel_rto_timer()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _apply_cwnd_cap(self) -> None:
        if self.config.max_cwnd_bytes is not None:
            self.cwnd = min(self.cwnd, float(self.config.max_cwnd_bytes))
        self.cwnd = max(self.cwnd, float(self.mss))

    def _notify_congestion_event(self, kind: str) -> None:
        if self.on_congestion_event is not None:
            self.on_congestion_event(self, kind)
