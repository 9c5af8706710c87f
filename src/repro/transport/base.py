"""Shared transport definitions: configuration, statistics and endpoint base.

Every sender in the library (TCP, MPTCP sub-flows, the MMPTCP
packet-scatter flow) derives from :class:`Endpoint` and is parameterised by a
:class:`TcpConfig`.  Per-flow statistics accumulate in :class:`SenderStats`,
which the metrics layer later converts into flow records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.host import Host
from repro.net.packet import Packet
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.sim.units import milliseconds


@dataclass(frozen=True)
class TcpConfig:
    """Tunable transport parameters.

    Attributes:
        mss: maximum segment (payload) size in bytes.
        initial_cwnd_segments: initial congestion window, in segments.
        initial_ssthresh_bytes: initial slow-start threshold (effectively
            unbounded by default).
        dupack_threshold: duplicate ACKs that trigger fast retransmit; the
            MMPTCP packet-scatter phase raises this dynamically through a
            reordering policy instead of using the static value.
        min_rto / max_rto / initial_rto: RTO clamps (seconds).  ``min_rto``
            defaults to the conventional 200 ms, which is precisely why RTOs
            devastate 70 KB flows.  ``initial_rto`` (used before any RTT
            sample exists, i.e. for lost SYNs) also defaults to 200 ms — the
            data-centre-tuned value; RFC 6298's 1 s would add a second,
            unrelated penalty on handshake losses.
        max_cwnd_bytes: optional cap modelling a bounded receive window.
    """

    mss: int = 1400
    initial_cwnd_segments: int = 4
    initial_ssthresh_bytes: int = 10_000_000
    dupack_threshold: int = 3
    min_rto: float = milliseconds(200)
    max_rto: float = 60.0
    initial_rto: float = milliseconds(200)
    max_cwnd_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.initial_cwnd_segments < 1:
            raise ValueError("initial_cwnd_segments must be at least 1")
        if self.dupack_threshold < 1:
            raise ValueError("dupack_threshold must be at least 1")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("require 0 < min_rto <= max_rto")

    @property
    def initial_cwnd_bytes(self) -> int:
        """Initial congestion window expressed in bytes."""
        return self.initial_cwnd_segments * self.mss


@dataclass(slots=True)
class SenderStats:
    """Counters accumulated by a sender over the lifetime of one flow."""

    packets_sent: int = 0
    bytes_sent: int = 0
    data_packets_sent: int = 0
    retransmitted_packets: int = 0
    retransmitted_bytes: int = 0
    fast_retransmits: int = 0
    rto_events: int = 0
    spurious_retransmits: int = 0
    #: Packets the local host's NIC refused at send time (down interface or
    #: full uplink queue).  These were counted in ``packets_sent`` but never
    #: reached the wire — the same class of loss as interface-level fault
    #: drops, surfaced here so transports that ignore ``Host.send``'s bool
    #: return no longer lose the event entirely.
    send_fault_drops: int = 0
    acks_received: int = 0
    duplicate_acks: int = 0
    start_time: float = 0.0
    established_time: Optional[float] = None
    completion_time: Optional[float] = None

    @property
    def experienced_rto(self) -> bool:
        """True if at least one retransmission timeout fired for this flow."""
        return self.rto_events > 0


CompletionCallback = Callable[["Endpoint"], None]


class Endpoint:
    """Base class for anything bound to a host port that sends/receives packets."""

    #: Telemetry probe sink (see :mod:`repro.obs.telemetry`) — an endpoint's
    #: one observation channel: RTOs, fast retransmits and phase switches
    #: are reported here and nowhere else.  The disabled singleton as a
    #: class attribute is zero-cost: unprobed endpoints pay one attribute
    #: read and a falsy ``enabled`` check at each instrumentation point, and
    #: no per-instance storage.  The experiment runner assigns a
    #: ``TelemetryRecorder`` per flow when probes are requested.
    probes: TelemetryProbes = NULL_PROBES

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        local_port: Optional[int] = None,
    ) -> None:
        self.simulator = simulator
        self.host = host
        self.local_port = local_port if local_port is not None else host.allocate_port()
        host.bind(self.local_port, self)

    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Handle a packet demultiplexed to this endpoint (subclasses override)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the bound port."""
        self.host.unbind(self.local_port)

    def transmit(self, packet: Packet) -> bool:
        """Hand a fully formed packet to the owning host for transmission.

        Ownership transfers with the call: whether the host accepts the
        packet or drops it (down NIC, full uplink queue), the network layer
        releases it to the packet pool — the endpoint must not read or reuse
        the packet afterwards.  A ``False`` return means the packet was
        locally dropped; callers should fold that into their loss accounting
        (see :attr:`SenderStats.send_fault_drops`).
        """
        return self.host.send(packet)

    @property
    def address(self) -> int:
        """Address of the host this endpoint lives on."""
        return self.host.address
