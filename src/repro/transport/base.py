"""Shared transport definitions: configuration, statistics and endpoint base.

Every sender in the library (TCP, MPTCP sub-flows, the MMPTCP
packet-scatter flow) derives from :class:`Endpoint` and is parameterised by a
:class:`TcpConfig`.  Per-flow statistics accumulate in :class:`SenderStats`,
which the metrics layer later converts into flow records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.host import Host
from repro.net.packet import Packet
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.sim.units import milliseconds


#: Slow-start threshold every sender starts from (effectively unbounded).
INITIAL_SSTHRESH_BYTES = 10_000_000
#: Upper clamp on the RTO after exponential backoff (seconds).
MAX_RTO_S = 60.0
#: RTO used before any RTT sample exists, i.e. for lost SYNs: the
#: data-centre-tuned 200 ms, because RFC 6298's 1 s would add a second,
#: unrelated penalty on handshake losses.
INITIAL_RTO_S = milliseconds(200)


@dataclass(frozen=True)
class TcpConfig:
    """Tunable transport parameters.

    Attributes:
        mss: maximum segment (payload) size in bytes.
        initial_cwnd_segments: initial congestion window, in segments.
        dupack_threshold: duplicate ACKs that trigger fast retransmit; the
            MMPTCP packet-scatter phase raises this dynamically through a
            reordering policy instead of using the static value.
        min_rto: lower RTO clamp (seconds).  It defaults to the
            conventional 200 ms, which is precisely why RTOs devastate 70 KB
            flows.
        max_cwnd_bytes: optional cap modelling a bounded receive window.
    """

    mss: int = 1400
    initial_cwnd_segments: int = 4
    dupack_threshold: int = 3
    min_rto: float = milliseconds(200)
    max_cwnd_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.initial_cwnd_segments < 1:
            raise ValueError("initial_cwnd_segments must be at least 1")
        if self.dupack_threshold < 1:
            raise ValueError("dupack_threshold must be at least 1")
        if not 0 < self.min_rto <= MAX_RTO_S:
            raise ValueError(f"require 0 < min_rto <= {MAX_RTO_S} s")

    @property
    def initial_cwnd_bytes(self) -> int:
        """Initial congestion window expressed in bytes."""
        return self.initial_cwnd_segments * self.mss


@dataclass(slots=True)
class SenderStats:
    """Counters accumulated by a sender over the lifetime of one flow."""

    data_packets_sent: int = 0
    retransmitted_packets: int = 0
    fast_retransmits: int = 0
    rto_events: int = 0
    spurious_retransmits: int = 0
    duplicate_acks: int = 0
    start_time: float = 0.0
    completion_time: Optional[float] = None


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

    @property
    def address(self) -> int:
        """Address of the host this endpoint lives on."""
        return self.host.address
