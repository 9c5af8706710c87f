"""D2TCP endpoints (Vamanan et al., SIGCOMM 2012).

D2TCP is the second deadline-oriented, single-path baseline the paper's
introduction discusses (alongside DCTCP and D3) and rejects as a universal
answer: it needs switch ECN support, per-flow deadline knowledge at the
application layer, and it cannot exploit the multiple paths a data-centre
fabric offers.  It is included here so the benchmark harness can show where
deadline-aware single-path transports sit relative to MMPTCP on the same
workload.

The protocol is DCTCP plus *gamma correction*: each sender keeps DCTCP's
EWMA ``alpha`` of the fraction of ECN-marked bytes, but scales its window
reduction by the flow's deadline imminence::

    p = alpha ** d          # d < 1 for far deadlines, d > 1 for near ones
    cwnd = cwnd * (1 - p / 2)

where ``d = Tc / D`` — the time the flow still *needs* divided by the time
it still *has*.  Far-deadline flows back off more than DCTCP would, near-
deadline flows back off less, and flows without a deadline behave exactly
like DCTCP (``d = 1``).

Packet-pool discipline is inherited from :class:`TcpSender`: the gamma
correction only reads congestion state from ACK fields while they are live
inside ``on_packet``, never retaining the packet itself.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.transport.base import TcpConfig
from repro.transport.cc.dctcp_alpha import DctcpController
from repro.transport.dctcp import DctcpReceiver
from repro.transport.tcp import TcpSender

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    pass

#: Gamma-correction exponent clamp recommended by the D2TCP paper.
MIN_DEADLINE_FACTOR = 0.5
MAX_DEADLINE_FACTOR = 2.0


class D2tcpController(DctcpController):
    """DCTCP's alpha estimator with deadline-driven gamma correction."""

    name = "d2tcp"

    def __init__(self, gain: float = 1.0 / 16.0) -> None:
        super().__init__(gain=gain)
        self.last_deadline_factor = 1.0

    # ------------------------------------------------------------------

    def _deadline_factor(self, sender: "TcpSender") -> float:
        """The exponent ``d = Tc / D`` clamped to the paper's [0.5, 2.0] range.

        ``Tc`` is estimated as the number of round trips still required at
        the current window times the smoothed RTT; ``D`` is the time left
        until the flow's absolute deadline.  Senders without a deadline (or
        without an RTT estimate yet) fall back to ``d = 1`` — plain DCTCP.
        """
        deadline = getattr(sender, "deadline_time", None)
        if deadline is None:
            return 1.0
        srtt = sender.rto_estimator.smoothed_rtt
        if srtt <= 0 or not (srtt < float("inf")):
            return 1.0
        remaining_bytes = max(0, sender.total_bytes - sender.snd_una)
        if remaining_bytes == 0:
            return 1.0
        window = max(sender.cwnd, float(sender.mss))
        needed_s = (remaining_bytes / window) * srtt
        available_s = deadline - sender.simulator.now
        if available_s <= 0:
            # Deadline already missed: be as aggressive as the clamp allows.
            return MAX_DEADLINE_FACTOR
        factor = needed_s / available_s
        return min(MAX_DEADLINE_FACTOR, max(MIN_DEADLINE_FACTOR, factor))

    # ------------------------------------------------------------------

    def _cut_penalty(self, sender: "TcpSender") -> float:
        """The gamma-corrected penalty ``alpha ** d``."""
        d = self._deadline_factor(sender)
        self.last_deadline_factor = d
        return self.alpha**d


class D2tcpSender(TcpSender):
    """A deadline-aware DCTCP sender.

    Args:
        deadline_s: deadline *relative to the flow's start time* in seconds
            (the convention used by the D2TCP evaluation); ``None`` makes the
            sender behave exactly like DCTCP.
    """

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        destination: int,
        destination_port: int,
        total_bytes: int,
        flow_id: int = 0,
        config: TcpConfig = TcpConfig(),
        deadline_s: Optional[float] = None,
        dctcp_gain: float = 1.0 / 16.0,
        local_port: Optional[int] = None,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive when given")
        ecn_config = config if config.ecn_enabled else replace(config, ecn_enabled=True)
        self.deadline_s = deadline_s
        #: Absolute simulated time of the deadline; set when the flow starts.
        self.deadline_time: Optional[float] = None
        super().__init__(
            simulator,
            host,
            destination,
            destination_port,
            total_bytes,
            flow_id=flow_id,
            config=ecn_config,
            congestion_control=D2tcpController(gain=dctcp_gain),
            local_port=local_port,
            on_complete=on_complete,
        )

    def start(self) -> None:
        """Start the flow and pin its absolute deadline to the clock."""
        if not self.started and self.deadline_s is not None:
            self.deadline_time = self.simulator.now + self.deadline_s
        super().start()

    # ------------------------------------------------------------------

    @property
    def deadline_factor(self) -> float:
        """The gamma-correction exponent applied at the last window adjustment."""
        controller = self.cc
        assert isinstance(controller, D2tcpController)
        return controller.last_deadline_factor

    @property
    def alpha(self) -> float:
        """Current congestion estimate (identical semantics to DCTCP's alpha)."""
        controller = self.cc
        assert isinstance(controller, D2tcpController)
        return controller.alpha

    def deadline_missed(self) -> bool:
        """True if the flow finished after its deadline (or has not finished yet)."""
        if self.deadline_time is None:
            return False
        if self.stats.completion_time is None:
            return self.simulator.now > self.deadline_time
        return self.stats.completion_time > self.deadline_time


#: D2TCP reuses DCTCP's receiver: echo every Congestion-Experienced mark.
D2tcpReceiver = DctcpReceiver
