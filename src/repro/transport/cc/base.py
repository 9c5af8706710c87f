"""Congestion-controller plug-in interface and the NewReno baseline.

A :class:`CongestionController` owns the *policy* decisions — how much to
grow the window per ACK and where to set ``ssthresh`` on a loss — while the
sender owns the *mechanics* (fast-recovery window inflation, what to
retransmit, timers).  This split lets MPTCP's coupled increase (LIA) reuse
all of the sender machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.tcp import TcpSender

#: Loss-event kinds passed to :meth:`CongestionController.ssthresh_after_loss`.
LOSS_FAST_RETRANSMIT = "fast_retransmit"
LOSS_TIMEOUT = "timeout"


class CongestionController:
    """Base class; concrete controllers override the growth/decrease hooks."""

    name = "base"

    def on_established(self, sender: "TcpSender") -> None:
        """Hook invoked when the connection (or subflow) completes its handshake."""

    def on_ack(self, sender: "TcpSender", newly_acked_bytes: int) -> None:
        """Grow the congestion window in response to ``newly_acked_bytes``."""
        raise NotImplementedError

    def ssthresh_after_loss(self, sender: "TcpSender", kind: str) -> float:
        """Return the new slow-start threshold after a loss event of ``kind``."""
        raise NotImplementedError


class NewRenoController(CongestionController):
    """Standard TCP NewReno growth and multiplicative decrease."""

    name = "newreno"

    def on_ack(self, sender: "TcpSender", newly_acked_bytes: int) -> None:
        if sender.cwnd < sender.ssthresh:
            # Slow start: one MSS per acknowledged segment (byte-counting,
            # capped at one MSS per ACK to avoid bursts from stretch ACKs).
            sender.cwnd += min(newly_acked_bytes, sender.mss)
        else:
            # Congestion avoidance: one MSS per window per RTT.
            sender.cwnd += sender.mss * sender.mss / max(sender.cwnd, 1.0)

    def ssthresh_after_loss(self, sender: "TcpSender", kind: str) -> float:
        return max(sender.flight_size() / 2.0, 2.0 * sender.mss)
