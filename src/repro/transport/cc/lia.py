"""MPTCP Linked Increases Algorithm (LIA, RFC 6356).

Each MPTCP subflow keeps its own congestion window and reacts to its own
losses, but window *growth* is coupled across subflows so that a multi-path
connection is no more aggressive than a single TCP flow on its best path.
The per-ACK increase on subflow *i* is::

    min( alpha * acked * mss / cwnd_total ,  acked * mss / cwnd_i )

with::

    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / ( sum_i(cwnd_i / rtt_i) )^2

Slow start remains uncoupled, as in the RFC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.transport.cc.base import NewRenoController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.mptcp import MptcpConnection
    from repro.transport.tcp import TcpSender


class LiaController(NewRenoController):
    """Coupled congestion avoidance for one MPTCP subflow."""

    name = "lia"

    def __init__(self, connection: "MptcpConnection") -> None:
        self.connection = connection

    def _coupling(self) -> Tuple[float, float]:
        """``(cwnd_total, alpha)`` over the connection's live subflows.

        A live subflow is handshaken and not yet ``complete``.  One pass in subflow order accumulates each sum
        left to right, as the formula above reads.
        """
        total_cwnd = 0.0
        best = 0.0
        denominator = 0.0
        for subflow in self.connection.subflows:
            cwnd = subflow.cwnd
            if subflow.established and not subflow.complete and cwnd > 0:
                rtt = subflow.rto_estimator.smoothed_rtt
                total_cwnd += cwnd
                ratio = cwnd / (rtt**2)
                if ratio > best:
                    best = ratio
                denominator += cwnd / rtt
        if denominator <= 0:
            return total_cwnd, 1.0
        return total_cwnd, total_cwnd * best / (denominator**2)

    def on_ack(self, sender: "TcpSender", newly_acked_bytes: int) -> None:
        if sender.cwnd < sender.ssthresh:
            sender.cwnd += min(newly_acked_bytes, sender.mss)
            return
        total_cwnd, alpha = self._coupling()
        total_cwnd = total_cwnd or sender.cwnd
        acked = min(newly_acked_bytes, sender.mss)
        coupled_increase = alpha * acked * sender.mss / total_cwnd
        uncoupled_increase = acked * sender.mss / max(sender.cwnd, 1.0)
        sender.cwnd += min(coupled_increase, uncoupled_increase)
