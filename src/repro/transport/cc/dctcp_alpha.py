"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).

DCTCP is one of the single-path, latency-oriented protocols the paper's
introduction discusses (and rejects as a universal answer because it needs
switch ECN support and cannot exploit multiple paths).  It is included as a
baseline: switches mark ECN-capable packets once their queue exceeds a
threshold ``K``, receivers echo the marks, and the sender keeps an EWMA
``alpha`` of the fraction of marked bytes per window, cutting its window by
``alpha / 2`` once per RTT instead of halving on loss.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.transport.cc.base import LOSS_TIMEOUT, NewRenoController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.tcp import TcpSender


class DctcpController(NewRenoController):
    """ECN-proportional congestion control."""

    name = "dctcp"

    def __init__(self, gain: float = 1.0 / 16.0) -> None:
        if not 0 < gain <= 1:
            raise ValueError("DCTCP gain must be in (0, 1]")
        self.gain = gain
        self.alpha = 0.0
        self._window_end = 0
        self._acked_bytes = 0
        self._marked_bytes = 0

    def on_established(self, sender: "TcpSender") -> None:
        self._window_end = sender.snd_nxt

    def on_ecn_feedback(self, sender: "TcpSender", newly_acked_bytes: int, marked: bool) -> None:
        self._acked_bytes += newly_acked_bytes
        if marked:
            self._marked_bytes += newly_acked_bytes

        # One observation window ends when the data outstanding at its start
        # has been fully acknowledged (approximately one RTT).
        if sender.snd_una < self._window_end:
            return
        if self._acked_bytes > 0:
            fraction = self._marked_bytes / self._acked_bytes
            self.alpha = (1.0 - self.gain) * self.alpha + self.gain * fraction
            if self._marked_bytes > 0:
                penalty = self._cut_penalty(sender)
                sender.cwnd = max(sender.mss, sender.cwnd * (1.0 - penalty / 2.0))
                sender.ssthresh = max(sender.cwnd, 2.0 * sender.mss)
        self._window_end = sender.snd_nxt
        self._acked_bytes = 0
        self._marked_bytes = 0

    def _cut_penalty(self, sender: "TcpSender") -> float:
        """The ``p`` of this window's cut ``cwnd * (1 - p / 2)``: DCTCP's ``alpha``."""
        return self.alpha

    def ssthresh_after_loss(self, sender: "TcpSender", kind: str) -> float:
        # Packet loss still triggers the standard reaction; DCTCP only changes
        # the response to ECN marks.
        if kind == LOSS_TIMEOUT:
            return max(sender.flight_size() / 2.0, 2.0 * sender.mss)
        return super().ssthresh_after_loss(sender, kind)
