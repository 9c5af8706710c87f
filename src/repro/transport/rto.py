"""RTT estimation and retransmission-timeout management (RFC 6298).

The retransmission timeout is the villain of the paper: with the
conventional 200 ms minimum RTO, a single lost packet that cannot be
recovered by fast retransmit stalls a 70 KB flow for three orders of
magnitude longer than its uncongested completion time.  The estimator
implements the standard Jacobson/Karels smoothing with Karn's rule applied
by the caller (retransmitted segments are never timed).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class RtoEstimator:
    """Smoothed RTT / RTO estimator.

    Attributes:
        min_rto: lower clamp applied to every computed RTO (the paper's
            experiments keep the conventional 200 ms, which is what makes a
            timeout so costly for a short flow).
        max_rto: upper clamp applied after exponential backoff.
        initial_rto: RTO used before the first RTT measurement exists.
        alpha / beta: standard EWMA gains (1/8 and 1/4).
        k: variance multiplier (4).
    """

    min_rto: float = 0.200
    max_rto: float = 60.0
    initial_rto: float = 1.0
    alpha: float = 1.0 / 8.0
    beta: float = 1.0 / 4.0
    k: float = 4.0
    srtt: float = field(default=0.0, init=False)
    rttvar: float = field(default=0.0, init=False)
    backoff_factor: float = field(default=1.0, init=False)
    samples: int = field(default=0, init=False)
    min_rtt: float = field(default=float("inf"), init=False)

    def __post_init__(self) -> None:
        if self.min_rto <= 0:
            raise ValueError("min_rto must be positive")
        if self.max_rto < self.min_rto:
            raise ValueError("max_rto must be >= min_rto")

    # ------------------------------------------------------------------

    def add_sample(self, rtt: float) -> None:
        """Fold a new RTT measurement into the smoothed estimate.

        Also resets the exponential backoff, per RFC 6298 §5.7: a valid
        measurement proves the path is alive again.
        """
        if rtt <= 0:
            raise ValueError(f"RTT samples must be positive, got {rtt!r}")
        self.min_rtt = min(self.min_rtt, rtt)
        if self.samples == 0:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1.0 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt)
            self.srtt = (1.0 - self.alpha) * self.srtt + self.alpha * rtt
        self.samples += 1
        self.backoff_factor = 1.0

    def backoff(self) -> None:
        """Double the timeout after a retransmission timeout fires."""
        self.backoff_factor = min(self.backoff_factor * 2.0, 64.0)

    @property
    def rto(self) -> float:
        """Current retransmission timeout, clamped to ``[min_rto, max_rto]``."""
        if self.samples == 0:
            base = self.initial_rto
        else:
            base = self.srtt + self.k * self.rttvar
        value = base * self.backoff_factor
        return min(self.max_rto, max(self.min_rto, value))

    @property
    def smoothed_rtt(self) -> float:
        """Smoothed RTT, or the initial RTO when no sample exists yet."""
        return self.srtt if self.samples else self.initial_rto
