"""Reordering-tolerance policies for the packet-scatter phase.

Spraying consecutive packets of one congestion window over many ECMP paths
makes out-of-order arrival the common case, and a standard duplicate-ACK
threshold of three would constantly misinterpret that reordering as loss
(spurious fast retransmissions, halved windows).  Section 2 of the paper
sketches two remedies, both implemented here:

* **Topology-informed threshold** — derive the number of available paths
  between sender and receiver from the structured FatTree address (or a
  central controller) and raise the duplicate-ACK threshold accordingly.
* **Adaptive (RR-TCP-like) threshold** — start from the standard threshold
  and grow it each time a fast retransmission turns out to have been
  spurious, the reactive scheme of Zhang et al. (ICNP 2003).

A static policy is also provided so experiments can quantify what goes wrong
without any mitigation (the ``reordering-*`` claims in
``benchmarks/test_claims.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.tcp import TcpSender


class StaticReorderingPolicy:
    """A fixed duplicate-ACK threshold (standard TCP uses three)."""

    name = "static"

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self.spurious_retransmits_seen = 0

    def current_threshold(self, sender: "TcpSender") -> int:
        """Return the configured, constant threshold."""
        return self.threshold

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """Record the event; a static policy does not react."""
        self.spurious_retransmits_seen += 1


class TopologyInformedPolicy:
    """Duplicate-ACK threshold sized from the number of equal-cost paths.

    With ``p`` parallel paths, up to ``p - 1`` later packets can overtake a
    given packet purely because of path diversity, so the threshold is set to
    the path count (clamped to ``[minimum, maximum]``).  The path count comes
    from FatTree's structured addressing
    (:meth:`repro.topology.fattree.FatTreeTopology.expected_path_count`) —
    or, the paper suggests, from a centralised component on a fabric
    without such addresses.
    """

    name = "topology_informed"

    def __init__(self, path_count: int, minimum: int = 3, maximum: int = 64) -> None:
        if path_count < 1:
            raise ValueError("path_count must be at least 1")
        if minimum < 1 or maximum < minimum:
            raise ValueError("require 1 <= minimum <= maximum")
        self.path_count = path_count
        self.minimum = minimum
        self.maximum = maximum
        self.spurious_retransmits_seen = 0

    def current_threshold(self, sender: "TcpSender") -> int:
        """Threshold = clamp(path count, minimum, maximum)."""
        return max(self.minimum, min(self.path_count, self.maximum))

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """Record the event; the topology-derived value is not adjusted."""
        self.spurious_retransmits_seen += 1


class AdaptiveReorderingPolicy:
    """RR-TCP-style reactive threshold adjustment.

    Every spurious fast retransmission raises the threshold by ``increment``;
    the threshold optionally decays back towards ``initial`` after
    ``decay_interval`` seconds without new evidence of reordering, so a
    transient burst of reordering does not permanently blunt loss detection.
    """

    name = "adaptive"

    def __init__(
        self,
        initial: int = 3,
        increment: int = 2,
        maximum: int = 64,
        decay_interval: Optional[float] = None,
    ) -> None:
        if initial < 1:
            raise ValueError("initial threshold must be at least 1")
        if increment < 1:
            raise ValueError("increment must be at least 1")
        if maximum < initial:
            raise ValueError("maximum must be >= initial")
        if decay_interval is not None and decay_interval <= 0:
            raise ValueError("decay_interval must be positive when given")
        self.initial = initial
        self.increment = increment
        self.maximum = maximum
        self.decay_interval = decay_interval
        self.threshold = initial
        self.spurious_retransmits_seen = 0
        self._last_adjustment_time: Optional[float] = None

    def current_threshold(self, sender: "TcpSender") -> int:
        """Current threshold, after applying any pending time-based decay."""
        if (
            self.decay_interval is not None
            and self._last_adjustment_time is not None
            and self.threshold > self.initial
        ):
            elapsed = sender.simulator.now - self._last_adjustment_time
            steps = int(elapsed / self.decay_interval)
            if steps > 0:
                self.threshold = max(self.initial, self.threshold - steps)
                self._last_adjustment_time = sender.simulator.now
        return self.threshold

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """Raise the threshold — the last fast retransmit was unnecessary."""
        self.spurious_retransmits_seen += 1
        self.threshold = min(self.maximum, self.threshold + self.increment)
        self._last_adjustment_time = sender.simulator.now
