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

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.tcp import TcpSender

#: The standard duplicate-ACK threshold: the floor of every policy below.
STANDARD_THRESHOLD = 3
#: The ceiling of the threshold, however many paths or spurious retransmits.
MAXIMUM_THRESHOLD = 64
#: How far one spurious fast retransmission raises the adaptive threshold.
ADAPTIVE_INCREMENT = 2


class StaticReorderingPolicy:
    """A fixed duplicate-ACK threshold (standard TCP uses three)."""

    name = "static"

    def __init__(self, threshold: int = STANDARD_THRESHOLD) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold

    def current_threshold(self, sender: "TcpSender") -> int:
        """Return the configured, constant threshold."""
        return self.threshold

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """A static policy does not react."""


class TopologyInformedPolicy:
    """Duplicate-ACK threshold sized from the number of equal-cost paths.

    With ``p`` parallel paths, up to ``p - 1`` later packets can overtake a
    given packet purely because of path diversity, so the threshold is set to
    the path count (clamped to ``[STANDARD_THRESHOLD, MAXIMUM_THRESHOLD]``).
    The path count comes from FatTree's structured addressing
    (:meth:`repro.topology.fattree.FatTreeTopology.expected_path_count`) —
    or, the paper suggests, from a centralised component on a fabric
    without such addresses.
    """

    name = "topology_informed"

    def __init__(self, path_count: int) -> None:
        if path_count < 1:
            raise ValueError("path_count must be at least 1")
        self.path_count = path_count

    def current_threshold(self, sender: "TcpSender") -> int:
        """Threshold = the path count, clamped to the standard and maximum."""
        return max(STANDARD_THRESHOLD, min(self.path_count, MAXIMUM_THRESHOLD))

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """The topology-derived value is not adjusted."""


class AdaptiveReorderingPolicy:
    """RR-TCP-style reactive threshold adjustment.

    The threshold starts at the standard three, and every spurious fast
    retransmission raises it by ``ADAPTIVE_INCREMENT``, up to
    ``MAXIMUM_THRESHOLD``.
    """

    name = "adaptive"

    def __init__(self) -> None:
        self.threshold = STANDARD_THRESHOLD

    def current_threshold(self, sender: "TcpSender") -> int:
        """The current threshold."""
        return self.threshold

    def on_spurious_retransmit(self, sender: "TcpSender") -> None:
        """Raise the threshold — the last fast retransmit was unnecessary."""
        self.threshold = min(MAXIMUM_THRESHOLD, self.threshold + ADAPTIVE_INCREMENT)
