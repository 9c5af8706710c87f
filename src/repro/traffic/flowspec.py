"""Flow specifications.

A :class:`FlowSpec` is a purely declarative description of one transfer —
who sends how many bytes to whom, starting when, over which transport.  The
experiment runner turns specs into concrete sender/receiver endpoints; the
metrics layer joins the spec back to the measured outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Protocol identifiers accepted by the experiment runner.
PROTOCOL_TCP = "tcp"
PROTOCOL_MPTCP = "mptcp"
PROTOCOL_MMPTCP = "mmptcp"

ALL_PROTOCOLS = (PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)


@dataclass
class FlowSpec:
    """Description of one application-level transfer.

    Attributes:
        flow_id: unique identifier within the experiment.
        source / destination: host *names* in the topology.
        size_bytes: application bytes to transfer.
        start_time: simulated time at which the sender opens the connection.
        protocol: one of :data:`ALL_PROTOCOLS`.
        is_long: marks background (bandwidth-hungry) flows; short flows are
            the latency-sensitive ones whose completion times the paper plots.
        num_subflows: MPTCP/MMPTCP subflow count (ignored by single-path protocols).
    """

    flow_id: int
    source: str
    destination: str
    size_bytes: int
    start_time: float = 0.0
    protocol: str = PROTOCOL_TCP
    is_long: bool = False
    num_subflows: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.start_time < 0:
            raise ValueError("start_time cannot be negative")
        if self.protocol not in ALL_PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.num_subflows < 1:
            raise ValueError("num_subflows must be at least 1")
        if self.source == self.destination:
            raise ValueError("a flow cannot have the same source and destination")

    @property
    def is_short(self) -> bool:
        """Convenience inverse of :attr:`is_long`."""
        return not self.is_long
