"""Base node type shared by hosts and switches.

Nodes report drops and routing failures through the one observation
channel, :mod:`repro.obs.telemetry` probes: ``probes`` is the shared
disabled :data:`~repro.obs.telemetry.NULL_PROBES` class attribute until a
runner installs a recorder on the instance, so an unprobed drop costs one
attribute test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.packet import Packet
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import Interface



class Node:
    """A network element with a set of interfaces.

    Attributes:
        name: human-readable unique name (also the graph vertex id).
        interfaces: interfaces in attachment order.
        neighbor_to_interface: maps a neighbouring node's name to the local
            interface that reaches it (used when installing routing tables).
    """

    kind = "node"
    probes: TelemetryProbes = NULL_PROBES

    def __init__(self, simulator: Simulator, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self.interfaces: List["Interface"] = []
        self.neighbor_to_interface: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def add_interface(self, interface: "Interface", peer: "Node") -> int:
        """Register ``interface`` (reaching ``peer``) and return its index."""
        index = len(self.interfaces)
        self.interfaces.append(interface)
        self.neighbor_to_interface[peer.name] = index
        return index

    def interface_to(self, peer_name: str) -> "Interface":
        """Return the interface that reaches the named neighbour."""
        return self.interfaces[self.neighbor_to_interface[peer_name]]

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, interface: Optional["Interface"]) -> None:
        """Handle a packet arriving on ``interface`` (subclasses override)."""
        raise NotImplementedError

    def note_drop(self, packet: Packet, interface: "Interface") -> None:
        """Report a packet lost in one of this node's output queues."""
        probes = self.probes
        if probes.enabled:
            probes.observe_trace(
                self.simulator.now,
                "packet_drop",
                node=self.name,
                kind=self.kind,
                interface=interface.name,
                flow_id=packet.flow_id,
                size=packet.size,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, {len(self.interfaces)} ifaces)"
