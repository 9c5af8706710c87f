"""Network-wide observation helpers.

The simulator's nodes, interfaces and queues all keep local counters as they
run (drops, bytes forwarded, busy time).  :class:`NetworkMonitor` aggregates
those counters into the network-level quantities the paper reports:

* loss rate per switch layer (core / aggregation / edge),
* overall network utilisation (busy fraction of core-facing links),
* aggregate bytes carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only; the records load without the stack
    from repro.net.host import Host
    from repro.net.link import Interface
    from repro.net.switch import Switch


@dataclass
class LayerLossStats:
    """Loss statistics aggregated over all switches of one layer.

    ``offered_packets`` / ``dropped_packets`` come from the output queues;
    ``fault_dropped_packets`` counts packets lost at a *down* interface
    (offered while down, or on the wire when the link was cut), which would
    otherwise vanish from the loss accounting.
    """

    layer: str
    offered_packets: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    fault_dropped_packets: int = 0
    #: Subset of ``fault_dropped_packets`` rejected before reaching a queue;
    #: only these are missing from ``offered_packets``.
    fault_dropped_offered: int = 0

    @property
    def loss_rate(self) -> float:
        """Fraction of packets offered to this layer's interfaces that were lost.

        Every fault drop is a loss, but only offer-time fault drops are added
        to the denominator: a packet lost on the wire was already counted as
        offered by the queue it passed through, and counting it twice would
        understate the loss rate.
        """
        offered = self.offered_packets + self.fault_dropped_offered
        if offered == 0:
            return 0.0
        return (self.dropped_packets + self.fault_dropped_packets) / offered


@dataclass
class NetworkSnapshot:
    """Aggregated network statistics over a measurement interval."""

    duration_s: float
    layer_loss: Dict[str, LayerLossStats] = field(default_factory=dict)
    core_utilisation: float = 0.0
    edge_utilisation: float = 0.0
    total_bytes_carried: int = 0
    total_packets_dropped: int = 0
    #: Packets lost at down interfaces (hosts and switches); these bypass the
    #: queues entirely and are *also* included in ``total_packets_dropped``.
    total_fault_drops: int = 0

    def loss_rate(self, layer: str) -> float:
        """Loss rate for one switch layer (0.0 if the layer is absent)."""
        stats = self.layer_loss.get(layer)
        return stats.loss_rate if stats is not None else 0.0


class NetworkMonitor:
    """Aggregates per-device counters into network-level statistics."""

    def __init__(self, hosts: Sequence[Host], switches: Sequence[Switch]) -> None:
        self.hosts = list(hosts)
        self.switches = list(switches)

    # ------------------------------------------------------------------

    def _interfaces_of(self, switches: Iterable[Switch]) -> List[Interface]:
        interfaces: List[Interface] = []
        for switch in switches:
            interfaces.extend(switch.interfaces)
        return interfaces

    def snapshot(self, duration_s: float) -> NetworkSnapshot:
        """Build a :class:`NetworkSnapshot` covering ``duration_s`` of simulated time."""
        snapshot = NetworkSnapshot(duration_s=duration_s)

        for switch in self.switches:
            stats = snapshot.layer_loss.setdefault(switch.layer, LayerLossStats(switch.layer))
            for interface in switch.interfaces:
                stats.offered_packets += interface.queue.stats.offered_packets
                stats.dropped_packets += interface.queue.stats.dropped_packets
                stats.dropped_bytes += interface.queue.stats.dropped_bytes
                stats.fault_dropped_packets += interface.fault_drops
                stats.fault_dropped_offered += interface.fault_drops_offered
                snapshot.total_bytes_carried += interface.bytes_sent
                snapshot.total_packets_dropped += (
                    interface.queue.stats.dropped_packets + interface.fault_drops
                )
                snapshot.total_fault_drops += interface.fault_drops

        core_switches = [switch for switch in self.switches if switch.layer == "core"]
        edge_switches = [switch for switch in self.switches if switch.layer == "edge"]
        core_interfaces = self._interfaces_of(core_switches)
        edge_interfaces = self._interfaces_of(edge_switches)
        if core_interfaces and duration_s > 0:
            snapshot.core_utilisation = sum(
                interface.utilisation(duration_s) for interface in core_interfaces
            ) / len(core_interfaces)
        if edge_interfaces and duration_s > 0:
            snapshot.edge_utilisation = sum(
                interface.utilisation(duration_s) for interface in edge_interfaces
            ) / len(edge_interfaces)

        for host in self.hosts:
            for interface in host.interfaces:
                snapshot.total_bytes_carried += interface.bytes_sent
                snapshot.total_packets_dropped += (
                    interface.queue.stats.dropped_packets + interface.fault_drops
                )
                snapshot.total_fault_drops += interface.fault_drops

        return snapshot
