"""Network-wide observation helpers.

The simulator's nodes, interfaces and queues all keep local counters as they
run (drops, bytes forwarded, busy time).  :func:`snapshot` aggregates
those counters into the network-level quantities the paper reports:

* loss rate per switch layer (core / aggregation / edge),
* overall network utilisation (busy fraction of core-facing links),
* aggregate bytes carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

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


def snapshot(
    hosts: Sequence[Host], switches: Sequence[Switch], duration_s: float
) -> NetworkSnapshot:
    """Aggregate the devices' counters over ``duration_s`` of simulated time."""
    result = NetworkSnapshot(duration_s=duration_s)

    for switch in switches:
        stats = result.layer_loss.setdefault(switch.layer, LayerLossStats(switch.layer))
        for interface in switch.interfaces:
            stats.offered_packets += interface.queue.stats.offered_packets
            stats.dropped_packets += interface.queue.stats.dropped_packets
            stats.dropped_bytes += interface.queue.stats.dropped_bytes
            stats.fault_dropped_packets += interface.fault_drops
            stats.fault_dropped_offered += interface.fault_drops_offered
            result.total_bytes_carried += interface.bytes_sent
            result.total_packets_dropped += (
                interface.queue.stats.dropped_packets + interface.fault_drops
            )
            result.total_fault_drops += interface.fault_drops

    if duration_s > 0:
        result.core_utilisation = _mean_utilisation(switches, "core", duration_s)
        result.edge_utilisation = _mean_utilisation(switches, "edge", duration_s)

    for host in hosts:
        for interface in host.interfaces:
            result.total_bytes_carried += interface.bytes_sent
            result.total_packets_dropped += (
                interface.queue.stats.dropped_packets + interface.fault_drops
            )
            result.total_fault_drops += interface.fault_drops

    return result


def _mean_utilisation(switches: Sequence[Switch], layer: str, duration_s: float) -> float:
    """Mean busy fraction of the interfaces of ``layer``'s switches (0.0 if none)."""
    interfaces: List[Interface] = [
        interface
        for switch in switches
        if switch.layer == layer
        for interface in switch.interfaces
    ]
    if not interfaces:
        return 0.0
    # Accumulated left to right: builtin sum() compensates float additions
    # from CPython 3.12 on, and pinned outputs hold the bits.
    total = 0.0
    for interface in interfaces:
        total += interface.utilisation(duration_s)
    return total / len(interfaces)
