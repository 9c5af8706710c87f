"""Fluid view of a packet topology: directed link capacities and paths.

The flow-level tier reuses the packet tier's topology construction wholesale
(:func:`repro.experiments.runner.build_topology`), so both fidelity tiers see
the *same* fabric: same node names, same link rates and delays, same
connectivity graph.  :class:`FluidFabric` then projects that fabric down to
what a bandwidth-sharing model needs — a capacity per directed link, the
propagation delay along a path, and the set of equal-cost shortest paths
between two hosts — with none of the per-packet machinery (queues, packet
pool, per-interface timers) ever touched.

Faults: :class:`FluidFaultApplier` consumes the same
:class:`~repro.net.faults.FaultEvent` schedules as the packet tier's
:class:`~repro.net.faults.FaultInjector` and mirrors its semantics for the
link verbs — ``link_down`` zeroes both directions' capacity, ``degrade``
multiplies the *original* rate keyed by the sorted name pair, ``restore``
undoes it.  ``migrate_host`` needs per-connection re-establishment the fluid
model cannot express, so it is rejected up front with a clear error.  Each
applied event is reported to the applier's ``probes`` through
``observe_trace``, with the same name and payload the packet tier's injector
uses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.net.faults import (
    DEGRADE,
    LINK_DOWN,
    LINK_UP,
    MIGRATE_HOST,
    RESTORE,
    FaultEvent,
)
from repro.net.routing import all_shortest_paths
from repro.net.switch import Switch
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.topology.base import Topology

#: A directed link, named by (tail node, head node).
Link = Tuple[str, str]
#: A path as the tuple of directed links it crosses.
LinkPath = Tuple[Link, ...]


class FluidFabric:
    """Directed-link capacity/delay view of a built :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.graph = topology.graph
        #: Administrative state and nominal rate per directed link.  The
        #: effective capacity handed to the solver is ``rate if up else 0``.
        self.rate_bps: Dict[Link, float] = {}
        self.up: Dict[Link, bool] = {}
        self.delay_s: Dict[Link, float] = {}
        #: Rate at construction time, the baseline ``degrade`` multiplies.
        self.original_rate_bps: Dict[Link, float] = {}
        #: Layer attribution for utilisation metrics: a directed link belongs
        #: to its *tail* node, mirroring how the packet tier's monitor sums
        #: per-interface busy time over each switch layer's interfaces.
        self.layer_of: Dict[Link, str] = {}
        for name_a, name_b in sorted(topology.graph.edges()):
            iface_ab, iface_ba = topology.interfaces_between(name_a, name_b)
            for tail, head, iface in (
                (name_a, name_b, iface_ab),
                (name_b, name_a, iface_ba),
            ):
                link = (tail, head)
                self.rate_bps[link] = iface.rate_bps
                self.up[link] = iface.up
                self.delay_s[link] = iface.delay_s
                self.original_rate_bps[link] = iface.rate_bps
                node = topology.node(tail)
                self.layer_of[link] = node.layer if isinstance(node, Switch) else "host"
        self._path_cache: Dict[Tuple[str, str], List[LinkPath]] = {}

    # ------------------------------------------------------------------
    # Capacities
    # ------------------------------------------------------------------

    def capacity(self, link: Link) -> float:
        """Effective capacity of one directed link (0 while it is down)."""
        return self.rate_bps[link] if self.up[link] else 0.0

    def capacities(self) -> Dict[Link, float]:
        """Effective capacity of every directed link (solver input)."""
        return {link: self.rate_bps[link] if self.up[link] else 0.0
                for link in self.rate_bps}

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def paths_between(self, source: str, destination: str) -> List[LinkPath]:
        """Every equal-cost shortest path, as directed link tuples, sorted.

        Paths are computed on the *construction-time* graph and cached per
        (source, destination) pair: the fluid tier models a link failure as
        zero capacity (stalling the subflows crossing it) rather than as an
        ECMP re-route.  This is a documented approximation — see the
        README's fidelity-tier section.
        """
        key = (source, destination)
        cached = self._path_cache.get(key)
        if cached is None:
            node_paths = sorted(all_shortest_paths(self.graph, source, destination))
            cached = [
                tuple((path[i], path[i + 1]) for i in range(len(path) - 1))
                for path in node_paths
            ]
            if not cached:  # pragma: no cover - connected fabrics only
                raise ValueError(f"no path between {source!r} and {destination!r}")
            self._path_cache[key] = cached
        return cached

    def path_rtt_s(self, path: LinkPath, mss_bytes: int) -> float:
        """Estimated round-trip time along ``path``.

        Propagation both ways plus one store-and-forward serialisation of a
        full data segment per forward hop (ACKs are treated as free).  Used
        only for the connection-startup latency correction, never for the
        bandwidth-sharing itself.
        """
        # Accumulated left to right: builtin sum() compensates float
        # additions from CPython 3.12 on, and stored artifacts pin the bits.
        propagation = 0.0
        serialisation = 0.0
        for link in path:
            propagation += self.delay_s[link]
            serialisation += (mss_bytes * 8.0) / self.original_rate_bps[link]
        return 2.0 * propagation + serialisation


class FluidFaultApplier:
    """Arms a packet-tier fault schedule against a :class:`FluidFabric`."""

    def __init__(
        self,
        simulator: Simulator,
        fabric: FluidFabric,
        schedule: Tuple[FaultEvent, ...],
        on_change: Callable[[], None],
        probes: TelemetryProbes = NULL_PROBES,
    ) -> None:
        self.simulator = simulator
        self.fabric = fabric
        self.schedule = tuple(schedule)
        self.on_change = on_change
        self.probes = probes
        # Original (pre-degrade) rates per sorted name pair, exactly like the
        # packet tier's injector, so degrade factors never compound.
        self._original_rates: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for event in self.schedule:
            self._validate(event)

    def _validate(self, event: FaultEvent) -> None:
        if event.kind == MIGRATE_HOST:
            raise ValueError(
                "migrate_host faults require packet fidelity: the fluid tier "
                "has no per-connection state to re-establish after a re-homing "
                "(run this scenario with fidelity='packet')"
            )
        if (event.node_a, event.node_b) not in self.fabric.rate_bps:
            raise ValueError(f"no link between {event.node_a!r} and {event.node_b!r}")

    def arm(self) -> None:
        """Schedule every fault event on the simulator."""
        for event in self.schedule:
            self.simulator.schedule_at(event.time_s, self._apply, event)

    # ------------------------------------------------------------------

    def _oriented(self, event: FaultEvent) -> Tuple[Tuple[str, str], Link, Link]:
        """Canonical (sorted-pair key, forward link, reverse link) triple."""
        if event.node_a <= event.node_b:
            key = (event.node_a, event.node_b)
        else:
            key = (event.node_b, event.node_a)
        return key, (key[0], key[1]), (key[1], key[0])

    def _apply(self, event: FaultEvent) -> None:
        fabric = self.fabric
        key, link_ab, link_ba = self._oriented(event)
        if event.kind == LINK_DOWN:
            fabric.up[link_ab] = False
            fabric.up[link_ba] = False
        elif event.kind == LINK_UP:
            fabric.up[link_ab] = True
            fabric.up[link_ba] = True
        elif event.kind == DEGRADE:
            if key not in self._original_rates:
                self._original_rates[key] = (
                    fabric.rate_bps[link_ab],
                    fabric.rate_bps[link_ba],
                )
            original_ab, original_ba = self._original_rates[key]
            fabric.rate_bps[link_ab] = original_ab * event.factor
            fabric.rate_bps[link_ba] = original_ba * event.factor
        else:  # RESTORE — without a matching DEGRADE this is an explicit no-op.
            assert event.kind == RESTORE
            if key in self._original_rates:
                original_ab, original_ba = self._original_rates.pop(key)
                fabric.rate_bps[link_ab] = original_ab
                fabric.rate_bps[link_ba] = original_ba
        if self.probes.enabled:
            self.probes.observe_trace(
                self.simulator.now,
                event.kind,
                link=f"{event.node_a}<->{event.node_b}",
                factor=event.factor,
            )
        self.on_change()
