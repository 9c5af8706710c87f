"""Timed fault injection: link failures, degradation and migration.

A fault schedule is a tuple of :class:`FaultEvent`s — pure, hashable,
picklable data, so it can live on a frozen :class:`ExperimentConfig` and
travel to worker processes unchanged.  The :class:`FaultInjector` arms the
schedule on a concrete topology: at each event's time it flips the named
link's state (both directions of the full-duplex pair), mutates the
topology's connectivity graph, and rebuilds the ECMP forwarding tables
around the failure (``allow_partial=True`` — a partition makes the affected
destinations unroutable rather than crashing the run).

Two layers cooperate to keep traffic flowing:

* the routing rebuild removes dead next hops from every ECMP group, so new
  path selections never consider them;
* :meth:`repro.net.switch.Switch.receive` re-hashes over the
  live subset of a group if the hashed choice is down, which covers any
  window where tables and link state disagree.

Beyond the four link verbs, ``migrate_host`` detaches the named host
(``node_a``), waits out the migration downtime (``duration_s``), then
re-attaches it to the named switch (``node_b``) under the same address — see
:meth:`repro.topology.base.Topology.detach_host` and
:meth:`~repro.topology.base.Topology.attach_host`.

Idempotency: re-applying a state a link is already in is an explicit no-op.
``link_up`` on an up link does not re-add the graph edge (re-adding is
harmless in the simple connectivity graph, but the rebuild it triggered was
pure waste and the intent is ambiguous), ``link_down`` on a down link changes nothing, and
``restore`` without a matching ``degrade`` leaves the rate untouched.  Every
scheduled event is still reported to the injector's ``probes`` through
``observe_trace``, so schedules remain auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.obs.telemetry import NULL_PROBES, TelemetryProbes

if TYPE_CHECKING:  # pragma: no cover - annotations only; FaultEvent loads without the stack
    from repro.net.link import Interface
    from repro.sim.engine import Simulator
    from repro.topology.base import Topology

#: Fault kinds.
LINK_DOWN = "link_down"
LINK_UP = "link_up"
DEGRADE = "degrade"
RESTORE = "restore"
MIGRATE_HOST = "migrate_host"

_KINDS = (LINK_DOWN, LINK_UP, DEGRADE, RESTORE, MIGRATE_HOST)


@dataclass(frozen=True)
class FaultEvent:
    """One timed change to the fabric.

    Attributes:
        time_s: simulated time at which the fault is applied.
        kind: one of ``link_down`` / ``link_up`` / ``degrade`` / ``restore``
            / ``migrate_host``.
        node_a / node_b: for link kinds, names of the link's endpoints (order
            irrelevant).  For ``migrate_host``, ``node_a`` is the host being
            migrated and ``node_b`` the switch it re-attaches to (order
            matters).
        factor: for ``degrade``, the multiplier applied to the link's
            *original* rate (0.25 = quarter speed).  Ignored otherwise.
        duration_s: for ``migrate_host``, the downtime between detach and
            re-attach (0 = atomic migration).  Ignored otherwise.
    """

    time_s: float
    kind: str
    node_a: str
    node_b: str
    factor: float = 1.0
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time cannot be negative")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == DEGRADE and not 0 < self.factor:
            raise ValueError("degrade factor must be positive")
        if not self.node_a or not self.node_b or self.node_a == self.node_b:
            raise ValueError("fault endpoints must be two distinct node names")
        if self.duration_s < 0:
            raise ValueError("fault duration cannot be negative")


def link_failure(time_s: float, node_a: str, node_b: str) -> FaultEvent:
    """A permanent failure of the ``node_a``–``node_b`` link."""
    return FaultEvent(time_s=time_s, kind=LINK_DOWN, node_a=node_a, node_b=node_b)


def link_flap(
    down_s: float, up_s: float, node_a: str, node_b: str
) -> Tuple[FaultEvent, FaultEvent]:
    """A failure at ``down_s`` followed by recovery at ``up_s``."""
    if up_s <= down_s:
        raise ValueError("recovery must come after the failure")
    return (
        FaultEvent(time_s=down_s, kind=LINK_DOWN, node_a=node_a, node_b=node_b),
        FaultEvent(time_s=up_s, kind=LINK_UP, node_a=node_a, node_b=node_b),
    )


def degradation(
    time_s: float, node_a: str, node_b: str, factor: float, restore_s: Optional[float] = None
) -> Tuple[FaultEvent, ...]:
    """Capacity degradation to ``factor`` × original, optionally restored later."""
    events = [
        FaultEvent(time_s=time_s, kind=DEGRADE, node_a=node_a, node_b=node_b, factor=factor)
    ]
    if restore_s is not None:
        if restore_s <= time_s:
            raise ValueError("restore must come after the degradation")
        events.append(
            FaultEvent(time_s=restore_s, kind=RESTORE, node_a=node_a, node_b=node_b)
        )
    return tuple(events)


def host_migration(
    time_s: float, host: str, new_attachment: str, downtime_s: float = 0.0
) -> FaultEvent:
    """Re-home ``host`` onto the ``new_attachment`` switch at ``time_s``.

    ``downtime_s`` is the detach→re-attach gap (VM blackout window); the
    host keeps its address, as in a live migration.
    """
    return FaultEvent(
        time_s=time_s,
        kind=MIGRATE_HOST,
        node_a=host,
        node_b=new_attachment,
        duration_s=downtime_s,
    )


class FaultInjector:
    """Arms a fault schedule on a topology inside a running simulation."""

    def __init__(
        self,
        simulator: Simulator,
        topology: "Topology",
        schedule: Tuple[FaultEvent, ...],
        probes: TelemetryProbes = NULL_PROBES,
    ) -> None:
        self.simulator = simulator
        self.topology = topology
        self.schedule = tuple(schedule)
        self.probes = probes
        # Original rates, captured at degrade time so RESTORE can undo it.
        self._original_rates: Dict[Tuple[str, str], Tuple[float, float]] = {}
        # Validate eagerly: a typo'd node name should fail at arm time, not
        # mid-simulation.
        for event in self.schedule:
            self._validate(event)

    def arm(self) -> None:
        """Schedule every fault event on the simulator."""
        for event in self.schedule:
            self.simulator.schedule_at(event.time_s, self._apply, event)

    # ------------------------------------------------------------------

    def _validate(self, event: FaultEvent) -> None:
        if event.kind == MIGRATE_HOST:
            host = self._named_node(event.node_a)
            if host.kind != "host":
                raise ValueError(f"migrate_host subject {event.node_a!r} is not a host")
            switch = self._named_node(event.node_b)
            if switch.kind != "switch":
                raise ValueError(
                    f"migrate_host attachment {event.node_b!r} is not a switch"
                )
        else:
            # Every link kind names an existing link.
            self._interfaces_for(event)

    def _named_node(self, name: str):
        try:
            return self.topology.node(name)
        except KeyError:
            raise ValueError(f"unknown node {name!r}") from None

    def _interfaces_for(self, event: FaultEvent) -> Tuple["Interface", "Interface"]:
        return self.topology.interfaces_between(event.node_a, event.node_b)

    @staticmethod
    def _oriented(
        event: FaultEvent, iface_ab: "Interface", iface_ba: "Interface"
    ) -> Tuple[Tuple[str, str], "Interface", "Interface"]:
        """A canonical (key, iface, iface) triple for per-link rate state.

        Endpoint order is documented as irrelevant, so a DEGRADE named
        ``(a, b)`` must be matched by a RESTORE named ``(b, a)``: both the
        dictionary key and the direction the stored rates refer to are
        normalised to sorted-name order.
        """
        if event.node_a <= event.node_b:
            return (event.node_a, event.node_b), iface_ab, iface_ba
        return (event.node_b, event.node_a), iface_ba, iface_ab

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == MIGRATE_HOST:
            self._apply_migration(event)
            return
        iface_ab, iface_ba = self._interfaces_for(event)
        graph = self.topology.graph
        if event.kind == LINK_DOWN:
            # No-op when the link is already fully down: nothing to change,
            # so no route rebuild either.
            edge_present = graph.has_edge(event.node_a, event.node_b)
            if iface_ab.up or iface_ba.up or edge_present:
                iface_ab.set_up(False)
                iface_ba.set_up(False)
                if edge_present:
                    graph.remove_edge(event.node_a, event.node_b)
                self.topology.rebuild_routes()
        elif event.kind == LINK_UP:
            # No-op when the link is already fully up: re-adding the graph
            # edge and rebuilding routes would be pure (non-deterministic
            # looking) churn.
            edge_present = graph.has_edge(event.node_a, event.node_b)
            if not (iface_ab.up and iface_ba.up and edge_present):
                iface_ab.set_up(True)
                iface_ba.set_up(True)
                if not edge_present:
                    graph.add_edge(event.node_a, event.node_b)
                self.topology.rebuild_routes()
        elif event.kind == DEGRADE:
            key, iface_ab, iface_ba = self._oriented(event, iface_ab, iface_ba)
            if key not in self._original_rates:
                self._original_rates[key] = (iface_ab.rate_bps, iface_ba.rate_bps)
            original_ab, original_ba = self._original_rates[key]
            iface_ab.set_rate(original_ab * event.factor)
            iface_ba.set_rate(original_ba * event.factor)
        else:  # RESTORE — without a matching DEGRADE this is an explicit no-op.
            key, iface_ab, iface_ba = self._oriented(event, iface_ab, iface_ba)
            if key in self._original_rates:
                original_ab, original_ba = self._original_rates.pop(key)
                iface_ab.set_rate(original_ab)
                iface_ba.set_rate(original_ba)
        if self.probes.enabled:
            self.probes.observe_trace(
                self.simulator.now,
                event.kind,
                link=f"{event.node_a}<->{event.node_b}",
                factor=event.factor,
            )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------

    def _apply_migration(self, event: FaultEvent) -> None:
        if self.probes.enabled:
            self.probes.observe_trace(
                self.simulator.now,
                event.kind,
                host=event.node_a,
                attachment=event.node_b,
                downtime=event.duration_s,
            )
        if event.duration_s > 0:
            # Downtime window: the host drops off the fabric now and the
            # routes converge around its absence until re-attach.
            self.topology.detach_host(event.node_a)
            self.simulator.schedule(event.duration_s, self._complete_migration, event)
        else:
            # Atomic migration: converge once, on the post-migration graph.
            self.topology.detach_host(event.node_a, rebuild=False)
            self._complete_migration(event)

    def _complete_migration(self, event: FaultEvent) -> None:
        self.topology.attach_host(event.node_a, event.node_b)
        if self.probes.enabled:
            host = self.topology.node(event.node_a)
            self.probes.observe_trace(
                self.simulator.now,
                "host_attached",
                host=event.node_a,
                attachment=event.node_b,
                address=host.address,
            )
