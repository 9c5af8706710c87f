"""Topology construction framework.

A :class:`Topology` owns the simulator's node objects (hosts and switches),
the connectivity graph used for route computation, and convenience lookups.
Concrete topologies (the FatTree fabrics, the small test topologies)
subclass it and populate the fabric in their constructor, then call
:meth:`build_routes` once wiring is complete.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Dict, Optional

from repro.net.host import Host
from repro.net.link import Interface, QueueFactory, connect
from repro.net.monitor import snapshot
from repro.net.node import Node
from repro.net.routing import Graph, build_ecmp_routes, count_equal_cost_paths
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.units import gigabits_per_second, microseconds


class Topology:
    """Base class for all network fabrics."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.graph = Graph()
        self.hosts: list[Host] = []
        self.switches: list[Switch] = []
        self._nodes_by_name: Dict[str, Node] = {}
        self._host_addresses: set[int] = set()
        #: Queue factory reused for links created after construction
        #: (host re-attachment); concrete topologies record theirs.
        self.default_queue_factory: Optional[QueueFactory] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def add_host(self, name: str, address: int) -> Host:
        """Create a host, register it in the graph and return it."""
        if name in self._nodes_by_name:
            raise ValueError(f"duplicate node name {name!r}")
        if address in self._host_addresses:
            raise ValueError(f"duplicate host address {address!r}")
        host = Host(self.simulator, name, address)
        self.hosts.append(host)
        self._nodes_by_name[name] = host
        self._host_addresses.add(address)
        self.graph.add_node(name)
        return host

    def add_switch(self, name: str, layer: str) -> Switch:
        """Create a switch (ECMP salt derived from its creation order) and return it."""
        if name in self._nodes_by_name:
            raise ValueError(f"duplicate node name {name!r}")
        switch = Switch(self.simulator, name, layer=layer, ecmp_salt=len(self.switches) + 1)
        self.switches.append(switch)
        self._nodes_by_name[name] = switch
        self.graph.add_node(name)
        return switch

    def connect_nodes(
        self,
        node_a: Node,
        node_b: Node,
        rate_bps: float,
        delay_s: float,
        queue_factory: Optional[QueueFactory] = None,
    ) -> tuple[Interface, Interface]:
        """Wire a full-duplex link between two already-registered nodes."""
        interfaces = connect(self.simulator, node_a, node_b, rate_bps, delay_s, queue_factory)
        self.graph.add_edge(node_a.name, node_b.name)
        return interfaces

    def build_routes(self) -> None:
        """Compute and install ECMP forwarding tables on every switch."""
        build_ecmp_routes(self.graph, self.hosts, self.switches)

    def rebuild_routes(self) -> None:
        """Recompute forwarding tables after the graph changed (fault injection).

        Unlike the initial :meth:`build_routes`, destinations that became
        unreachable are tolerated: their routes are removed and packets for
        them count as unroutable at the switches.
        """
        build_ecmp_routes(self.graph, self.hosts, self.switches, allow_partial=True)

    # ------------------------------------------------------------------
    # Host migration
    # ------------------------------------------------------------------

    def detach_host(self, name: str, *, rebuild: bool = True) -> None:
        """Take ``name`` off the fabric (the first half of a migration).

        Every live link to the host goes administratively down in both
        directions, parked queue contents are purged (a detached host's
        packets are gone for good, on both sides of the cable), and the
        connectivity graph loses the edges.  The host's interfaces are *not*
        removed — interface indices are referenced by switch forwarding
        tables, so dead interfaces stay in place, marked down.  Detaching an already-detached host is a no-op.
        """
        host = self._nodes_by_name.get(name)
        if not isinstance(host, Host):
            raise ValueError(f"unknown host {name!r}")
        for interface in host.interfaces:
            peer = interface.peer
            peer_interface = interface.peer_interface
            if peer is None or peer_interface is None:
                continue
            interface.set_up(False)
            peer_interface.set_up(False)
            interface.purge_queue()
            peer_interface.purge_queue()
            if self.graph.has_edge(name, peer.name):
                self.graph.remove_edge(name, peer.name)
        if rebuild:
            self.rebuild_routes()

    def attach_host(self, name: str, switch_name: str) -> tuple[Interface, Interface]:
        """Attach ``name`` to ``switch_name`` (the second half of a migration).

        A fresh full-duplex link is created (with the host's first
        interface's rate and delay and the topology's queue factory) and the
        ECMP tables are rebuilt so the fabric routes the host's unchanged
        address to the new attachment point.  After a
        ``detach_host(name, rebuild=False)`` the fabric converges once, on
        the post-migration graph.
        """
        host = self._nodes_by_name.get(name)
        if not isinstance(host, Host):
            raise ValueError(f"unknown host {name!r}")
        switch = self._nodes_by_name.get(switch_name)
        if not isinstance(switch, Switch):
            raise ValueError(f"unknown switch {switch_name!r}")
        if not host.interfaces:
            raise ValueError(f"host {name!r} has no interface to take link defaults from")
        reference = host.interfaces[0]
        interfaces = self.connect_nodes(
            host, switch, reference.rate_bps, reference.delay_s, self.default_queue_factory
        )
        self.rebuild_routes()
        return interfaces

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Node object registered under ``name``."""
        return self._nodes_by_name[name]

    def interfaces_between(self, name_a: str, name_b: str) -> tuple[Interface, Interface]:
        """The full-duplex interface pair of the ``name_a``–``name_b`` link.

        Returns ``(a_to_b, b_to_a)``.  Raises ``ValueError`` when the nodes
        are unknown or not directly connected — fault schedules that name a
        non-existent link should fail loudly.
        """
        node_a = self._nodes_by_name.get(name_a)
        node_b = self._nodes_by_name.get(name_b)
        if node_a is None or node_b is None:
            missing = name_a if node_a is None else name_b
            raise ValueError(f"unknown node {missing!r}")
        if name_b not in node_a.neighbor_to_interface or name_a not in node_b.neighbor_to_interface:
            raise ValueError(f"no link between {name_a!r} and {name_b!r}")
        return node_a.interface_to(name_b), node_b.interface_to(name_a)

    def path_count(self, host_a: Host, host_b: Host) -> int:
        """Number of equal-cost shortest paths between two hosts."""
        return count_equal_cost_paths(self.graph, host_a.name, host_b.name)

    def monitor(self) -> SimpleNamespace:
        """``monitor().snapshot(duration_s)``: the form ``benchmarks/ledger`` still calls.

        Everything else calls :func:`repro.net.monitor.snapshot` directly.
        """
        return SimpleNamespace(snapshot=partial(snapshot, self.hosts, self.switches))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({len(self.hosts)} hosts, "
            f"{len(self.switches)} switches, {self.graph.number_of_edges()} links)"
        )


#: Default link parameters shared by the data-centre topologies.  They mirror
#: the canonical values used by the DCTCP / MPTCP data-centre evaluations the
#: paper builds on: 1 Gbps edge links and tens of microseconds per hop.
DEFAULT_LINK_RATE_BPS = gigabits_per_second(1)
DEFAULT_LINK_DELAY_S = microseconds(20)
