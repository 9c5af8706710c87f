"""VL2 topology (Greenberg et al., SIGCOMM 2009).

VL2 is the second data-centre fabric the paper names.  It is a three-layer
Clos: Top-of-Rack (ToR) switches connect upwards to two aggregation switches,
and the aggregation layer forms a complete bipartite graph with the
intermediate (core) layer.  Valiant load balancing in the original system is
approximated here by hash-based ECMP over the many equal-cost paths, which is
how the MPTCP-in-datacentre literature (and this paper) treat VL2 as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.link import QueueFactory
from repro.net.switch import LAYER_AGGREGATION, LAYER_CORE, LAYER_EDGE
from repro.sim.engine import Simulator
from repro.topology.base import DEFAULT_LINK_DELAY_S, DEFAULT_LINK_RATE_BPS, Topology


@dataclass(frozen=True)
class Vl2Params:
    """Configuration of a VL2 fabric.

    Attributes:
        num_tor: number of Top-of-Rack switches.
        num_aggregation: number of aggregation switches (each ToR connects to
            two of them, chosen round-robin).
        num_intermediate: number of intermediate (core) switches.
        hosts_per_tor: servers per rack.
        server_link_rate_bps: rate of the host-to-ToR links.
        fabric_link_rate_bps: rate of ToR-agg and agg-intermediate links
            (VL2 uses faster links in the fabric than to the servers).
        link_delay_s: per-hop propagation delay.
    """

    num_tor: int = 8
    num_aggregation: int = 4
    num_intermediate: int = 4
    hosts_per_tor: int = 8
    server_link_rate_bps: float = DEFAULT_LINK_RATE_BPS
    fabric_link_rate_bps: float = DEFAULT_LINK_RATE_BPS * 10
    link_delay_s: float = DEFAULT_LINK_DELAY_S

    def __post_init__(self) -> None:
        if self.num_tor < 1 or self.num_aggregation < 2 or self.num_intermediate < 1:
            raise ValueError("VL2 needs >=1 ToR, >=2 aggregation and >=1 intermediate switches")
        if self.hosts_per_tor < 1:
            raise ValueError("hosts_per_tor must be at least 1")

    @property
    def num_hosts(self) -> int:
        """Total servers in the fabric."""
        return self.num_tor * self.hosts_per_tor


class Vl2Topology(Topology):
    """A fully wired, routed VL2 Clos fabric."""

    def __init__(
        self,
        simulator: Simulator,
        params: Vl2Params = Vl2Params(),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        self.params = params
        self.default_queue_factory = queue_factory

        intermediate_switches = [
            self.add_switch(f"int-{index}", LAYER_CORE)
            for index in range(params.num_intermediate)
        ]
        aggregation_switches = [
            self.add_switch(f"agg-{index}", LAYER_AGGREGATION)
            for index in range(params.num_aggregation)
        ]
        tor_switches = [
            self.add_switch(f"tor-{index}", LAYER_EDGE) for index in range(params.num_tor)
        ]

        # Aggregation <-> intermediate: complete bipartite graph.
        for aggregation in aggregation_switches:
            for intermediate in intermediate_switches:
                self.connect_nodes(
                    aggregation,
                    intermediate,
                    params.fabric_link_rate_bps,
                    params.link_delay_s,
                    queue_factory,
                )

        # Each ToR connects to two aggregation switches (round-robin pairing).
        for tor_index, tor in enumerate(tor_switches):
            first = aggregation_switches[tor_index % params.num_aggregation]
            second = aggregation_switches[(tor_index + 1) % params.num_aggregation]
            for aggregation in {first.name: first, second.name: second}.values():
                self.connect_nodes(
                    tor,
                    aggregation,
                    params.fabric_link_rate_bps,
                    params.link_delay_s,
                    queue_factory,
                )

        # Hosts.
        address = 0
        for tor_index, tor in enumerate(tor_switches):
            for host_index in range(params.hosts_per_tor):
                host = self.add_host(f"host-{tor_index}-{host_index}", address)
                address += 1
                self.connect_nodes(
                    host, tor, params.server_link_rate_bps, params.link_delay_s, queue_factory
                )

        self.build_routes()
