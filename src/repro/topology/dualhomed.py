"""Dual-homed FatTree.

The paper's roadmap section proposes multi-homed topologies: connecting each
server to two edge switches multiplies the number of parallel paths at the
access layer and therefore the burst tolerance of the packet-scatter phase.
This module builds that variant — a FatTree in which every host has a second
uplink to the *next* edge switch of its pod.
"""

from __future__ import annotations

from typing import Optional

from repro.net.address import encode_fattree_address
from repro.net.host import Host
from repro.net.link import QueueFactory
from repro.net.switch import LAYER_AGGREGATION, LAYER_CORE, LAYER_EDGE
from repro.sim.engine import Simulator
from repro.topology.base import Topology
from repro.topology.fattree import FatTreeParams


class DualHomedFatTreeTopology(Topology):
    """A FatTree whose hosts are attached to two edge switches each.

    Requires at least two edge switches per pod (``k >= 4``).
    """

    def __init__(
        self,
        simulator: Simulator,
        params: FatTreeParams = FatTreeParams(),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if params.k < 4:
            raise ValueError("a dual-homed FatTree needs k >= 4 (two edge switches per pod)")
        self.params = params
        self.default_queue_factory = queue_factory
        half_k = params.k // 2

        core_switches = [
            self.add_switch(f"core-{index}", LAYER_CORE) for index in range(params.num_core)
        ]

        for pod in range(params.num_pods):
            aggregation_switches = [
                self.add_switch(f"agg-{pod}-{index}", LAYER_AGGREGATION)
                for index in range(params.agg_per_pod)
            ]
            edge_switches = [
                self.add_switch(f"edge-{pod}-{index}", LAYER_EDGE)
                for index in range(params.edge_per_pod)
            ]

            for agg_index, aggregation in enumerate(aggregation_switches):
                for offset in range(half_k):
                    core = core_switches[agg_index * half_k + offset]
                    self.connect_nodes(
                        aggregation,
                        core,
                        params.effective_core_rate_bps,
                        params.link_delay_s,
                        queue_factory,
                    )

            for edge in edge_switches:
                for aggregation in aggregation_switches:
                    self.connect_nodes(
                        edge,
                        aggregation,
                        params.link_rate_bps,
                        params.link_delay_s,
                        queue_factory,
                    )

            for edge_index, edge in enumerate(edge_switches):
                secondary_edge = edge_switches[(edge_index + 1) % len(edge_switches)]
                for host_index in range(params.effective_hosts_per_edge):
                    address = encode_fattree_address(pod, edge_index, host_index)
                    host = self.add_host(f"host-{pod}-{edge_index}-{host_index}", address)
                    self.connect_nodes(
                        host,
                        edge,
                        params.link_rate_bps,
                        params.link_delay_s,
                        queue_factory,
                    )
                    self.connect_nodes(
                        host,
                        secondary_edge,
                        params.link_rate_bps,
                        params.link_delay_s,
                        queue_factory,
                    )

        self.build_routes()

    def expected_path_count(self, host_a: Host, host_b: Host) -> int:
        """Paths between two hosts; dual homing doubles the access-layer diversity."""
        if host_a.address == host_b.address:
            return 1
        base = self.params.inter_pod_path_count
        if (host_a.address >> 20) == (host_b.address >> 20):
            base = self.params.intra_pod_path_count
        return base * 2
