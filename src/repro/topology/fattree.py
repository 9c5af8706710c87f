"""k-ary FatTree topology (Al-Fares et al., SIGCOMM 2008).

The paper evaluates MMPTCP on a 512-server FatTree with a 4:1
over-subscription ratio.  A canonical k-ary FatTree has:

* ``k`` pods, each with ``k/2`` edge switches and ``k/2`` aggregation switches,
* ``(k/2)^2`` core switches,
* ``k/2`` hosts per edge switch (full bisection bandwidth).

Over-subscription is introduced the same way the authors do it: attach more
hosts per edge switch than the edge switch has uplinks.  With ``k = 8`` and
16 hosts per edge switch the fabric has 512 servers at 4:1 — the paper's
configuration.  The scaled-down defaults used by the benchmarks keep the 4:1
ratio but shrink ``k`` so a pure-Python run finishes in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.address import encode_fattree_address
from repro.net.host import Host
from repro.net.link import QueueFactory
from repro.net.switch import LAYER_AGGREGATION, LAYER_CORE, LAYER_EDGE
from repro.sim.engine import Simulator
from repro.topology.base import DEFAULT_LINK_DELAY_S, DEFAULT_LINK_RATE_BPS, Topology


@dataclass(frozen=True)
class FatTreeParams:
    """Configuration of a (possibly over-subscribed) k-ary FatTree.

    Attributes:
        k: FatTree arity; must be even and >= 2.
        hosts_per_edge: servers attached to each edge switch.  ``None`` means
            the canonical ``k/2`` (1:1 subscription).  Setting it to
            ``(k/2) * r`` yields an ``r``:1 over-subscription ratio.
        link_rate_bps: capacity of every link in the fabric (the host/edge and
            edge/aggregation default).
        core_oversubscription: divides the aggregation↔core link rate, so a
            value of 2.0 gives the core layer half the capacity of the layers
            below it (a 2:1 core:agg over-subscription) without changing the
            wiring or the shortest-path structure.
        link_delay_s: per-hop propagation delay.
    """

    k: int = 4
    hosts_per_edge: Optional[int] = None
    link_rate_bps: float = DEFAULT_LINK_RATE_BPS
    core_oversubscription: float = 1.0
    link_delay_s: float = DEFAULT_LINK_DELAY_S

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"FatTree arity k must be an even integer >= 2, got {self.k}")
        if self.hosts_per_edge is not None and self.hosts_per_edge < 1:
            raise ValueError("hosts_per_edge must be at least 1")
        if self.core_oversubscription <= 0:
            raise ValueError("core_oversubscription must be positive")

    @property
    def effective_hosts_per_edge(self) -> int:
        """Hosts attached to each edge switch after applying the default."""
        return self.hosts_per_edge if self.hosts_per_edge is not None else self.k // 2

    @property
    def effective_core_rate_bps(self) -> float:
        """The aggregation↔core link rate after over-subscription."""
        return self.link_rate_bps / self.core_oversubscription

    @property
    def num_pods(self) -> int:
        """Number of pods (= k)."""
        return self.k

    @property
    def edge_per_pod(self) -> int:
        """Edge switches per pod (= k/2)."""
        return self.k // 2

    @property
    def agg_per_pod(self) -> int:
        """Aggregation switches per pod (= k/2)."""
        return self.k // 2

    @property
    def num_core(self) -> int:
        """Core switches (= (k/2)^2)."""
        return (self.k // 2) ** 2

    @property
    def inter_pod_path_count(self) -> int:
        """Equal-cost paths between hosts in different pods (= (k/2)^2)."""
        return self.num_core

    @property
    def intra_pod_path_count(self) -> int:
        """Equal-cost paths between hosts under different edge switches of one pod."""
        return self.k // 2


class FatTreeTopology(Topology):
    """A fully wired, routed k-ary FatTree."""

    def __init__(
        self,
        simulator: Simulator,
        params: FatTreeParams = FatTreeParams(),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        self.params = params
        self.default_queue_factory = queue_factory
        half_k = params.k // 2

        # Core layer -----------------------------------------------------
        core_switches = [
            self.add_switch(f"core-{index}", LAYER_CORE) for index in range(params.num_core)
        ]

        # Pods -------------------------------------------------------------
        for pod in range(params.num_pods):
            aggregation_switches = [
                self.add_switch(f"agg-{pod}-{index}", LAYER_AGGREGATION)
                for index in range(params.agg_per_pod)
            ]
            edge_switches = [
                self.add_switch(f"edge-{pod}-{index}", LAYER_EDGE)
                for index in range(params.edge_per_pod)
            ]

            # Aggregation <-> core: aggregation switch i of every pod connects
            # to core group i (cores i*k/2 ... i*k/2 + k/2 - 1).
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

            # Edge <-> aggregation: full bipartite within the pod.
            for edge in edge_switches:
                for aggregation in aggregation_switches:
                    self.connect_nodes(
                        edge,
                        aggregation,
                        params.link_rate_bps,
                        params.link_delay_s,
                        queue_factory,
                    )

            # Hosts.
            for edge_index, edge in enumerate(edge_switches):
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

        self.build_routes()

    # ------------------------------------------------------------------

    def expected_path_count(self, host_a: Host, host_b: Host) -> int:
        """Paths between two hosts derived purely from their structured addresses.

        This is the topology-specific shortcut the paper proposes: FatTree's
        addressing scheme reveals whether two hosts share an edge switch, a
        pod, or neither, and hence how many equal-cost paths separate them —
        without querying any central component.
        """
        address_a, address_b = host_a.address, host_b.address
        if address_a == address_b:
            return 1
        if (address_a >> 10) == (address_b >> 10):  # same pod and edge switch
            return 1
        if (address_a >> 20) == (address_b >> 20):  # same pod, different edge
            return self.params.intra_pod_path_count
        return self.params.inter_pod_path_count
