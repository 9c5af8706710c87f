"""Unit tests for the topology builders."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.net.switch import LAYER_AGGREGATION, LAYER_CORE, LAYER_EDGE
from repro.sim.engine import Simulator
from repro.topology.base import Topology
from repro.topology.dualhomed import DualHomedFatTreeTopology
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from support import DumbbellTopology, IncastTopology, verify_all_pairs_routable


def _hosts_and_edge_oversubscription(params: FatTreeParams) -> tuple:
    """The built fabric's host count and its edge layer's host:uplink ratio."""
    topology = FatTreeTopology(Simulator(), params)
    neighbours = topology.node("edge-0-0").neighbor_to_interface
    host_links = sum(name.startswith("host-") for name in neighbours)
    return len(topology.hosts), host_links / (len(neighbours) - host_links)


class TestFatTreeParams:
    def test_canonical_counts_for_k4(self) -> None:
        params = FatTreeParams(k=4)
        assert params.num_pods == 4
        assert params.edge_per_pod == 2
        assert params.agg_per_pod == 2
        assert params.num_core == 4
        assert params.effective_hosts_per_edge == 2
        assert _hosts_and_edge_oversubscription(params) == (16, 1.0)
        assert params.inter_pod_path_count == 4
        assert params.intra_pod_path_count == 2

    def test_oversubscription_via_hosts_per_edge(self) -> None:
        params = FatTreeParams(k=4, hosts_per_edge=8)
        assert _hosts_and_edge_oversubscription(params) == (64, 4.0)

    def test_paper_scale_parameters(self) -> None:
        # k=8 with 16 hosts per edge is the paper's 512-server, 4:1 fabric.
        params = FatTreeParams(k=8, hosts_per_edge=16)
        assert _hosts_and_edge_oversubscription(params) == (512, 4.0)
        assert params.num_core == 16

    def test_invalid_arity_rejected(self) -> None:
        with pytest.raises(ValueError):
            FatTreeParams(k=3)
        with pytest.raises(ValueError):
            FatTreeParams(k=0)
        with pytest.raises(ValueError):
            FatTreeParams(k=4, hosts_per_edge=0)


class TestFatTreeTopology:
    @pytest.fixture(scope="class")
    def fattree(self) -> FatTreeTopology:
        return FatTreeTopology(Simulator(), FatTreeParams(k=4, hosts_per_edge=4))

    def test_device_counts(self, fattree: FatTreeTopology) -> None:
        assert len(fattree.hosts) == 32
        assert len(fattree.switches) == 4 + 4 * 4  # cores + (edge+agg) per pod
        layers = [switch.layer for switch in fattree.switches]
        assert layers.count(LAYER_CORE) == 4
        assert layers.count(LAYER_AGGREGATION) == 8
        assert layers.count(LAYER_EDGE) == 8

    def test_full_routability(self, fattree: FatTreeTopology) -> None:
        assert verify_all_pairs_routable(fattree)

    def test_path_diversity_matches_structure(self, fattree: FatTreeTopology) -> None:
        host_a = fattree.node("host-0-0-0")
        same_edge = fattree.node("host-0-0-1")
        same_pod = fattree.node("host-0-1-0")
        other_pod = fattree.node("host-3-1-0")
        assert fattree.path_count(host_a, same_edge) == 1
        assert fattree.path_count(host_a, same_pod) == 2
        assert fattree.path_count(host_a, other_pod) == 4

    def test_expected_path_count_matches_graph_count(self, fattree: FatTreeTopology) -> None:
        host_a = fattree.node("host-0-0-0")
        for name in ("host-0-0-1", "host-0-1-3", "host-2-0-0"):
            other = fattree.node(name)
            assert fattree.expected_path_count(host_a, other) == fattree.path_count(host_a, other)
        assert fattree.expected_path_count(host_a, host_a) == 1

    def test_duplicate_names_rejected(self) -> None:
        topology = Topology(Simulator())
        topology.add_host("h", 1)
        with pytest.raises(ValueError):
            topology.add_host("h", 2)
        with pytest.raises(ValueError):
            topology.add_host("h2", 1)


def _all_pairs(hosts):
    return list(combinations(hosts, 2))


def _from_one_source(hosts):
    return [(hosts[0], host) for host in hosts[1:]]


_DUALHOMED_HINT_IS_WRONG = pytest.mark.xfail(
    strict=True,
    reason="the dual-homed hint doubles the FatTree count, but the graph gives "
    "2 (not 4) within a k=4 pod and 64 (not 32) across k=8 pods",
)


@pytest.mark.parametrize(
    "topology_class, k, hosts_per_edge, pairs",
    [
        pytest.param(FatTreeTopology, 4, 8, _all_pairs, id="fattree-k4-h8-all-pairs"),
        pytest.param(FatTreeTopology, 8, 2, _from_one_source, id="fattree-k8-h2-one-source"),
        pytest.param(
            DualHomedFatTreeTopology, 4, 8, _all_pairs,
            id="dualhomed-k4-h8-all-pairs", marks=_DUALHOMED_HINT_IS_WRONG,
        ),
        pytest.param(
            DualHomedFatTreeTopology, 8, 2, _from_one_source,
            id="dualhomed-k8-h2-one-source", marks=_DUALHOMED_HINT_IS_WRONG,
        ),
    ],
)
def test_expected_path_count_matches_the_graph(topology_class, k, hosts_per_edge, pairs) -> None:
    """The address-derived hint MMPTCP reads equals the graph's shortest-path count."""
    topology = topology_class(Simulator(), FatTreeParams(k=k, hosts_per_edge=hosts_per_edge))
    counts = {
        (a.name, b.name): (topology.expected_path_count(a, b), topology.path_count(a, b))
        for a, b in pairs(topology.hosts)
    }
    mismatches = {pair: count for pair, count in counts.items() if count[0] != count[1]}
    assert not mismatches, f"(hint, graph) differ for {len(mismatches)} pairs, e.g. " + repr(
        sorted(mismatches.items())[:3]
    )


class TestDualHomedFatTree:
    def test_hosts_have_two_uplinks(self) -> None:
        topology = DualHomedFatTreeTopology(Simulator(), FatTreeParams(k=4, hosts_per_edge=2))
        assert all(len(host.interfaces) == 2 for host in topology.hosts)
        assert verify_all_pairs_routable(topology)

    def test_path_diversity_doubles(self) -> None:
        topology = DualHomedFatTreeTopology(Simulator(), FatTreeParams(k=4, hosts_per_edge=2))
        single = FatTreeTopology(Simulator(), FatTreeParams(k=4, hosts_per_edge=2))
        a_dual, b_dual = topology.node("host-0-0-0"), topology.node("host-2-0-0")
        a_single, b_single = single.node("host-0-0-0"), single.node("host-2-0-0")
        assert topology.expected_path_count(a_dual, b_dual) == 2 * single.expected_path_count(
            a_single, b_single
        )

    def test_requires_k_at_least_4(self) -> None:
        with pytest.raises(ValueError):
            DualHomedFatTreeTopology(Simulator(), FatTreeParams(k=2))


class TestSimpleTopologies:
    def test_dumbbell_structure(self) -> None:
        topology = DumbbellTopology(Simulator(), pairs=3)
        assert len(topology.senders) == 3
        assert len(topology.receivers) == 3
        assert verify_all_pairs_routable(topology)

    def test_incast_structure(self) -> None:
        topology = IncastTopology(Simulator(), fan_in=5)
        assert len(topology.senders) == 5
        assert topology.receiver.name == "receiver"

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            DumbbellTopology(Simulator(), pairs=0)
        with pytest.raises(ValueError):
            IncastTopology(Simulator(), fan_in=0)
