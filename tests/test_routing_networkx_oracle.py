"""The in-tree connectivity graph and BFS against networkx as an oracle.

Every registry topology and every small test fabric in ``support`` is built
with a :class:`~repro.net.routing.Graph` that replays each call into a
``networkx.Graph``.  The two must then agree on edge order and orientation
(``FluidFabric`` iterates ``sorted(graph.edges())``), neighbour order, BFS
distances in visit order, and the sorted shortest-path lists — as built,
after a ``link_down`` fault, after the link comes back, and after a host
detach.  Skipped when networkx is not installed.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import TOPOLOGIES
from repro.experiments.runner import build_topology
from repro.net.faults import LINK_DOWN, LINK_UP, FaultEvent, FaultInjector
from repro.net.routing import (
    Graph,
    all_shortest_paths,
    count_equal_cost_paths,
    shortest_path_lengths,
)
from repro.scenarios.spec import tiny_config
from repro.sim.engine import Simulator
from support import (
    DumbbellTopology,
    IncastTopology,
    TwoHostTopology,
    TwoPathTopology,
    switch_link_names,
)

nx = pytest.importorskip("networkx")


class MirroredGraph(Graph):
    """A :class:`Graph` that replays every mutation into a networkx oracle."""

    def __init__(self) -> None:
        super().__init__()
        self.oracle = nx.Graph()

    def add_node(self, node: str) -> None:
        super().add_node(node)
        self.oracle.add_node(node)

    def add_edge(self, node_a: str, node_b: str) -> None:
        super().add_edge(node_a, node_b)
        self.oracle.add_edge(node_a, node_b)

    def remove_edge(self, node_a: str, node_b: str) -> None:
        super().remove_edge(node_a, node_b)
        self.oracle.remove_edge(node_a, node_b)


BUILDERS = {
    **{
        name: (lambda simulator, name=name: build_topology(tiny_config(topology=name), simulator))
        for name in TOPOLOGIES
    },
    "two_host": TwoHostTopology,
    "dumbbell": lambda simulator: DumbbellTopology(simulator, pairs=3),
    "incast": lambda simulator: IncastTopology(simulator, fan_in=4),
    "two_path": lambda simulator: TwoPathTopology(simulator, paths=3),
}


def _oracle_paths(oracle, source: str, destination: str) -> list:
    try:
        return sorted(nx.all_shortest_paths(oracle, source, destination))
    except nx.NetworkXNoPath:
        return []


def _assert_agrees(topology) -> None:
    graph = topology.graph
    oracle = graph.oracle
    assert list(graph.edges()) == list(oracle.edges())
    assert graph.number_of_edges() == oracle.number_of_edges()
    nodes = list(oracle.nodes())
    for node in nodes:
        assert list(graph.neighbors(node)) == list(oracle.neighbors(node))
        for other in nodes:
            assert graph.has_edge(node, other) == oracle.has_edge(node, other)
        expected = nx.single_source_shortest_path_length(oracle, node)
        assert list(shortest_path_lengths(graph, node).items()) == list(expected.items())
    hosts = [host.name for host in topology.hosts]
    for source in {hosts[0], hosts[len(hosts) // 2], hosts[-1]}:
        for destination in nodes:
            expected = _oracle_paths(oracle, source, destination)
            assert sorted(all_shortest_paths(graph, source, destination)) == expected
            if source != destination:
                assert count_equal_cost_paths(graph, source, destination) == len(expected)


def _inject(simulator, topology, kind: str, link: tuple) -> None:
    event = FaultEvent(time_s=simulator.now, kind=kind, node_a=link[0], node_b=link[1])
    FaultInjector(simulator, topology, (event,)).arm()
    simulator.run(until=simulator.now)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_graph_matches_networkx_through_faults_and_detach(name, monkeypatch) -> None:
    monkeypatch.setattr("repro.topology.base.Graph", MirroredGraph)
    simulator = Simulator()
    topology = BUILDERS[name](simulator)
    assert isinstance(topology.graph, MirroredGraph)
    _assert_agrees(topology)

    switch_links = switch_link_names(topology)
    if switch_links:
        link = switch_links[len(switch_links) // 2]
        _inject(simulator, topology, LINK_DOWN, link)
        assert not topology.graph.has_edge(*link)
        _assert_agrees(topology)
        # Coming back re-appends the edge to both endpoints' neighbour order.
        _inject(simulator, topology, LINK_UP, link)
        assert topology.graph.has_edge(*link)
        _assert_agrees(topology)

    topology.detach_host(topology.hosts[0].name)
    _assert_agrees(topology)
