"""Shortest-path multi-path route computation.

Data-centre fabrics such as FatTree are regular enough that every
shortest path is an acceptable path, and ECMP load-balances across all of
them.  We therefore compute, for every switch and every destination host,
the set of neighbours that lie on *some* shortest path to that host, and
install that set as the ECMP next-hop group.

The computation is a breadth-first search rooted at each destination host —
O(hosts × (V + E)) overall, which is negligible next to packet simulation.

The connectivity :class:`Graph` iterates nodes, neighbours and edges in
insertion order — the order ``networkx.Graph`` uses, which
``tests/test_routing_networkx_oracle.py`` holds it to — because the fluid
tier's link table is built in ``sorted(graph.edges())`` order, so even edge
orientation reaches stored artifacts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.net.host import Host
from repro.net.switch import Switch


class Graph:
    """Undirected simple graph over node names, insertion-ordered."""

    def __init__(self) -> None:
        self._adjacency: Dict[str, Dict[str, None]] = {}

    def add_node(self, node: str) -> None:
        """Add ``node``; adding a present node is a no-op."""
        self._adjacency.setdefault(node, {})

    def add_edge(self, node_a: str, node_b: str) -> None:
        """Add the ``node_a``–``node_b`` edge (and any missing endpoint).

        Re-adding a present edge changes nothing, its position included.
        """
        self.add_node(node_a)
        self.add_node(node_b)
        self._adjacency[node_a][node_b] = None
        self._adjacency[node_b][node_a] = None

    def remove_edge(self, node_a: str, node_b: str) -> None:
        """Remove the ``node_a``–``node_b`` edge; ``ValueError`` when absent."""
        if not self.has_edge(node_a, node_b):
            raise ValueError(f"no edge {node_a!r}-{node_b!r} in the graph")
        del self._adjacency[node_a][node_b]
        self._adjacency[node_b].pop(node_a, None)

    def has_edge(self, node_a: str, node_b: str) -> bool:
        """True when ``node_a`` and ``node_b`` are adjacent."""
        return node_b in self._adjacency.get(node_a, {})

    def neighbors(self, node: str) -> Iterator[str]:
        """``node``'s neighbours in the order their edges were added."""
        return iter(self._adjacency[node])

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Every edge once, oriented from the endpoint added to the graph first."""
        seen = set()
        for node, neighbors in self._adjacency.items():
            for neighbor in neighbors:
                if neighbor not in seen:
                    yield node, neighbor
            seen.add(node)

    def number_of_edges(self) -> int:
        """How many edges the graph has."""
        return len(list(self.edges()))


def shortest_path_lengths(graph: Graph, source: str) -> Dict[str, int]:
    """Hop count from ``source`` to every node it reaches, in BFS visit order."""
    distances = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        reached = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = level
                    reached.append(neighbor)
        frontier = reached
    return distances


def all_shortest_paths(graph: Graph, source: str, destination: str) -> List[List[str]]:
    """Every shortest ``source`` → ``destination`` path as a node list (``[]`` if none)."""
    remaining = shortest_path_lengths(graph, destination)
    if source not in remaining:
        return []
    paths: List[List[str]] = []
    stack = [[source]]
    while stack:
        path = stack.pop()
        tail = path[-1]
        if tail == destination:
            paths.append(path)
            continue
        hops_left = remaining[tail] - 1
        for neighbor in graph.neighbors(tail):
            if remaining.get(neighbor) == hops_left:
                stack.append(path + [neighbor])
    return paths


def build_ecmp_routes(
    graph: Graph,
    hosts: Sequence[Host],
    switches: Sequence[Switch],
    allow_partial: bool = False,
) -> None:
    """Populate the forwarding table of every switch in ``switches``.

    Args:
        graph: undirected connectivity graph whose vertices are node names.
        hosts: destination hosts (routes are computed towards each of them).
        switches: switches to programme.
        allow_partial: when True, a switch that cannot reach a destination
            simply has that route removed (packets there count as unroutable)
            instead of the build failing.  This is the mode fault injection
            uses to rebuild tables around failed links, where partitions are
            legitimate outcomes rather than construction bugs.

    Raises:
        ValueError: if ``allow_partial`` is False and a destination host is
            unreachable from some switch — that always indicates a mis-built
            topology.
    """
    for destination in hosts:
        distances = shortest_path_lengths(graph, destination.name)
        for switch in switches:
            if switch.name not in distances:
                if allow_partial:
                    switch.remove_route(destination.address)
                    continue
                raise ValueError(
                    f"switch {switch.name} cannot reach host {destination.name}; "
                    "the topology graph is disconnected"
                )
            own_distance = distances[switch.name]
            next_hop_indices = [
                switch.neighbor_to_interface[neighbor]
                for neighbor in graph.neighbors(switch.name)
                if distances.get(neighbor, own_distance) == own_distance - 1
                and neighbor in switch.neighbor_to_interface
            ]
            if not next_hop_indices:
                if allow_partial:
                    switch.remove_route(destination.address)
                    continue
                raise ValueError(
                    f"no next hop from {switch.name} towards {destination.name}"
                )
            switch.install_route(destination.address, sorted(next_hop_indices))


def count_equal_cost_paths(graph: Graph, source: str, destination: str) -> int:
    """Number of distinct shortest paths between two nodes.

    MMPTCP's topology-informed reordering policy uses this to size the
    duplicate-ACK threshold during the packet-scatter phase: the more
    parallel paths packets may take, the more benign reordering is expected.
    """
    if source == destination:
        return 1
    forward = shortest_path_lengths(graph, source)
    if destination not in forward:
        return 0
    backward = shortest_path_lengths(graph, destination)
    total_distance = forward[destination]

    # Count shortest paths by dynamic programming over the shortest-path DAG.
    path_counts: Dict[str, int] = {source: 1}
    # Process vertices in order of increasing distance from the source.
    on_some_shortest_path = [
        node
        for node in forward
        if node in backward and forward[node] + backward[node] == total_distance
    ]
    on_some_shortest_path.sort(key=lambda node: forward[node])
    for node in on_some_shortest_path:
        if node == source:
            continue
        count = 0
        for neighbor in graph.neighbors(node):
            if neighbor in path_counts and forward.get(neighbor, -1) == forward[node] - 1:
                count += path_counts[neighbor]
        path_counts[node] = count
    return path_counts.get(destination, 0)

