"""The one crossing between networkx and the library's road graph.

The library runs on its own immutable
:class:`~repro.network.graph.RoadGraph`; networkx stays the tests'
reference (its Dijkstra, its connectivity checks, its graph edits).
A test builds or reads a graph in networkx and converts it here, so
both sides see the same nodes, coordinates, weights and orders.
"""

from __future__ import annotations

import networkx as nx

from repro.network.graph import RoadGraph


def from_networkx(graph: nx.DiGraph) -> RoadGraph:
    """The road graph of a ``DiGraph`` whose nodes carry ``x``/``y`` and
    whose edges carry ``travel_time``."""
    return RoadGraph(
        ((node, data["x"], data["y"]) for node, data in graph.nodes(data=True)),
        ((u, v, data["travel_time"]) for u, v, data in graph.edges(data=True)),
    )


def to_networkx(graph: RoadGraph) -> nx.DiGraph:
    """The networkx ``DiGraph`` of a road graph, in the same node and edge order."""
    result = nx.DiGraph()
    for node in graph:
        x, y = graph.coordinates(node)
        result.add_node(node, x=x, y=y)
    nodes = graph.nodes_sorted
    for tail, head, travel_time in graph.indexed_edges():
        result.add_edge(nodes[tail], nodes[head], travel_time=travel_time)
    return result
