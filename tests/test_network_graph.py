"""Unit tests for the road-network graph and shortest-path queries."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.exceptions import NetworkError, UnknownNodeError, UnreachableError
from repro.network.graph import RoadNetwork, build_network
from repro.network.generators import example_network, example_node, grid_city, radial_city
from repro.network.oracle import create_oracle
from tests.reference.nx_graph import from_networkx, to_networkx


class TestConstruction:
    def test_rejects_empty_graph(self):
        with pytest.raises(NetworkError):
            build_network([], [])

    def test_rejects_missing_travel_time(self):
        with pytest.raises(NetworkError):
            build_network([(0, 0.0, 0.0), (1, 1.0, 0.0)], [(0, 1, None)])

    def test_rejects_negative_travel_time(self):
        with pytest.raises(NetworkError):
            build_network([(0, 0.0, 0.0), (1, 1.0, 0.0)], [(0, 1, -5.0)])

    def test_rejects_missing_coordinates(self):
        # An edge naming a node the node list does not place.
        with pytest.raises(NetworkError):
            build_network([(1, 1.0, 0.0)], [(0, 1, 10.0)])

    def test_rejects_a_graph_that_is_not_a_road_graph(self):
        with pytest.raises(NetworkError, match="build_network"):
            RoadNetwork(nx.DiGraph())

    def test_orders_and_repeats_follow_networkx(self):
        """Nodes, edges, repeated nodes and repeated edges iterate and
        weigh as a ``DiGraph`` fed the same ``add_node`` / ``add_edge``
        calls: a repeat keeps its first position and its last value."""
        nodes = [(5, 0.0, 0.0), (2, 1.0, 0.0), (9, 2.0, 0.0), (2, 1.5, 0.5)]
        edges = [(9, 2, 4.0), (5, 9, 1.0), (2, 5, 3.0), (5, 2, 2.0), (9, 2, 6.0), (9, 9, 0.0)]
        reference = nx.DiGraph()
        for node, x, y in nodes:
            reference.add_node(node, x=x, y=y)
        for u, v, travel_time in edges:
            reference.add_edge(u, v, travel_time=travel_time)
            reference.add_edge(v, u, travel_time=travel_time)
        network = build_network(nodes, edges)
        graph = network.graph
        assert list(graph) == list(reference.nodes)
        assert [graph.coordinates(node) for node in graph] == [
            (data["x"], data["y"]) for _, data in reference.nodes(data=True)
        ]
        ids = graph.nodes_sorted
        assert [(ids[u], ids[v], w) for u, v, w in graph.indexed_edges()] == [
            (u, v, data["travel_time"]) for u, v, data in reference.edges(data=True)
        ]
        assert network.number_of_edges() == reference.number_of_edges()
        round_trip = from_networkx(to_networkx(graph))
        assert list(round_trip.indexed_edges()) == list(graph.indexed_edges())

    def test_build_network_bidirectional(self):
        network = build_network(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], edges=[(0, 1, 30.0)]
        )
        assert network.travel_time(0, 1) == 30.0
        assert network.travel_time(1, 0) == 30.0

    def test_build_network_directed_only(self):
        network = build_network(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)],
            edges=[(0, 1, 30.0)],
            bidirectional=False,
        )
        assert network.travel_time(0, 1) == 30.0
        with pytest.raises(UnreachableError):
            network.travel_time(1, 0)


class TestQueries:
    def test_self_distance_is_zero(self, small_network):
        assert small_network.travel_time(0, 0) == 0.0

    def test_unknown_node_raises(self, small_network):
        with pytest.raises(UnknownNodeError):
            small_network.travel_time(0, 9999)

    def test_grid_distance_matches_manhattan(self, small_network):
        # deterministic 60-second edges: node 0 -> node 7 is 2 hops.
        assert small_network.travel_time(0, 7) == pytest.approx(120.0)

    def test_triangle_inequality_on_samples(self, small_network):
        nodes = small_network.nodes_sorted()
        a, b, c = nodes[0], nodes[14], nodes[27]
        direct = small_network.travel_time(a, c)
        via = small_network.travel_time(a, b) + small_network.travel_time(b, c)
        assert direct <= via + 1e-9

    def test_shortest_path_endpoints(self, small_network):
        path = small_network.shortest_path(0, 35)
        assert path[0] == 0
        assert path[-1] == 35

    def test_shortest_path_cost_consistency(self, small_network):
        path = small_network.shortest_path(0, 35)
        total = sum(
            small_network.travel_time(u, v) for u, v in zip(path, path[1:])
        )
        assert total == pytest.approx(small_network.travel_time(0, 35))

    def test_is_reachable(self, small_network):
        assert small_network.is_reachable(0, 35)

    def test_nearest_node(self, small_network):
        assert small_network.nearest_node(0.1, 0.1) == 0

    def test_bounding_box(self, small_network):
        min_x, min_y, max_x, max_y = small_network.bounding_box()
        assert (min_x, min_y) == (0.0, 0.0)
        assert (max_x, max_y) == (5.0, 5.0)


class TestGenerators:
    def test_grid_city_size(self):
        network = grid_city(rows=4, cols=5, seed=1)
        assert len(network) == 20

    def test_grid_city_connected(self):
        network = grid_city(rows=4, cols=4, seed=2)
        nodes = network.nodes_sorted()
        assert all(network.is_reachable(nodes[0], node) for node in nodes)

    def test_radial_city_structure(self):
        network = radial_city(rings=3, spokes=6)
        assert len(network) == 1 + 3 * 6
        assert network.is_reachable(0, 1 + 2 * 6 + 3)

    def test_example_network_matches_figure1(self):
        network = example_network()
        assert len(network) == 6
        # 7 undirected edges -> 14 directed edges
        assert network.number_of_edges() == 14
        a, c, d = example_node("a"), example_node("c"), example_node("d")
        assert network.travel_time(a, c) == pytest.approx(60.0)
        assert network.travel_time(a, d) == pytest.approx(120.0)

    def test_example_node_rejects_unknown_label(self):
        with pytest.raises(Exception):
            example_node("z")


def _attach(network: RoadNetwork, backend: str) -> RoadNetwork:
    network.set_oracle(create_oracle(backend, network.graph))
    return network


class TestOracleRoutedPaths:
    """``shortest_path`` is a Dijkstra on the graph whatever the backend."""

    def test_ch_backend_answers_paths(self):
        network = _attach(grid_city(rows=6, cols=6, seed=5, jitter=0.3), "ch")
        searches_before = network.oracle_stats().pp_searches
        for source, target in [(0, 35), (3, 30), (7, 28)]:
            path = network.shortest_path(source, target)
            assert path[0] == source and path[-1] == target
            # The path is made of graph edges and costs what the
            # hierarchy answers, up to its last-ulp reassociation.
            reference = to_networkx(network.graph)
            cost = sum(
                reference[u][v]["travel_time"]
                for u, v in zip(path, path[1:])
            )
            assert cost == pytest.approx(network.travel_time(source, target), rel=1e-9)
        # The oracle priced the three pairs; it searched no paths.
        assert network.oracle_stats().pp_searches == searches_before + 3

    def test_distance_only_backends_fall_back(self):
        network = _attach(grid_city(rows=5, cols=5, seed=1), "lazy")
        path = network.shortest_path(0, 24)
        assert path[0] == 0 and path[-1] == 24

    def test_oracle_path_unreachable_raises(self):
        network = build_network(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)],
            edges=[(0, 1, 30.0)],
            bidirectional=False,
        )
        _attach(network, "ch")
        assert network.shortest_path(0, 1) == [0, 1]
        with pytest.raises(UnreachableError):
            network.shortest_path(1, 0)


class TestNearestNodeIndex:
    def test_matches_linear_scan(self):
        network = grid_city(rows=9, cols=9, seed=15)
        graph = to_networkx(network.graph)
        entries = [
            (node, data["x"], data["y"]) for node, data in graph.nodes(data=True)
        ]
        rng = random.Random(16)
        probes = [(rng.uniform(-2.0, 10.0), rng.uniform(-2.0, 10.0)) for _ in range(200)]
        # Exact-tie probes: the midpoint of two nodes must resolve to the
        # same winner the linear scan picks (first in iteration order).
        probes.append((0.5, 0.0))
        probes.append((4.5, 4.5))
        for x, y in probes:
            best = min(
                entries,
                key=lambda entry: (
                    (entry[1] - x) ** 2 + (entry[2] - y) ** 2,
                    entries.index(entry),
                ),
            )[0]
            assert network.nearest_node(x, y) == best


class TestGraphDijkstra:
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_paths_and_lengths_are_networkx(self, jitter):
        """Same path (ties included: a 0-jitter grid is all ties) and the
        same float as ``nx.dijkstra_path`` / ``dijkstra_path_length``."""
        network = grid_city(rows=7, cols=6, seed=4, jitter=jitter)
        graph = network.graph
        reference = to_networkx(graph)
        rng = random.Random(5)
        nodes = network.nodes_sorted()
        for _ in range(120):
            source, target = rng.choice(nodes), rng.choice(nodes)
            seconds, path = graph.shortest_path(source, target)
            assert path == nx.dijkstra_path(reference, source, target, weight="travel_time")
            want = nx.dijkstra_path_length(reference, source, target, weight="travel_time")
            assert seconds == want and type(seconds) is float

    def test_unreachable_pair_is_none(self):
        graph = build_network(
            [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)], [(0, 1, 3.0)], bidirectional=False
        ).graph
        assert graph.shortest_path(1, 0) is None
        assert graph.shortest_path(0, 2) is None
        assert graph.shortest_path(2, 2) == (0.0, [2])
