"""Tests for the multilevel coarsening layer and the overlay oracle.

The property tests pin the invariants the overlay's certified error
bound rests on:

* every level's supernodes partition the finer level exactly,
* a coarse edge's weight equals the minimum over the base edges
  crossing its two coarsest clusters (so the coarse distance is a true
  lower bound),
* overlay answers stay within the configured relative error bound of
  the exact Dijkstra distance, and unreachability verdicts are exact,
* exact-refinement mode reproduces Dijkstra's distances.

The unit tests cover hierarchy persistence, the coarsening-based CH
contraction order, the registry/spec/config plumbing, the city-scale
generator and the local-trip demand model.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api.spec import OracleSpec, ScenarioSpec
from repro.config import SimulationConfig
from repro.datasets.synthetic import CityModel, DemandHotspot
from repro.datasets.workloads import LARGE_DATASET_NAMES, city_by_name
from repro.exceptions import ConfigurationError, UnreachableError
from repro.network.coarsen import (
    CoarseningParams,
    MultilevelCoarsener,
    OverlayOracle,
    coarsen_cache_path,
    load_hierarchy,
    save_hierarchy,
)
from repro.network.generators import grid_city, large_city
from repro.network.graph import build_network
from repro.network.oracle import create_oracle
from repro.network.oracle.cache import graph_signature

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_digraphs(draw):
    """Small random directed graphs with positive ``travel_time`` weights.

    Roughly half the drawn edges are inserted in both directions so the
    graphs mix strongly-connected cores with genuinely one-way streets
    (the case that breaks naive corridor inflation).
    """
    num_nodes = draw(st.integers(4, 18))
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_nodes))
    num_edges = draw(st.integers(num_nodes, 4 * num_nodes))
    for _ in range(num_edges):
        u = draw(st.integers(0, num_nodes - 1))
        v = draw(st.integers(0, num_nodes - 1))
        if u == v:
            continue
        weight = draw(
            st.floats(1.0, 100.0, allow_nan=False, allow_infinity=False)
        )
        graph.add_edge(u, v, travel_time=weight)
        if draw(st.booleans()):
            graph.add_edge(v, u, travel_time=weight)
    assume(graph.number_of_edges() > 0)
    return graph


def _exact_distance(graph, source, target):
    try:
        return nx.dijkstra_path_length(graph, source, target, weight="travel_time")
    except nx.NetworkXNoPath:
        return None


class TestCoarseningProperties:
    @_SETTINGS
    @given(graph=weighted_digraphs(), levels=st.integers(1, 4))
    def test_each_level_partitions_the_finer_level(self, graph, levels):
        hierarchy = MultilevelCoarsener(graph, levels=levels).build()
        finer_nodes = set(graph.nodes)
        for level in hierarchy.levels:
            seen: set = set()
            for anchor, children in level.children.items():
                assert anchor in children
                overlap = seen.intersection(children)
                assert not overlap, f"nodes in two supernodes: {overlap}"
                seen.update(children)
            assert seen == finer_nodes
            # Parent map agrees with the children tuples.
            for node in finer_nodes:
                assert node in level.children[level.parent[node]]
            finer_nodes = set(level.graph.nodes)

    @_SETTINGS
    @given(graph=weighted_digraphs(), levels=st.integers(1, 4))
    def test_coarse_weight_is_min_crossing_base_weight(self, graph, levels):
        hierarchy = MultilevelCoarsener(graph, levels=levels).build()
        members = {
            anchor: set(hierarchy.members(anchor))
            for anchor in hierarchy.coarse_graph.nodes
        }
        for a, b, data in hierarchy.coarse_graph.edges(data=True):
            crossing = [
                float(attrs["travel_time"])
                for u, v, attrs in graph.edges(data=True)
                if u in members[a] and v in members[b]
            ]
            assert crossing, f"coarse edge {a}->{b} has no base crossing edge"
            assert data["travel_time"] == pytest.approx(min(crossing))
            # The recorded realising edge is itself a crossing base edge
            # of exactly that weight.
            u, v, weight = hierarchy.crossing(a, b)
            assert u in members[a] and v in members[b]
            assert weight == pytest.approx(min(crossing))

    @_SETTINGS
    @given(
        graph=weighted_digraphs(),
        error_bound=st.floats(0.0, 0.5, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_overlay_error_within_certified_bound(self, graph, error_bound, seed):
        oracle = OverlayOracle(graph, levels=3, error_bound=error_bound)
        rng = random.Random(seed)
        nodes = sorted(graph.nodes)
        for _ in range(10):
            source, target = rng.sample(nodes, 2)
            want = _exact_distance(graph, source, target)
            if want is None:
                with pytest.raises(UnreachableError):
                    oracle.travel_time(source, target)
                continue
            got = oracle.travel_time(source, target)
            if want == 0.0:
                assert got == pytest.approx(0.0, abs=1e-9)
            else:
                assert abs(got - want) / want <= error_bound + 1e-9

    @_SETTINGS
    @given(graph=weighted_digraphs(), seed=st.integers(0, 2**16))
    def test_exact_refinement_matches_dijkstra(self, graph, seed):
        oracle = OverlayOracle(graph, levels=3, refine=True)
        rng = random.Random(seed)
        nodes = sorted(graph.nodes)
        for _ in range(10):
            source, target = rng.sample(nodes, 2)
            want = _exact_distance(graph, source, target)
            if want is None:
                with pytest.raises(UnreachableError):
                    oracle.travel_time(source, target)
            else:
                got = oracle.travel_time(source, target)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestOverlayOracle:
    def test_batched_answers_match_single_queries(self):
        graph = grid_city(rows=8, cols=8, seed=4).graph
        oracle = OverlayOracle(graph, levels=2)
        nodes = sorted(graph.nodes)
        sources = nodes[:6]
        target = nodes[-1]
        block = oracle.travel_times_many(sources, [target])
        for source in sources:
            assert block[(source, target)] == pytest.approx(
                oracle.travel_time(source, target)
            )

    def test_unreachable_verdict_is_exact(self):
        graph = nx.DiGraph()
        graph.add_node(0, x=0.0, y=0.0)
        graph.add_node(1, x=1.0, y=0.0)
        graph.add_edge(0, 1, travel_time=60.0)  # one way only
        oracle = OverlayOracle(graph, levels=2)
        assert oracle.travel_time(0, 1) == pytest.approx(60.0)
        with pytest.raises(UnreachableError):
            oracle.travel_time(1, 0)

    def test_stats_report_coarsening_block(self):
        graph = grid_city(rows=6, cols=6, seed=1).graph
        oracle = OverlayOracle(graph, levels=2)
        nodes = sorted(graph.nodes)
        oracle.travel_time(nodes[0], nodes[-1])
        extras = oracle.stats().extras
        assert extras["levels_built"] >= 1
        assert 0 < extras["coarse_nodes"] < len(nodes)
        assert extras["compression_ratio"] > 1.0

    def test_tighter_bound_refines_more(self):
        graph = grid_city(rows=10, cols=10, seed=2).graph
        loose = OverlayOracle(graph, levels=2, error_bound=10.0)
        tight = OverlayOracle(graph, levels=2, error_bound=0.0)
        rng = random.Random(9)
        nodes = sorted(graph.nodes)
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
        for source, target in pairs:
            loose.travel_time(source, target)
            got = tight.travel_time(source, target)
            # error_bound=0 answers are exact.
            assert got == pytest.approx(
                _exact_distance(graph, source, target), rel=1e-9
            )
        assert tight._refined_queries >= loose._refined_queries


class TestPersistence:
    def test_round_trip_preserves_the_hierarchy(self, tmp_path):
        graph = grid_city(rows=7, cols=7, seed=5).graph
        params = CoarseningParams(levels=2)
        hierarchy = MultilevelCoarsener(graph, levels=2).build()
        path = coarsen_cache_path(tmp_path, graph, params)
        save_hierarchy(path, hierarchy, graph)
        loaded = load_hierarchy(path, graph, params)
        assert loaded is not None
        assert loaded.levels_built == hierarchy.levels_built
        for node in graph.nodes:
            assert loaded.representative(node) == hierarchy.representative(node)
        assert set(loaded.coarse_graph.edges) == set(
            hierarchy.coarse_graph.edges
        )
        for a, b in hierarchy.coarse_graph.edges:
            assert loaded.coarse_graph[a][b]["travel_time"] == pytest.approx(
                hierarchy.coarse_graph[a][b]["travel_time"]
            )

    def test_wrong_params_or_graph_miss(self, tmp_path):
        graph = grid_city(rows=6, cols=6, seed=6).graph
        params = CoarseningParams(levels=2)
        hierarchy = MultilevelCoarsener(graph, levels=2).build()
        path = coarsen_cache_path(tmp_path, graph, params)
        save_hierarchy(path, hierarchy, graph)
        assert load_hierarchy(path, graph, CoarseningParams(levels=3)) is None
        other = grid_city(rows=6, cols=6, seed=7).graph
        assert load_hierarchy(path, other, params) is None

    def test_corrupt_cache_is_quarantined_not_fatal(self, tmp_path):
        graph = grid_city(rows=5, cols=5, seed=8).graph
        params = CoarseningParams(levels=2)
        path = coarsen_cache_path(tmp_path, graph, params)
        path.write_text("{not json")
        assert load_hierarchy(path, graph, params) is None
        assert not path.exists()  # moved aside, not left to fail again


class TestRegistryAndSpec:
    def test_overlay_backend_registered(self):
        from repro.network.oracle import available_backends

        assert "overlay" in available_backends()

    def test_create_overlay_oracle(self):
        graph = grid_city(rows=6, cols=6, seed=12).graph
        oracle = create_oracle(
            "overlay", graph, coarsen_levels=2, coarsen_error_bound=0.1
        )
        assert isinstance(oracle, OverlayOracle)
        assert oracle.coarsen_levels == 2
        assert oracle.error_bound == 0.1
        assert oracle.hierarchy_from_cache is False

    def test_overlay_hierarchy_cache_round_trip(self, tmp_path):
        graph = grid_city(rows=6, cols=6, seed=13).graph
        cold = create_oracle(
            "overlay", graph, coarsen_levels=2, cache_dir=str(tmp_path)
        )
        assert cold.hierarchy_from_cache is False
        warm = create_oracle(
            "overlay", graph, coarsen_levels=2, cache_dir=str(tmp_path)
        )
        assert warm.hierarchy_from_cache is True
        nodes = sorted(graph.nodes)
        assert warm.travel_time(nodes[0], nodes[-1]) == pytest.approx(
            cold.travel_time(nodes[0], nodes[-1])
        )

    def test_oracle_spec_accepts_overlay_options(self):
        spec = OracleSpec(
            backend="overlay",
            coarsen_levels=4,
            coarsen_alpha=2.0,
            coarsen_error_bound=0.1,
            coarsen_refine=True,
        )
        config = ScenarioSpec(dataset="CDC", oracle=spec).config()
        assert config.oracle == spec
        assert config.oracle.options() == {
            "coarsen_levels": 4,
            "coarsen_alpha": 2.0,
            "coarsen_error_bound": 0.1,
            "coarsen_refine": True,
        }

    def test_oracle_spec_rejects_coarsen_options_on_lazy(self):
        with pytest.raises(ConfigurationError):
            OracleSpec(backend="lazy", coarsen_levels=3)

    def test_oracle_spec_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            OracleSpec(backend="overlay", coarsen_levels=0)
        with pytest.raises(ConfigurationError):
            OracleSpec(backend="overlay", coarsen_alpha=-1.0)

    def test_config_validates_coarsen_fields(self):
        """The config carries an OracleSpec, so its checks are the config's."""
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                oracle=OracleSpec(backend="overlay", coarsen_levels=0)
            )
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                oracle=OracleSpec(backend="overlay", coarsen_beta=-0.5)
            )
        with pytest.raises(ConfigurationError):
            SimulationConfig(oracle={"backend": "overlay"})

    def test_spec_config_round_trip_with_coarsen_fields(self):
        config = SimulationConfig(
            oracle=OracleSpec(
                backend="overlay", coarsen_levels=4, coarsen_error_bound=0.05
            )
        )
        spec = ScenarioSpec.from_config("CDC", config)
        assert spec.config() == config


class TestLargeCity:
    def test_shape_and_arterials(self):
        network = large_city(rows=16, cols=16, jitter=0.0, arterial_period=4)
        graph = network.graph
        assert graph.number_of_nodes() == 256
        # Eastward edges on an arterial row are cheaper than a normal row.
        arterial = graph[0][1]["travel_time"]
        side_street = graph[16][17]["travel_time"]
        assert arterial == pytest.approx(0.5 * side_street)
        # Strongly connected: build_network inserts both directions.
        assert nx.is_strongly_connected(graph)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            large_city(rows=1, cols=5)
        with pytest.raises(ConfigurationError):
            large_city(rows=4, cols=4, arterial_period=1)
        with pytest.raises(ConfigurationError):
            large_city(rows=4, cols=4, arterial_factor=0.0)

    def test_large_dataset_registered(self):
        assert set(LARGE_DATASET_NAMES) == {"LARGE", "LARGE-SYNTHETIC"}
        with pytest.raises(Exception) as excinfo:
            city_by_name("nowhere")
        assert "LARGE" in str(excinfo.value)


class TestLocalTripDemand:
    def _city(self):
        network = grid_city(rows=10, cols=10, edge_travel_time=60.0, seed=14)
        return CityModel(
            name="local",
            network=network,
            pickup_hotspots=[DemandHotspot(x=5.0, y=5.0, spread=3.0)],
            dropoff_hotspots=[DemandHotspot(x=5.0, y=5.0, spread=3.0)],
            uniform_fraction=0.2,
            min_trip_time=120.0,
            local_trip_spread=3.0,
        )

    def test_orders_carry_exact_shortest_times(self):
        city = self._city()
        config = SimulationConfig(num_orders=15, num_workers=3, seed=21)
        workload = city.generate(config)
        assert workload.orders
        for order in workload.orders:
            want = nx.dijkstra_path_length(
                city.network.graph,
                order.pickup,
                order.dropoff,
                weight="travel_time",
            )
            assert order.shortest_time == pytest.approx(want)
            assert order.shortest_time >= city.min_trip_time

    def test_generation_is_deterministic(self):
        config = SimulationConfig(num_orders=10, num_workers=2, seed=22)
        first = self._city().generate(config)
        second = self._city().generate(config)
        assert [
            (o.pickup, o.dropoff, o.release_time) for o in first.orders
        ] == [(o.pickup, o.dropoff, o.release_time) for o in second.orders]

    def test_spread_must_be_positive(self):
        network = grid_city(rows=4, cols=4, seed=0)
        with pytest.raises(Exception):
            CityModel(
                name="bad",
                network=network,
                pickup_hotspots=[DemandHotspot(x=1.0, y=1.0, spread=1.0)],
                dropoff_hotspots=[DemandHotspot(x=1.0, y=1.0, spread=1.0)],
                local_trip_spread=0.0,
            )


class TestNearestNodeIndex:
    def test_matches_linear_scan(self):
        network = grid_city(rows=9, cols=9, seed=15)
        graph = network.graph
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


class TestGraphSignature:
    def test_signature_is_stable_and_content_sensitive(self):
        network = grid_city(rows=5, cols=5, seed=17)
        graph = network.graph
        assert graph_signature(graph) == graph_signature(graph)
        other = grid_city(rows=5, cols=5, seed=17).graph
        assert graph_signature(graph) == graph_signature(other)
        other[0][1]["travel_time"] += 1.0
        assert graph_signature(graph) != graph_signature(other)
