"""Tests for the distance-oracle subsystem.

Covers:

* property-style agreement of every backend with plain Dijkstra on
  random grid and Manhattan-like networks (reachable and unreachable
  pairs),
* the ``leg_matrix`` block and the network's dict views over it,
* LRU bounding of the lazy backend,
* the backend registry, and
* backend selection through ``ScenarioSpec`` and the CLI.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import replace

import networkx as nx
import pytest

from repro.api import ScenarioSpec, Session
from repro.cli import build_parser, main
from repro.config import SimulationConfig
from repro.exceptions import ConfigurationError, NetworkError, UnreachableError
from repro.network.generators import grid_city, manhattan_like_city
from repro.network.graph import RoadGraph, RoadNetwork, build_network
from repro.network.oracle import (
    CHOracle,
    DistanceOracle,
    LazyDijkstraOracle,
    ORACLE_BACKENDS,
    OracleSpec,
    configure_oracle,
    create_oracle,
)
from repro.network.oracle.cache import graph_signature
from repro.resilience.degradation import DegradationLog
from tests.reference.dict_kernel import DictCHOracle, DictLazyOracle
from tests.reference.nx_graph import from_networkx, to_networkx

BACKEND_CLASSES = {
    "lazy": LazyDijkstraOracle,
    "ch": CHOracle,
}

#: Backends that assemble distances from precomputed parts (half-paths,
#: shortcut weights) whose float additions can associate differently
#: than a monolithic Dijkstra's — exact, but not bitwise identical.
REASSOCIATING_BACKENDS = {"ch"}


def _make(backend: str, graph: RoadGraph) -> DistanceOracle:
    return create_oracle(backend, graph)


def _view(oracle: DistanceOracle) -> RoadNetwork:
    """The network over ``oracle``: where the dict views of a block live."""
    return RoadNetwork(oracle.graph, oracle=oracle)


def _reference_distances(graph: RoadGraph, source: int) -> dict[int, float]:
    return nx.single_source_dijkstra_path_length(
        to_networkx(graph), source, weight="travel_time"
    )


@pytest.fixture(scope="module")
def networks():
    return {
        "grid": grid_city(8, 8, seed=11, jitter=0.35),
        "manhattan": manhattan_like_city(10, 6, seed=4),
    }


@pytest.fixture(scope="module")
def directed_network():
    """Two components, one of them a one-way chain: 0 -> 1 -> 2, {3, 4}."""
    return build_network(
        nodes=[(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 5, 5), (4, 6, 5)],
        edges=[(0, 1, 10.0), (1, 2, 5.0), (3, 4, 7.0)],
        bidirectional=False,
    )


class TestBackendAgreement:
    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    @pytest.mark.parametrize("city", ["grid", "manhattan"])
    def test_matches_dijkstra_on_sampled_pairs(self, networks, backend, city):
        graph = networks[city].graph
        oracle = _make(backend, graph)
        nodes = sorted(graph)
        import random

        rng = random.Random(42)
        for _ in range(150):
            source, target = rng.choice(nodes), rng.choice(nodes)
            want = _reference_distances(graph, source).get(target)
            if want is None:
                with pytest.raises(UnreachableError):
                    oracle.travel_time(source, target)
            else:
                got = oracle.travel_time(source, target)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_exact_backends_are_bitwise_identical(self, networks, backend):
        if backend in REASSOCIATING_BACKENDS:
            pytest.skip(f"{backend} assembles distances from precomputed parts")
        graph = networks["grid"].graph
        oracle = _make(backend, graph)
        nodes = sorted(graph)
        source = nodes[0]
        reference = _reference_distances(graph, source)
        for target in nodes[:: max(1, len(nodes) // 20)]:
            if target == source:
                continue
            assert oracle.travel_time(source, target) == reference[target]

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_unreachable_pairs_raise(self, directed_network, backend):
        oracle = _make(backend, directed_network.graph)
        assert oracle.travel_time(0, 2) == 15.0
        for source, target in [(2, 0), (0, 4), (4, 3), (3, 0)]:
            with pytest.raises(UnreachableError):
                oracle.travel_time(source, target)
            assert not oracle.is_reachable(source, target)

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_self_distance_is_zero(self, networks, backend):
        graph = networks["grid"].graph
        oracle = _make(backend, graph)
        node = sorted(graph)[5]
        assert oracle.travel_time(node, node) == 0.0


class TestTravelTimesMany:
    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_cross_product_matches_scalar_queries(self, networks, backend):
        graph = networks["manhattan"].graph
        oracle = _make(backend, graph)
        nodes = sorted(graph)
        sources, targets = nodes[:5], nodes[-5:] + nodes[:2]
        block = _view(oracle).travel_times_many(sources, targets)
        for source in sources:
            reference = _reference_distances(graph, source)
            for target in set(targets):
                want = 0.0 if source == target else reference.get(target)
                if want is None:
                    assert (source, target) not in block
                else:
                    assert block[(source, target)] == pytest.approx(
                        want, rel=1e-9, abs=1e-6
                    )

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_unreachable_pairs_are_absent(self, directed_network, backend):
        oracle = _make(backend, directed_network.graph)
        block = _view(oracle).travel_times_many([0, 2, 3], [2, 4])
        assert block[(0, 2)] == 15.0
        assert block[(3, 4)] == 7.0
        assert (2, 4) not in block and (0, 4) not in block

    def test_network_level_api_validates_nodes(self, networks):
        network = networks["grid"]
        with pytest.raises(Exception):
            network.travel_times_many([0], [999_999])


def _random_digraph(
    num_nodes: int, seed: int, strongly_connected: bool
) -> RoadGraph:
    """Random directed graph with asymmetric travel times.

    ``strongly_connected`` adds a directed Hamiltonian cycle so every
    node reaches every other; otherwise only a random oriented tree
    keeps the graph weakly connected, leaving plenty of unreachable
    (ordered) pairs.  Extra one-way edges with independent weights make
    ``d(a, b) != d(b, a)`` the common case either way.
    """
    rng = random.Random(seed)
    graph = nx.DiGraph()
    for node in range(num_nodes):
        graph.add_node(node, x=rng.uniform(0.0, 10.0), y=rng.uniform(0.0, 10.0))
    if strongly_connected:
        cycle = list(range(num_nodes))
        rng.shuffle(cycle)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            graph.add_edge(u, v, travel_time=rng.uniform(1.0, 10.0))
    else:
        for node in range(1, num_nodes):
            parent = rng.randrange(node)
            u, v = (parent, node) if rng.random() < 0.5 else (node, parent)
            graph.add_edge(u, v, travel_time=rng.uniform(1.0, 10.0))
    for _ in range(3 * num_nodes):
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, travel_time=rng.uniform(1.0, 10.0))
    return from_networkx(graph)


class TestReverseForwardAgreement:
    """``travel_times_to`` must agree with per-pair *forward* queries.

    The subtle correctness risk of reverse-SSSP batching: on a directed
    graph a search from the target must run over the *reversed* edges,
    otherwise it silently computes ``d(target, source)`` instead of
    ``d(source, target)``.  These properties pin that down for every
    backend on strongly and weakly connected digraphs with asymmetric
    edges, including unreachable pairs.
    """

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    @pytest.mark.parametrize(
        "seed,strongly", [(13, True), (14, True), (21, False), (22, False)]
    )
    def test_travel_times_to_matches_forward_pairs(self, backend, seed, strongly):
        graph = _random_digraph(40, seed=seed, strongly_connected=strongly)
        oracle = _make(backend, graph)
        rng = random.Random(seed + 1)
        for target in rng.sample(sorted(graph), 5):
            arrivals = _view(oracle).travel_times_to(target)
            for source in graph:
                want = _reference_distances(graph, source).get(target)
                got = arrivals.get(source)
                if want is None:
                    assert got is None, (source, target)
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_many_to_one_batch_matches_forward_pairs(self, backend):
        graph = _random_digraph(40, seed=31, strongly_connected=False)
        oracle = _make(backend, graph)
        nodes = sorted(graph)
        target = nodes[7]
        block = _view(oracle).travel_times_many(nodes, [target])
        for source in nodes:
            want = (
                0.0
                if source == target
                else _reference_distances(graph, source).get(target)
            )
            if want is None:
                assert (source, target) not in block
            else:
                assert block[(source, target)] == pytest.approx(
                    want, rel=1e-9, abs=1e-6
                )

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_reverse_is_not_forward_on_asymmetric_graphs(self, backend):
        """Regression guard: reverse != transpose-free search."""
        graph = _random_digraph(30, seed=47, strongly_connected=True)
        oracle = _make(backend, graph)
        nodes = sorted(graph)
        asymmetric = 0
        for target in nodes[:6]:
            arrivals = _view(oracle).travel_times_to(target)
            for source in nodes:
                if source == target:
                    continue
                departure = oracle.travel_time(target, source)
                if arrivals[source] != pytest.approx(departure):
                    asymmetric += 1
        # A random strongly connected digraph with one-way weights must
        # produce plenty of d(s, t) != d(t, s) pairs; a backend whose
        # reverse search forgot to flip the edges would make these equal.
        assert asymmetric > 0

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_one_way_chain_reverse_queries(self, directed_network, backend):
        oracle = _make(backend, directed_network.graph)
        arrivals = _view(oracle).travel_times_to(2)
        assert arrivals[0] == 15.0
        assert arrivals[1] == 5.0
        assert 3 not in arrivals and 4 not in arrivals
        # Nothing reaches node 0 except itself on the one-way chain.
        assert set(_view(oracle).travel_times_to(0)) == {0}


class TestBatchStatsContract:
    """``leg_matrix`` counters: cells asked for, maps built.

    ``batched_queries`` and ``queries`` both count every cell of the
    block, unreachable ones included, and cache misses are charged once
    per distance map built — not once per cell.
    """

    def test_lazy_many_to_one_counts_one_miss_per_map(self, directed_network):
        oracle = LazyDijkstraOracle(directed_network.graph)
        matrix = oracle.leg_matrix([0, 1, 3], [2])
        stats = oracle.stats()
        assert stats.batched_queries == 3
        # (3, 2) is unreachable: a cell all the same.
        assert matrix == [[15.0], [5.0], [float("inf")]]
        assert stats.queries == 3
        # One reverse map for target 2 serves the whole batch.
        assert stats.cache_misses == 1
        assert stats.reverse_sssp_runs == 1
        assert stats.sssp_runs == 0

    def test_lazy_forward_batch_counts_one_miss_per_source(self, networks):
        graph = networks["grid"].graph
        oracle = LazyDijkstraOracle(graph)
        nodes = sorted(graph)
        sources, targets = nodes[:2], nodes[3:7]
        matrix = oracle.leg_matrix(sources, targets)
        stats = oracle.stats()
        assert stats.batched_queries == 8
        assert stats.queries == sum(map(len, matrix)) == 8
        assert stats.cache_misses == 2  # one forward map per source
        assert stats.sssp_runs == 2
        # Re-running the same batch is pure cache hits (one per row
        # read), no new misses.
        assert oracle.leg_matrix(sources, targets) == matrix
        stats = oracle.stats()
        assert stats.cache_misses == 2
        assert stats.cache_hits == 2

class TestLazyLru:
    def test_cache_is_bounded_and_counts_evictions(self, networks):
        graph = networks["grid"].graph
        oracle = LazyDijkstraOracle(graph, max_sources=3)
        nodes = sorted(graph)
        target = nodes[-1]
        for source in nodes[:6]:
            oracle.travel_time(source, target)
        stats = oracle.stats()
        assert stats.extras["forward_cached_sources"] == 3
        assert oracle.max_sources == 3
        assert stats.cache_misses == 6
        assert stats.evictions == 3

    def test_repeat_queries_hit_the_cache(self, networks):
        graph = networks["grid"].graph
        oracle = LazyDijkstraOracle(graph, max_sources=8)
        nodes = sorted(graph)
        oracle.travel_time(nodes[0], nodes[1])
        oracle.travel_time(nodes[0], nodes[2])
        stats = oracle.stats()
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_network_cache_info_and_clear(self, networks):
        network = grid_city(4, 4, seed=0)
        network.travel_time(0, 5)
        network.travel_time(0, 6)
        stats = network.oracle_stats()
        assert stats.extras["forward_cached_sources"] == 1
        assert stats.cache_misses == 1
        network.clear_cache()
        assert network.oracle_stats().extras["forward_cached_sources"] == 0
        network.travel_time(0, 5)
        assert network.oracle_stats().cache_misses == 2

    def test_rejects_nonpositive_bound(self, networks):
        with pytest.raises(ValueError):
            LazyDijkstraOracle(networks["grid"].graph, max_sources=0)


class TestContractionHierarchy:
    """CH-specific behaviour: degenerate graphs, counters."""

    def test_shortest_path_unreachable_raises(self, directed_network):
        graph = directed_network.graph
        network = RoadNetwork(graph, oracle=CHOracle(graph))
        assert network.shortest_path(0, 2) == [0, 1, 2]
        with pytest.raises(UnreachableError):
            network.shortest_path(2, 0)

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_single_node_graph(self, backend):
        graph = RoadGraph([(0, 0.0, 0.0)], [])
        oracle = _make(backend, graph)
        assert oracle.travel_time(0, 0) == 0.0
        assert oracle.leg_matrix([0], [0]) == [[0.0]]
        assert _view(oracle).travel_times_to(0) == {0: 0.0}
        assert _view(oracle).travel_times_many([0], [0]) == {(0, 0): 0.0}

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_edgeless_graph(self, backend):
        graph = RoadGraph([(node, float(node), 0.0) for node in range(4)], [])
        oracle = _make(backend, graph)
        with pytest.raises(UnreachableError):
            oracle.travel_time(0, 3)
        assert _view(oracle).travel_times_to(2) == {2: 0.0}
        block = _view(oracle).travel_times_many([0, 1, 2], [2, 3])
        assert block == {(2, 2): 0.0}

    def test_both_batch_paths_agree_with_dijkstra(self):
        """Bucket scans (narrow) and reverse PHAST (wide) are both exact."""
        graph = _random_digraph(40, seed=77, strongly_connected=False)
        nodes = sorted(graph)
        target = nodes[11]
        narrow = _view(CHOracle(graph)).travel_times_many(nodes[:4], [target])
        wide = _view(CHOracle(graph)).travel_times_many(nodes, [target])
        for source in nodes:
            want = (
                0.0
                if source == target
                else _reference_distances(graph, source).get(target)
            )
            for block, members in ((narrow, nodes[:4]), (wide, nodes)):
                if source not in members:
                    continue
                got = block.get((source, target))
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-6)

    def test_tight_witness_hop_limit_stays_exact(self, networks):
        """A hop limit of 1 adds many more shortcuts but never wrong ones."""
        graph = networks["grid"].graph
        loose = CHOracle(graph)
        tight = CHOracle(graph, witness_hop_limit=1)
        assert (
            tight.stats().extras["shortcuts_added"]
            >= loose.stats().extras["shortcuts_added"]
        )
        nodes = sorted(graph)
        rng = random.Random(3)
        for _ in range(60):
            source, target = rng.choice(nodes), rng.choice(nodes)
            want = _reference_distances(graph, source).get(target)
            if want is None:
                with pytest.raises(UnreachableError):
                    tight.travel_time(source, target)
            else:
                assert tight.travel_time(source, target) == pytest.approx(
                    want, rel=1e-9, abs=1e-6
                )
        with pytest.raises(ValueError):
            CHOracle(graph, witness_hop_limit=0)

    def test_counters_flow_through_stats(self, networks):
        graph = networks["grid"].graph
        oracle = CHOracle(graph)
        stats = oracle.stats()
        assert stats.backend == "ch"
        assert stats.precompute_seconds > 0.0
        assert stats.extras["shortcuts_added"] > 0
        nodes = sorted(graph)
        oracle.travel_time(nodes[0], nodes[-1])
        oracle.leg_matrix(nodes[:3], [nodes[-1], nodes[-2]])
        stats = oracle.stats()
        assert stats.pp_searches == 1
        assert stats.extras["upward_settles"] > 0
        assert stats.extras["bucket_scans"] > 0
        assert stats.queries == 1 + 6
        assert stats.batched_queries == 6
        # Repeating the batch is pure cache hits: the pair cache
        # memoised both directions of work.
        before = oracle.stats()
        oracle.leg_matrix(nodes[:3], [nodes[-1], nodes[-2]])
        after = oracle.stats()
        assert after.cache_hits == before.cache_hits + 6
        assert after.cache_misses == before.cache_misses
        # clear() drops the pairs: the same batch searches again.
        oracle.clear()
        oracle.leg_matrix(nodes[:3], [nodes[-1], nodes[-2]])
        assert oracle.stats().cache_misses > after.cache_misses


#: sha256 of the contraction order of ``grid_city(32, 32, seed=11)``
#: (the ``grid32_gdp_ch`` benchmark grid), as JSON.
_GRID32_ORDER_SHA256 = "3409a0f59f6b48f84e315c3f1e8fbef098babc893d8762905c0d547e8021f7be"


def _ch_from_spec(graph: RoadGraph, **options) -> CHOracle:
    """The CH oracle an ``OracleSpec(backend="ch", **options)`` builds."""
    return configure_oracle(graph, OracleSpec(backend="ch", **options).resolved())


@pytest.fixture(scope="module")
def grid32_hierarchies(tmp_path_factory):
    """Built and disk-restored hierarchies of the benchmark grid.

    Keyed by the spec's ``kernel`` value; ``"csr"`` is the only one.
    """
    graph = grid_city(32, 32, seed=11).graph
    cache_dir = str(tmp_path_factory.mktemp("ch-csr"))
    built = {
        "csr": tuple(
            _ch_from_spec(graph, kernel="csr", cache_dir=cache_dir) for _ in range(2)
        )
    }
    return graph, built


class TestHierarchyIdentity:
    """The benchmark grid contracts to one pinned hierarchy however it is made."""

    @pytest.mark.parametrize("kernel", ["csr"])
    @pytest.mark.parametrize("restored", [False, True], ids=["built", "restored"])
    def test_pinned_order_and_shortcut_count(self, grid32_hierarchies, kernel, restored):
        import hashlib
        import json

        graph, built = grid32_hierarchies
        oracle = built[kernel][restored]
        assert oracle.preprocessing_loaded is restored
        order = oracle.export_preprocessing()["order"]
        assert hashlib.sha256(json.dumps(order).encode()).hexdigest() == _GRID32_ORDER_SHA256
        assert oracle.stats().extras["shortcuts_added"] == 6602
        reference = built[kernel][False]
        nodes = sorted(graph)
        rng = random.Random(7)
        for _ in range(200):
            source, target = rng.choice(nodes), rng.choice(nodes)
            assert oracle.travel_time(source, target) == reference.travel_time(source, target)


#: sha256 of ``json.dumps(export_preprocessing())`` per pinned graph:
#: the whole hierarchy (order, augmented edges, shortcut count).  Query
#: changes must leave these alone; a contraction change that claims an
#: identical hierarchy proves it here.
_HIERARCHY_SHA256 = {
    "grid16": "d4a3fd8f29c6faa1dec36d49d5c77be5f8abee93b1700d2217d451d6d202c575",
    "grid32": "641c8907dd40638cce9b16edcf8be3fbc651026c26f8da8a85d239a22bac6d43",
    "cdc": "9179994e32534449e0db8c0224795ea85ffabc3fb54731a30ce144bf23e5fdd7",
}

#: ``graph_signature`` of the pinned graphs: the bytes it hashes (and so
#: every CH cache file name and checkpoint graph hash) were taken while
#: the network was still a networkx graph, and must not move.
_GRAPH_SIGNATURE = {
    "grid16": "751d88b2a7c7fd1fd76afb9aa8a131e7701c70a5adaefa2728dc73fc9e25a8da",
    "grid32": "0cba3a653ea908d38370df988fde37bb71a88e00bec5726680eb171312337575",
    "cdc": "5216e16fa24351c8a856d0d1f6a27f8460d3a5ae636a7a96d6f34bf085dc1a4a",
}


def _pinned_graph(name: str):
    from repro.datasets.workloads import city_by_name

    if name == "grid16":
        return grid_city(16, 16, seed=3).graph
    if name == "grid32":
        return grid_city(32, 32, seed=11).graph
    return city_by_name("CDC", seed=7).network.graph


@pytest.mark.parametrize("kernel", ["csr"])
@pytest.mark.parametrize("name", sorted(_HIERARCHY_SHA256))
def test_hierarchy_export_is_pinned(name, kernel):
    import hashlib
    import json

    payload = _ch_from_spec(_pinned_graph(name), kernel=kernel).export_preprocessing()
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == _HIERARCHY_SHA256[name]


@pytest.mark.parametrize("name", sorted(_GRAPH_SIGNATURE))
def test_graph_signature_is_pinned(name):
    assert graph_signature(_pinned_graph(name)) == _GRAPH_SIGNATURE[name]


def _block_stream(pool: list[int], seed: int, count: int):
    """Shuffled overlapping (sources, targets) blocks over a small pool.

    Blocks stay below the reverse-PHAST cutoff (at most 6 sources), so
    every pending pair is answered by the label merge under test, never
    by an arrival row whose sums associate differently.
    """
    rng = random.Random(seed)
    blocks = [
        (
            rng.sample(pool, rng.randint(1, 6)),
            rng.sample(pool, rng.randint(1, 4)),
        )
        for _ in range(count)
    ]
    # Re-ask a third of them later in the stream.
    blocks += rng.sample(blocks, count // 3)
    rng.shuffle(blocks)
    return blocks


#: The CH kernels label memo tests run under: the oracle's csr kernel
#: and the pure-Python reference of ``tests/reference/dict_kernel.py``.
_CH_KERNELS = {"dict": DictCHOracle, "csr": CHOracle}


class TestLabelMemo:
    """A CH pair miss is a merge of two memoised labels, never a re-search."""

    @pytest.mark.parametrize("kernel", ["dict", "csr"])
    @pytest.mark.parametrize("bucket_cache_size", [1024, 2])
    @pytest.mark.parametrize("seed", [5, 23, 61])
    def test_memoised_answers_equal_a_fresh_oracle(
        self, kernel, bucket_cache_size, seed
    ):
        graph = to_networkx(_random_digraph(30, seed=seed, strongly_connected=False))
        pool = random.Random(seed).sample(sorted(graph), 12)
        # One pool node is a sink, whatever the seed left reachable.
        graph.remove_edges_from(list(graph.out_edges(pool[0])))
        graph = from_networkx(graph)
        payload = CHOracle(graph).export_preprocessing()

        def fresh(**kwargs) -> CHOracle:
            return _CH_KERNELS[kernel](graph, preprocessing=payload, **kwargs)

        # A pair cache of one block (the stream's largest, 6 x 4) forces
        # pairs of earlier blocks to be re-derived from labels.
        long_lived = fresh(
            pair_cache_size=24, bucket_cache_size=bucket_cache_size
        )
        scalar = fresh()
        unreachable = 0
        for sources, targets in _block_stream(pool, seed, count=30):
            got = _view(long_lived).travel_times_many(sources, targets)
            assert got == _view(fresh()).travel_times_many(sources, targets)
            for source in sources:
                for target in targets:
                    try:
                        want = scalar.travel_time(source, target)
                    except UnreachableError:
                        unreachable += 1
                        assert (source, target) not in got
                    else:
                        assert got[(source, target)] == want
            extras = long_lived.stats().extras
            assert extras["label_cached_sources"] <= bucket_cache_size
            assert extras["bucket_cached_targets"] <= bucket_cache_size
        assert unreachable > 0
        stats = long_lived.stats()
        if bucket_cache_size == 2:
            # Both label LRUs evicted mid-stream: more searches than
            # distinct endpoints, i.e. some label was dropped and redone.
            assert stats.evictions > 0
            assert stats.cache_misses > 24
        else:
            # Twelve distinct sources and targets: at most one search each.
            assert stats.cache_misses <= 24

    @pytest.mark.parametrize("kernel", ["dict", "csr"])
    def test_reasking_evicted_pairs_runs_no_search(self, networks, kernel):
        graph = networks["grid"].graph
        nodes = sorted(graph)
        oracle = _CH_KERNELS[kernel](graph, pair_cache_size=6)
        network = _view(oracle)
        sources, targets = nodes[:3], [nodes[-1], nodes[-2]]
        first = network.travel_times_many(sources, targets)
        # One search per distinct source and per distinct target.
        assert oracle.stats().cache_misses == 5
        assert oracle.stats().extras["label_cached_sources"] == 3.0
        assert oracle.stats().extras["bucket_cached_targets"] == 2.0
        # Six pairs the other way round evict the first six.
        network.travel_times_many(targets, sources)
        before = oracle.stats()
        assert before.evictions == 6
        assert network.travel_times_many(sources, targets) == first
        after = oracle.stats()
        assert after.extras["upward_settles"] == before.extras["upward_settles"]
        assert after.cache_misses == before.cache_misses
        assert after.cache_hits > before.cache_hits
        assert after.evictions > before.evictions  # the pair cache's own
        # clear() drops the labels too: the next ask searches again.
        oracle.clear()
        assert oracle.stats().extras["label_cached_sources"] == 0.0
        assert oracle.stats().extras["bucket_cached_targets"] == 0.0
        assert network.travel_times_many(sources, targets) == first
        again = oracle.stats()
        assert again.extras["upward_settles"] > after.extras["upward_settles"]
        assert again.cache_misses == after.cache_misses + 5

class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(ORACLE_BACKENDS) == {"lazy", "ch"}

    def test_unknown_backend_rejected(self, networks):
        with pytest.raises(ConfigurationError):
            create_oracle("warp-drive", networks["grid"].graph)
        # A removed backend is no different from one that never existed.
        with pytest.raises(ConfigurationError, match="unknown oracle backend 'matrix'"):
            create_oracle("matrix", networks["grid"].graph)

    def test_unknown_backend_error_lists_registered_names(self, networks):
        with pytest.raises(ConfigurationError) as excinfo:
            create_oracle("warp-drive", networks["grid"].graph)
        message = str(excinfo.value)
        for name in ORACLE_BACKENDS:
            assert name in message

    @pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
    def test_every_factory_tolerates_uniform_options(self, networks, backend, tmp_path):
        """Factories must accept the full keyword set create_oracle passes.

        Every registered factory receives the uniform keywords
        (``cache_dir``, ``degradations``) and ignores the ones it has no
        use for — a backend that chokes on a keyword another backend
        needs would make the backends non-interchangeable.
        """
        graph = networks["grid"].graph
        nodes = sorted(graph)
        oracle = create_oracle(
            backend,
            graph,
            cache_dir=str(tmp_path),
            degradations=DegradationLog(),
        )
        assert isinstance(oracle, BACKEND_CLASSES[backend])
        want = _reference_distances(graph, nodes[0])[nodes[-1]]
        assert oracle.travel_time(nodes[0], nodes[-1]) == pytest.approx(
            want, rel=1e-9, abs=1e-6
        )

    @pytest.mark.parametrize(
        "option",
        ["cache_sise", "reverse_cache_size", "lock_timeout", "max_rows", "nodes", "seed"],
    )
    def test_an_option_no_backend_reads_names_the_key(self, networks, option):
        for backend in ORACLE_BACKENDS:
            with pytest.raises(TypeError, match=option):
                create_oracle(backend, networks["grid"].graph, **{option: 8})


class TestConfigSelection:
    def test_config_validates_backend_name(self):
        with pytest.raises(ConfigurationError):
            OracleSpec(backend="nope")
        with pytest.raises(ConfigurationError, match="does not take"):
            OracleSpec(backend="lazy", cache_dir="cache")
        # Cache bounds and the witness hop limit are backend constants.
        for removed in ("cache_size", "witness_hops"):
            with pytest.raises(ConfigurationError, match="unknown OracleSpec keys"):
                OracleSpec.from_dict({"backend": "ch", removed: 8})
        with pytest.raises(ConfigurationError, match="OracleSpec"):
            ScenarioSpec(oracle="ch")
        assert ScenarioSpec().oracle is None
        # The spec is the one place a backend is named.
        with pytest.raises(TypeError, match="oracle"):
            SimulationConfig(oracle=OracleSpec(backend="ch"))

    def test_configure_oracle_builds_named_backend(self):
        graph = grid_city(5, 5, seed=2).graph
        oracle = configure_oracle(graph, OracleSpec(backend="ch"))
        assert isinstance(oracle, CHOracle)
        assert oracle.graph is graph
        # Every call is a build: the keeping is the caller's.
        assert configure_oracle(graph, OracleSpec(backend="ch")) is not oracle
        lazy = configure_oracle(graph, OracleSpec())
        assert isinstance(lazy, LazyDijkstraOracle)
        # A network keeps the oracle it was built with, over its own graph.
        network = RoadNetwork(graph, oracle)
        assert network.oracle is oracle
        assert not hasattr(network, "set_oracle")
        with pytest.raises(NetworkError, match="different graph"):
            RoadNetwork(grid_city(5, 5, seed=2).graph, oracle)

    def test_changed_options_rebuild_the_oracle(self, tmp_path):
        session = Session()
        base = ScenarioSpec(network="grid", grid_rows=5, grid_cols=5, seed=2)

        def configure(**options):
            spec = base.with_overrides(oracle=OracleSpec(**options))
            return session.network(spec).oracle

        lazy = configure(backend="lazy")
        plain = configure(backend="ch")
        assert isinstance(plain, CHOracle)
        assert plain is not lazy
        assert configure(backend="ch") is plain
        # Naming the one kernel asks for the same oracle.
        assert configure(backend="ch", kernel="csr") is plain
        cached = configure(backend="ch", cache_dir=str(tmp_path / "a"))
        assert cached is not plain
        assert configure(backend="ch", cache_dir=str(tmp_path / "a")) is cached
        assert configure(backend="ch", cache_dir=str(tmp_path / "b")) is not cached

    def test_simulator_runs_on_the_network_as_given(self):
        """A bare Simulator (no runner involved) asks the workload's own
        network, built with the ``ch`` backend, and never swaps it."""
        from repro.datasets.workloads import build_workload
        from repro.experiments.config import default_config
        from repro.experiments.runner import make_dispatcher
        from repro.simulation.engine import Simulator

        config = default_config("CDC", num_orders=15, num_workers=4, horizon=900.0)
        drawn = build_workload("CDC", config)
        graph = drawn.network.graph
        network = RoadNetwork(graph, create_oracle("ch", graph))
        oracle = network.oracle
        workload = replace(drawn, network=network)
        dispatcher = make_dispatcher("NonSharing", workload, config)
        result = Simulator(workload, dispatcher, config).run()
        assert workload.network is network
        assert network.oracle is oracle
        assert isinstance(oracle, CHOracle)
        assert result.metrics.oracle_stats["backend"] == "ch"

    def test_run_is_backend_independent(self):
        """``lazy`` and its dict-Dijkstra reference produce bit-identical
        simulations.

        Each run gets a network over the drawn graph with a fresh oracle
        of its class, so both start equally cold.
        """
        from repro.datasets.workloads import build_workload
        from repro.experiments.config import default_config
        from tests.conftest import run_on_workload

        config = default_config("CDC", num_orders=25, num_workers=6, horizon=900.0)
        outcomes = {}
        for name, oracle_class in (
            ("lazy", LazyDijkstraOracle),
            ("reference", DictLazyOracle),
        ):
            drawn = build_workload("CDC", config)
            oracle = oracle_class(drawn.network.graph)
            workload = replace(drawn, network=RoadNetwork(oracle.graph, oracle))
            metrics = run_on_workload("WATTER-online", workload, config).metrics
            assert workload.network.oracle is oracle
            assert metrics.oracle_stats["queries"] > 0
            outcomes[name] = (
                metrics.served_orders,
                metrics.total_extra_time,
                metrics.unified_cost,
                metrics.service_rate,
            )
        assert outcomes["lazy"] == outcomes["reference"]

    def test_ch_run_agrees_with_lazy(self):
        """The CH backend reproduces lazy's simulation outcome.

        CH distances can differ from a monolithic Dijkstra's in the
        last few ulps (shortcut additions associate differently), so
        the float metrics are compared with a tight relative tolerance
        rather than bitwise; the discrete outcomes must match exactly.
        """
        from repro.datasets.workloads import build_workload
        from repro.experiments.config import default_config
        from tests.conftest import run_on_workload

        config = default_config("CDC", num_orders=25, num_workers=6, horizon=900.0)
        outcomes = {}
        for backend in ("lazy", "ch"):
            drawn = build_workload("CDC", config)
            graph = drawn.network.graph
            network = RoadNetwork(graph, create_oracle(backend, graph))
            workload = replace(drawn, network=network)
            metrics = run_on_workload("WATTER-online", workload, config).metrics
            assert metrics.oracle_stats["backend"] == backend
            outcomes[backend] = metrics
        lazy, ch = outcomes["lazy"], outcomes["ch"]
        assert ch.served_orders == lazy.served_orders
        assert ch.rejected_orders == lazy.rejected_orders
        assert ch.service_rate == lazy.service_rate
        assert ch.average_group_size == lazy.average_group_size
        assert ch.total_extra_time == pytest.approx(
            lazy.total_extra_time, rel=1e-9
        )
        assert ch.unified_cost == pytest.approx(lazy.unified_cost, rel=1e-9)
        assert ch.oracle_stats["ch.shortcuts_added"] > 0


#: What the built oracle reports for an all-defaults spec, per backend.
_DEFAULT_SETTINGS = {
    "lazy": {"maxsize": 1024},
    "ch": {
        "witness_hop_limit": 5,
        "bucket_cache_size": 1024,
    },
}

#: (backend, spec options, settings that differ from the defaults row):
#: every option each backend consumes, with the values the flat
#: ``oracle_*`` configuration path produced for the same spec.
#: ``cache_files`` = what lands in ``cache_dir``.
_SETTINGS_ROWS = [
    ("lazy", {}, {}),
    ("ch", {}, {}),
    ("ch", {"kernel": None}, {}),
    ("ch", {"kernel": "csr"}, {}),
    ("ch", {"cache_dir": "TMP"}, {"cache_files": ["ch-*-w5.json"]}),
]


def _reported_settings(oracle: DistanceOracle) -> dict:
    reported = {}
    if isinstance(oracle, LazyDijkstraOracle):
        reported["maxsize"] = oracle.max_sources
    for name in ("witness_hop_limit", "bucket_cache_size"):
        if hasattr(oracle, name):
            reported[name] = getattr(oracle, name)
    return reported


class TestSpecToOracleSettings:
    """Differential guard for the one configuration surface: a spec
    builds the oracle the removed flat fields built for it."""

    @pytest.mark.parametrize(
        "backend, options, changed",
        _SETTINGS_ROWS,
        ids=[
            "-".join([backend, *options]) or backend
            for backend, options, _ in _SETTINGS_ROWS
        ],
    )
    def test_spec_builds_the_same_oracle(self, backend, options, changed, tmp_path):
        options = {
            option: str(tmp_path) if value == "TMP" else value
            for option, value in options.items()
        }
        spec = ScenarioSpec(
            network="grid",
            grid_rows=6,
            grid_cols=6,
            oracle={"backend": backend, **options},
        )
        graph = grid_city(6, 6, seed=3).graph
        oracle = configure_oracle(graph, spec.oracle.resolved())

        expected = {**_DEFAULT_SETTINGS[backend], **changed}
        cache_files = expected.pop("cache_files", None)
        assert isinstance(oracle, BACKEND_CLASSES[backend])
        assert _reported_settings(oracle) == expected
        if cache_files is not None:
            written = sorted(
                path.name
                for path in tmp_path.iterdir()
                if path.suffix == ".json"
            )
            assert len(written) == len(cache_files)
            for name, pattern in zip(written, cache_files):
                assert fnmatch.fnmatch(name, pattern), (name, pattern)


class TestCliSelection:
    def test_parser_accepts_oracle_flag(self):
        args = build_parser().parse_args(["compare", "--oracle", "lazy"])
        assert args.oracle == "lazy"
        args = build_parser().parse_args(["compare", "--oracle", "ch"])
        assert args.oracle == "ch"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--oracle", "bogus"])

    def test_compare_with_oracle_flag_runs(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset",
                "CDC",
                "--orders",
                "20",
                "--workers",
                "6",
                "--horizon",
                "900",
                "--algorithms",
                "NonSharing",
                "--oracle",
                "lazy",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "oracle=lazy" in captured
        assert "Distance-oracle cache statistics" in captured

    def test_compare_with_ch_oracle_runs(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset",
                "CDC",
                "--orders",
                "20",
                "--workers",
                "6",
                "--horizon",
                "900",
                "--algorithms",
                "NonSharing",
                "GDP",
                "--oracle",
                "ch",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ch" in captured
        assert "Distance-oracle cache statistics" in captured
        # The CH counters flow into the printed stats table.
        assert "shortcuts" in captured and "bucket scans" in captured


class TestStatsDelta:
    def test_counter_extras_are_subtracted_gauges_kept(self):
        from repro.network.oracle import OracleStats

        before = OracleStats(
            backend="ch",
            queries=10,
            extras={
                "bucket_scans": 100.0,
                "upward_settles": 50.0,
                "shortcuts_added": 7.0,
                "label_cached_sources": 2.0,
                "bucket_cached_targets": 3.0,
            },
        )
        after = OracleStats(
            backend="ch",
            queries=25,
            extras={
                "bucket_scans": 160.0,
                "upward_settles": 80.0,
                "shortcuts_added": 7.0,
                "label_cached_sources": 4.0,
                "bucket_cached_targets": 5.0,
            },
        )
        delta = after - before
        assert delta.queries == 15
        # Counters report per-run work...
        assert delta.extras["bucket_scans"] == 60.0
        assert delta.extras["upward_settles"] == 30.0
        # ...while structural constants and gauges keep their snapshot.
        assert delta.extras["shortcuts_added"] == 7.0
        assert delta.extras["label_cached_sources"] == 4.0
        assert delta.extras["bucket_cached_targets"] == 5.0


class TestGraphSignature:
    def test_signature_is_stable_and_content_sensitive(self):
        network = grid_city(rows=5, cols=5, seed=17)
        graph = network.graph
        assert graph_signature(graph) == graph_signature(graph)
        other = grid_city(rows=5, cols=5, seed=17).graph
        assert graph_signature(graph) == graph_signature(other)
        edited = to_networkx(other)
        edited[0][1]["travel_time"] += 1.0
        assert graph_signature(graph) != graph_signature(from_networkx(edited))

    def test_signature_of_a_fixed_graph_is_pinned(self):
        """The hashed bytes never move: CH cache file names stay warm.

        Integer weights hash as floats, an isolated node still counts,
        and edges hash in sorted order whatever order they were added.
        """
        graph = RoadGraph(
            [(1, 0.0, 0.0), (0, 0.0, 0.0), (7, 0.0, 0.0)], [(1, 0, 2), (0, 1, 0.5)]
        )
        assert graph_signature(graph) == (
            "8bee5c83b4d6c4f89076594d4b352a530a70afb8d414f0df27720738e29dca48"
        )
