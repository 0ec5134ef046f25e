"""The dense leg call and the Dijkstra kernel under it.

Four contracts, each held to ``==``:

* ``leg_matrix`` is the scalar answer: every cell equals what
  ``travel_time`` returns for the pair straight after the call, on every
  backend, whatever mix of forward and reverse maps ``lazy`` holds;
* ``ch``'s override costs the label and sweep work of the block's
  distinct cells and one pair-cache read per cell, and a block too big
  for a backend's caches costs one search per label and reads its cells
  as scalars;
* the oracle's own Dijkstra row is networkx's distances and the
  reference kernel's map, forward and against the edges, cell for cell
  (``inf`` where the map has no key), searched over the graph's own
  shared lists;
* a distance is a ``float``, a node's distance to itself included.
"""

from __future__ import annotations

import random
from math import inf

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UnknownNodeError, UnreachableError
from repro.network.graph import RoadGraph, RoadNetwork
from repro.network.oracle import CHOracle, LazyDijkstraOracle, create_oracle
from repro.network.oracle import ch as ch_module
from repro.network.oracle.base import DistanceOracle
from tests.reference.dict_kernel import (
    DictCHOracle,
    dict_dijkstra,
    predecessor_lists,
    successor_lists,
)
from tests.reference.nx_graph import from_networkx, to_networkx

#: name -> oracle factory: both backends, the contraction
#: hierarchy under its csr kernel and under the pure-Python reference
#: kernel of ``tests/reference/dict_kernel.py``.
BACKENDS = {
    "lazy": lambda graph: create_oracle("lazy", graph),
    "ch-dict": DictCHOracle,
    "ch-csr": lambda graph: create_oracle("ch", graph),
}

#: ``TestChOverride``'s kernels: the csr oracle and the reference.
CH_KERNELS = {"dict": DictCHOracle, "csr": CHOracle}

#: The backends whose full-map searches run on ``_dijkstra_from`` /
#: ``_dijkstra_to``.
KERNEL_BACKENDS = ["lazy"]


def _digraph(num_nodes: int, seed: int, weight=lambda rng: rng.uniform(1.0, 10.0)):
    """Random digraph: an oriented tree plus one-way extras, so ordered
    pairs are asymmetric and plenty of them unreachable."""
    rng = random.Random(seed)
    graph = nx.DiGraph()
    for node in range(num_nodes):
        graph.add_node(node, x=rng.uniform(0.0, 10.0), y=rng.uniform(0.0, 10.0))
    for node in range(1, num_nodes):
        parent = rng.randrange(node)
        u, v = (parent, node) if rng.random() < 0.5 else (node, parent)
        graph.add_edge(u, v, travel_time=weight(rng))
    for _ in range(2 * num_nodes):
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, travel_time=weight(rng))
    return from_networkx(graph)


def _network(name: str, graph: RoadGraph) -> RoadNetwork:
    return RoadNetwork(graph, oracle=BACKENDS[name](graph))


def _scalar(network: RoadNetwork, source: int, target: int) -> float:
    try:
        return network.travel_time(source, target)
    except UnreachableError:
        return inf


def _assert_matrix_is_scalar(network: RoadNetwork, sources, targets) -> list[list[float]]:
    matrix = network.leg_matrix(sources, targets)
    assert [len(row) for row in matrix] == [len(targets)] * len(sources)
    for row, source in zip(matrix, sources):
        for cell, target in zip(row, targets):
            assert type(cell) is float
            assert cell == _scalar(network, source, target), (source, target)
            if source == target:
                assert cell == 0.0
    return matrix


def _blocks(rng: random.Random, num_nodes: int, count: int, size: int):
    """``count`` source / target lists with repeats and shared nodes."""
    for _ in range(count):
        palette = [rng.randrange(num_nodes) for _ in range(size)]
        sources = [rng.choice(palette) for _ in range(rng.randint(1, size))]
        targets = [rng.choice(palette) for _ in range(rng.randint(1, size))]
        yield sources, targets


class TestLegMatrixIsTheScalarAnswer:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @pytest.mark.parametrize("seed", [3, 4])
    def test_every_cell_equals_travel_time(self, name, seed):
        graph = _digraph(24, seed)
        network = _network(name, graph)
        rng = random.Random(seed)
        unreachable = 0
        for sources, targets in _blocks(rng, 24, count=12, size=6):
            # What a worker search and a lone plan leave behind: reverse
            # maps for some targets, forward maps for some sources.
            for target in targets[::2]:
                if rng.random() < 0.5:
                    network.travel_times_to(target)
            for source in sources[::3]:
                if rng.random() < 0.5:
                    network.travel_times_many([source], range(24))
            matrix = _assert_matrix_is_scalar(network, sources, targets)
            unreachable += sum(row.count(inf) for row in matrix)
        assert unreachable  # the graphs do have one-way dead ends

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_argument_order_duplicates_and_empty_sides(self, name):
        network = _network(name, _digraph(12, seed=9))
        matrix = network.leg_matrix([5, 2, 5], [2, 7, 7, 5])
        assert matrix[0] == matrix[2]
        assert [row[1] for row in matrix] == [row[2] for row in matrix]
        assert matrix[0][3] == 0.0 and matrix[1][0] == 0.0
        assert network.leg_matrix([], [1, 2]) == []
        assert network.leg_matrix([1, 2], []) == [[], []]

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_unknown_node_and_unreachable_pair(self, name):
        graph = RoadGraph(
            [(node, float(node), 0.0) for node in range(3)], [(0, 1, 4.0), (1, 2, 2.5)]
        )
        network = _network(name, graph)
        assert network.leg_matrix([0, 2], [2, 0]) == [[6.5, 0.0], [0.0, inf]]
        with pytest.raises(UnreachableError):
            network.travel_time(2, 0)
        for sources, targets in [([0, 99], [1]), ([0], [1, 99])]:
            with pytest.raises(UnknownNodeError):
                network.leg_matrix(sources, targets)

    def test_lazy_prices_by_the_scalar_rule_not_the_block_direction(self):
        """Forward map for one source, reverse maps for every target.

        The block needs no new search in the reverse direction, so it is
        answered there, yet the row of the source holding a forward map
        must read that map, as a scalar query would.  On float weights
        the two maps differ in the last bit for some pair.
        """
        disagreements = 0
        for seed in range(40):
            graph = _digraph(14, seed)
            network = RoadNetwork(graph)
            nodes = random.Random(seed).sample(range(14), 5)
            network.travel_times_many(nodes[:1], nodes[1:])  # a forward map
            for target in nodes:
                network.travel_times_to(target)
            before = network.oracle_stats()
            matrix = _assert_matrix_is_scalar(network, nodes, nodes)
            spent = network.oracle_stats() - before
            assert spent.sssp_runs == spent.reverse_sssp_runs == 0
            # The dict view is the matrix, pair for pair.
            assert network.travel_times_many(nodes, nodes) == {
                (source, target): cell
                for source, row in zip(nodes, matrix)
                for target, cell in zip(nodes, row)
                if cell != inf
            }
            oracle = network.oracle
            column = oracle._index[nodes[0]]
            disagreements += sum(
                oracle._rcache[target][column] != cell
                for target, cell in zip(nodes, matrix[0])
            )
        assert disagreements, "no graph reproduces the forward/reverse last-bit gap"

    def test_lazy_runs_the_searches_the_block_would(self):
        """Same Dijkstras, same cached maps as the two-step it replaces."""
        graph = _digraph(30, seed=17)
        dense, two_step = RoadNetwork(graph), RoadNetwork(graph)
        rng = random.Random(17)
        for sources, targets in _blocks(rng, 30, count=40, size=5):
            workers = [rng.randrange(30) for _ in range(3)]
            for network in (dense, two_step):
                network.travel_times_many(workers, targets[:1])
            two_step.travel_times_many(sources, targets)
            expected = [[_scalar(two_step, s, t) for t in targets] for s in sources]
            assert dense.leg_matrix(sources, targets) == expected
            ours, theirs = dense.oracle_stats(), two_step.oracle_stats()
            assert ours.sssp_runs == theirs.sssp_runs
            assert ours.reverse_sssp_runs == theirs.reverse_sssp_runs
            assert ours.extras == theirs.extras  # how many maps each cache holds
        assert ours.sssp_runs and ours.reverse_sssp_runs

    def test_lazy_with_an_evicting_lru(self):
        """``max_sources=2``: maps are evicted between and inside calls."""
        graph = _digraph(20, seed=23)
        oracle = LazyDijkstraOracle(graph, max_sources=2)
        network = RoadNetwork(graph, oracle=oracle)
        rng = random.Random(23)
        # Calls the LRU can hold: exact, on float weights.
        for sources, targets in _blocks(rng, 20, count=30, size=2):
            _assert_matrix_is_scalar(network, sources, targets)
        assert oracle.stats().evictions > 0
        # Calls it cannot: no map is sure to survive the call, so which
        # direction prices a later scalar read is history; the answers
        # still agree on reachability and to the last few bits.
        for sources, targets in _blocks(rng, 20, count=10, size=6):
            matrix = network.leg_matrix(sources, targets)
            for row, source in zip(matrix, sources):
                for cell, target in zip(row, targets):
                    assert cell == pytest.approx(_scalar(network, source, target), rel=1e-12)
        # ... and exactly where both directions sum the same floats.
        whole = _digraph(20, seed=23, weight=lambda rng: float(rng.randint(1, 9)))
        network = RoadNetwork(whole, oracle=LazyDijkstraOracle(whole, max_sources=2))
        for sources, targets in _blocks(rng, 20, count=10, size=6):
            _assert_matrix_is_scalar(network, sources, targets)

    def test_lazy_block_wider_than_the_lru_runs_one_search_per_label(self):
        """Five sources, room for two rows: one reverse search, then
        every cell a scalar read off that row."""
        graph = _digraph(20, seed=23)
        oracle = LazyDijkstraOracle(graph, max_sources=2)
        sources = [0, 3, 5, 7, 9]
        matrix = oracle.leg_matrix(sources, [11])
        stats = oracle.stats()
        assert (stats.sssp_runs, stats.reverse_sssp_runs) == (0, 1)
        assert (stats.cache_misses, stats.cache_hits) == (1, 5)
        assert stats.queries == stats.batched_queries == 5
        column = oracle._rcache[11]
        assert matrix == [[column[oracle._index[source]]] for source in sources]


@pytest.mark.parametrize("kernel", ["dict", "csr"])
class TestChOverride:
    """``CHOracle.leg_matrix`` against a twin asked for the distinct cells.

    The twin answers the network's ``travel_times_many``: one block over
    the distinct sources and targets.  The stats contract: ``queries``
    and ``batched_queries`` grow by the number of cells (duplicates and
    the diagonal included); every off-diagonal cell found in the pair
    cache is one cache hit; the label and arrival caches count hits,
    misses and searches exactly as the twin's distinct block does.
    """

    @staticmethod
    def _twins(kernel, graph=None, **options):
        graph = _digraph(24, seed=4) if graph is None else graph
        return [CH_KERNELS[kernel](graph, **options) for _ in range(2)]

    @staticmethod
    def _check(dense, many, sources, targets):
        off_diagonal = [(s, t) for s in sources for t in targets if s != t]
        cached = [pair for pair in off_diagonal if pair in dense._pair_cache]
        assert set(cached) == {pair for pair in off_diagonal if pair in many._pair_cache}
        before_dense, before_many = dense.stats(), many.stats()
        matrix = dense.leg_matrix(sources, targets)
        block = RoadNetwork(many.graph, oracle=many).travel_times_many(sources, targets)
        spent, block_spent = dense.stats() - before_dense, many.stats() - before_many
        assert matrix == [
            [0.0 if s == t else block.get((s, t), inf) for t in targets] for s in sources
        ]
        cells = len(sources) * len(targets)
        assert spent.queries == spent.batched_queries == cells
        assert spent.cache_hits - len(cached) == block_spent.cache_hits - len(set(cached))
        assert spent.cache_misses == block_spent.cache_misses
        assert spent.reverse_sssp_runs == block_spent.reverse_sssp_runs
        assert spent.pp_searches == block_spent.pp_searches == 0
        assert spent.extras == block_spent.extras
        for oracle in (dense, many):  # block == scalar, and the twins stay twins
            for row, source in zip(matrix, sources):
                for cell, target in zip(row, targets):
                    try:
                        assert oracle.travel_time(source, target) == cell
                    except UnreachableError:
                        assert cell == inf
        return matrix, spent

    def test_cold_then_fully_cached(self, kernel):
        dense, many = self._twins(kernel)
        sources, targets = [3, 8, 15, 20], [1, 8, 14]
        matrix, cold = self._check(dense, many, sources, targets)
        assert cold.cache_misses > 0 and cold.cache_hits == 0
        assert any(cell == inf for row in matrix for cell in row)  # no raise
        again, warm = self._check(dense, many, sources, targets)
        assert again == matrix
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(sources) * len(targets) - 1  # (8, 8) is no read
        assert warm.extras["upward_settles"] == warm.extras["bucket_scans"] == 0

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below-cutoff", "at-cutoff"])
    def test_single_target_block_either_side_of_the_sweep_cutoff(self, kernel, offset):
        dense, many = self._twins(kernel)
        sources = list(range(2, 2 + ch_module._MANY_TO_ONE_CUTOFF + offset))
        self._check(dense, many, sources, [0])
        swept = dense.stats().extras["arrival_cached_targets"]
        assert swept == (1.0 if offset == 0 else 0.0)

    def test_target_with_a_memoised_arrival_row(self, kernel):
        dense, many = self._twins(kernel)
        for oracle in (dense, many):
            oracle._arrival_row(5)
        self._check(dense, many, [1, 2, 3], [5, 9])
        assert dense.stats().extras["arrival_cached_targets"] == 1.0
        assert dense.stats().extras["bucket_cached_targets"] == 1.0  # 9 only

    def test_duplicate_sources_and_targets(self, kernel):
        dense, many = self._twins(kernel)
        sources, targets = [4, 7, 4, 4], [7, 2, 2, 4]
        matrix, _ = self._check(dense, many, sources, targets)
        assert matrix[0] == matrix[2] == matrix[3]
        assert [row[1] for row in matrix] == [row[2] for row in matrix]
        assert matrix[0][3] == matrix[1][0] == 0.0
        _, warm = self._check(dense, many, sources, targets)
        assert warm.cache_hits == len(sources) * len(targets) - 4  # four diagonal cells

    def test_block_larger_than_the_pair_cache_takes_the_two_step(self, kernel):
        """Six cells, room for four: its own answers would be evicted.

        The block prices its distinct cells once, one search per label,
        then reads every cell as a scalar: a point-to-point search each,
        the pair cache having kept four of them.  The counts are pinned.
        """
        whole = _digraph(24, seed=31, weight=lambda rng: float(rng.randint(1, 9)))
        oracle = CH_KERNELS[kernel](whole, pair_cache_size=4)
        sources, targets = [3, 15, 20], [1, 11]
        before = oracle.stats()
        matrix = oracle.leg_matrix(sources, targets)
        spent = oracle.stats() - before
        assert matrix == [[14.0, 15.0], [15.0, 16.0], [19.0, 20.0]]
        assert spent.queries == spent.batched_queries == 6
        # Three source labels and two target labels, then six scalar misses.
        assert spent.cache_misses == 11 and spent.cache_hits == 0
        assert spent.reverse_sssp_runs == 2
        assert spent.pp_searches == 6
        assert spent.evictions == 8
        assert spent.extras["upward_settles"] == 61
        assert spent.extras["label_cached_sources"] == 3.0
        assert spent.extras["bucket_cached_targets"] == 2.0
        assert spent.extras["arrival_cached_targets"] == 0.0
        for row, source in zip(matrix, sources):
            for cell, target in zip(row, targets):
                assert cell == _scalar(RoadNetwork(whole, oracle=oracle), source, target)
        # A block that fits is read off the cache: one query per cell.
        before = oracle.stats()
        oracle.leg_matrix(sources[:2], targets)
        assert (oracle.stats() - before).queries == 4


class _ScalarOnly(DistanceOracle):
    """A backend defining nothing but the two abstract methods."""

    name = "scalar-only"

    def __init__(self, graph: RoadGraph) -> None:
        super().__init__(graph)
        self._reference = to_networkx(graph)

    def travel_time(self, source: int, target: int) -> float:
        try:
            return float(
                nx.dijkstra_path_length(self._reference, source, target, weight="travel_time")
            )
        except nx.NetworkXNoPath:
            raise UnreachableError(source, target) from None

    def clear(self) -> None:
        pass


class TestMinimalBackend:
    def test_scalar_reads_answer_every_block_and_view(self):
        """The default block and the network's dict views over it equal
        ``lazy``'s (integer weights: every direction sums alike)."""
        graph = _digraph(16, seed=8, weight=lambda rng: float(rng.randint(1, 9)))
        minimal = RoadNetwork(graph, oracle=_ScalarOnly(graph))
        lazy = _network("lazy", graph)
        rng = random.Random(8)
        for sources, targets in _blocks(rng, 16, count=10, size=5):
            assert minimal.leg_matrix(sources, targets) == lazy.leg_matrix(
                sources, targets
            )
            assert minimal.travel_times_many(sources, targets) == (
                lazy.travel_times_many(sources, targets)
            )
        for target in graph:
            assert minimal.travel_times_to(target) == lazy.travel_times_to(target)
        before = minimal.oracle_stats()
        minimal.leg_matrix([1, 2, 1], [2, 3])
        assert (minimal.oracle_stats() - before).batched_queries == 6


class TestDistancesAreFloats:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_full_maps_and_leg_matrix(self, name):
        """A node is ``0.0`` from itself, not networkx's integer seed."""
        network = _network(name, _digraph(10, seed=5))
        for node in (0, 4, 9):
            distances = network.travel_times_to(node)
            assert distances[node] == 0.0
            assert {type(value) for value in distances.values()} == {float}
        matrix = network.leg_matrix([0, 4, 9], [9, 4, 0])
        assert {type(cell) for row in matrix for cell in row} == {float}


@st.composite
def weighted_digraphs(draw) -> nx.DiGraph:
    """Small digraphs rich in ties: zero weights, repeated integer and
    float weights (``0.1 + 0.2`` against ``0.3``), isolated nodes.  Node
    ids are spaced out and inserted out of sorted order, so a node's id,
    its insertion position and its row index all differ."""
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    ids = [3 * k + 1 for k in draw(st.permutations(range(num_nodes)))]
    node = st.sampled_from(ids)
    weight = st.sampled_from([0, 0.0, 1, 2, 3, 0.1, 0.2, 0.3, 0.5, 1.5, 2.25])
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=4 * num_nodes))
    graph = nx.DiGraph()
    for position, node_id in enumerate(ids):
        graph.add_node(node_id, x=float(position), y=0.0)
    for u, v, travel_time in edges:
        graph.add_edge(u, v, travel_time=travel_time)
    return graph


def _cells(oracle: DistanceOracle, row) -> dict[int, float]:
    """A row as ``node -> cell``, every node of the oracle's index."""
    assert len(row) == len(oracle._nodes)
    return {node: row[oracle._index[node]] for node in oracle._nodes}


class TestKernelIsNetworkx:
    @settings(max_examples=150, deadline=None)
    @given(graph=weighted_digraphs())
    def test_rows_are_networkx_values(self, graph):
        """A row has no key order, so only the values are compared."""
        oracle = LazyDijkstraOracle(from_networkx(graph))
        reverse = graph.reverse(copy=True)
        for node in graph:
            for row, search_graph in (
                (oracle._dijkstra_from(node), graph),
                (oracle._dijkstra_to(node), reverse),
            ):
                expected = nx.single_source_dijkstra_path_length(
                    search_graph, node, weight="travel_time"
                )
                assert {
                    key: cell for key, cell in _cells(oracle, row).items()
                    if cell != inf
                } == expected

    @settings(max_examples=300, deadline=None)
    @given(graph=weighted_digraphs())
    def test_rows_equal_the_reference_kernel(self, graph):
        """Every cell is the reference map's float, or ``inf`` off its keys."""
        road = from_networkx(graph)
        oracle = LazyDijkstraOracle(road)
        forward, backward = successor_lists(graph), predecessor_lists(graph)
        for node in graph:
            for row, adjacency in (
                (oracle._dijkstra_from(node), forward),
                (oracle._dijkstra_to(node), backward),
            ):
                reference = dict_dijkstra(adjacency, node)
                cells = _cells(oracle, row)
                assert {key: cell for key, cell in cells.items() if cell != inf} == (
                    reference
                )
                assert all(
                    type(cell) is float
                    and (cell == reference[key] if key in reference else cell == inf)
                    for key, cell in cells.items()
                )
            # The network's all-to-one map: the reverse row's reachable cells,
            # in node-index order.
            arrivals = RoadNetwork(road, oracle=oracle).travel_times_to(node)
            assert arrivals == dict_dijkstra(backward, node)
            assert list(arrivals) == [key for key in oracle._nodes if key in arrivals]

    @pytest.mark.parametrize("name", KERNEL_BACKENDS)
    def test_searches_share_the_graph_lists(self, name):
        """Rows are searched over the graph's own successor and
        predecessor lists: the oracle holds no adjacency of its own, and
        ``clear()`` drops cached rows, never the (immutable) graph."""
        graph = RoadGraph(
            [(node, float(node), 0.0) for node in range(3)],
            [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 20.0)],
        )
        network = _network(name, graph)
        oracle = network.oracle
        # Rows over nodes 0, 1, 2 (ids and row indices coincide here).
        assert list(oracle._dijkstra_from(0)) == [0.0, 5.0, 10.0]
        assert list(oracle._dijkstra_to(2)) == [10.0, 5.0, 0.0]
        assert graph.successors == [[(1, 5.0), (2, 20.0)], [(2, 5.0)], []]
        assert graph.predecessors == [[], [(0, 5.0)], [(0, 20.0), (1, 5.0)]]
        assert not [
            name
            for name, value in vars(oracle).items()
            if isinstance(value, list) and value is not graph.nodes_sorted
        ]
        assert network.travel_times_to(2) == {0: 10.0, 1: 5.0, 2: 0.0}
        oracle.clear()
        assert oracle.stats().extras == {
            "forward_cached_sources": 0.0,
            "reverse_cached_targets": 0.0,
        }
        assert oracle.travel_time(0, 2) == 10.0
