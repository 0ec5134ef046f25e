"""The oracles' kernels vs the pure-Python reference kernels.

The csr (numpy) kernel of ``ch`` and the index-array Dijkstra under
``lazy`` are pure representation changes
of the loops ``tests/reference/dict_kernel.py`` keeps: every query path
returns the floats the reference returns (the level sweep relaxes
identical sums and ``min`` is order-independent; a label-setting search
settles every node at the same minimum sum), the caches make the same
decisions, and whole simulations produce identical metrics.  These
tests pin those properties.
"""

from __future__ import annotations

import random
from dataclasses import replace
from math import inf

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import OracleSpec, ScenarioSpec, Session
from repro.exceptions import UnreachableError
from repro.network.graph import RoadNetwork
from repro.network.oracle import CHOracle, LazyDijkstraOracle
from tests.reference.dict_kernel import (
    DictCHOracle,
    DictLazyOracle,
    reverse_sweep,
)
from tests.reference.nx_graph import from_networkx


def _random_digraph(num_nodes: int, seed: int, strongly: bool) -> nx.DiGraph:
    """Random directed graph with asymmetric weights (see test_oracle)."""
    rng = random.Random(seed)
    graph = nx.DiGraph()
    for node in range(num_nodes):
        graph.add_node(node, x=rng.uniform(0.0, 10.0), y=rng.uniform(0.0, 10.0))
    if strongly:
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
    return graph


# ---------------------------------------------------------------------------
# csr vs reference equality (property-tested)
# ---------------------------------------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), strongly=st.booleans())
def test_kernels_agree_on_random_digraphs(seed, strongly):
    """Identical floats from every query path on arbitrary digraphs.

    Exact ``==`` on purpose, not approx: both kernels must relax the
    same ``tail + weight`` sums into the same minima, so even the last
    ulp agrees.  Weakly connected graphs keep unreachable pairs (inf
    handling) in play; the wide single-target batch exercises the
    reverse-PHAST row path, the multi-target batch the bucket scans.
    """
    graph = from_networkx(_random_digraph(14, seed, strongly))
    reference = RoadNetwork(graph, oracle=DictCHOracle(graph))
    oracle = RoadNetwork(graph, oracle=CHOracle(graph))
    nodes = sorted(graph)
    target = nodes[seed % len(nodes)]
    assert dict(reference.travel_times_to(target)) == dict(
        oracle.travel_times_to(target)
    )
    # Wide single-target batch: >= the many-to-one cutoff sources, so
    # both kernels answer from the reverse-PHAST arrivals.
    assert reference.travel_times_many(nodes, [target]) == (
        oracle.travel_times_many(nodes, [target])
    )
    # Multi-target batch: the RPHAST bucket-scan path of both kernels.
    assert reference.travel_times_many(nodes[:5], nodes[:3]) == (
        oracle.travel_times_many(nodes[:5], nodes[:3])
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), strongly=st.booleans())
def test_reverse_sweep_primitive_representations_agree(seed, strongly):
    """The kernel seam: dense rows decode to exactly the node-by-node sweep."""
    graph = from_networkx(_random_digraph(12, seed, strongly))
    oracle = CHOracle(graph)
    nodes = sorted(graph)
    target = nodes[seed % len(nodes)]
    seeds = oracle.reverse_seed_map(target)
    want = reverse_sweep(oracle, seeds)
    row = oracle.reverse_sweep(seeds)
    order = oracle.node_order
    got = {order[idx]: value for idx, value in enumerate(row.tolist()) if value != inf}
    assert got == want


#: name -> (oracle on the index-array kernel, its reference-kernel twin).
KERNEL_TWINS = {
    "lazy-1": (
        lambda graph: LazyDijkstraOracle(graph, max_sources=1),
        lambda graph: DictLazyOracle(graph, max_sources=1),
    ),
    "lazy-2": (
        lambda graph: LazyDijkstraOracle(graph, max_sources=2),
        lambda graph: DictLazyOracle(graph, max_sources=2),
    ),
    "lazy-unbounded": (
        lambda graph: LazyDijkstraOracle(graph, max_sources=None),
        lambda graph: DictLazyOracle(graph, max_sources=None),
    ),
}


def _ask(oracle, op: str, args: tuple):
    """One query; an unreachable scalar answers as ``None``."""
    try:
        answer = getattr(oracle, op)(*args)
    except UnreachableError:
        return None
    # The map form is compared with its key order: both build it from a row.
    return list(answer.items()) if op == "travel_times_to" else answer


def _assert_networkx_distances(truth, nodes, op: str, args: tuple, answer) -> None:
    """Every cell of an answer is networkx's distance to within rounding
    (a reverse row sums a path right to left), and ``inf`` or absent
    exactly where no path exists."""
    if op == "travel_time":
        cells = {args: inf if answer is None else answer}
    elif op == "leg_matrix":
        sources, targets = args
        cells = {
            (source, target): answer[i][j]
            for i, source in enumerate(sources)
            for j, target in enumerate(targets)
        }
    else:
        found = dict(answer)
        assert inf not in found.values()
        if op == "travel_times_to":
            pairs = [(source, args[0]) for source in nodes]
            found = {(source, args[0]): seconds for source, seconds in found.items()}
        else:
            pairs = [(source, target) for source in args[0] for target in args[1]]
        cells = {pair: found.get(pair, inf) for pair in pairs}
    for (source, target), seconds in cells.items():
        expected = truth[source].get(target, inf)
        assert seconds == pytest.approx(expected, rel=1e-12), (op, args, source)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(KERNEL_TWINS))
def test_block_stream_matches_the_reference_kernel(name, seed):
    """A random stream of every query shape, answer by answer.

    Node ids are a scrambled, spaced-out relabelling, so a node's id is
    never its row index, plus a sink (``1``), a source (``2``) and an
    isolated node (``3``) for unreachable pairs.  After every query both
    oracles have returned the same floats and hold the same counters:
    the same searches in the same direction, the same hits, misses and
    evictions.  Both sharing everything above the kernel, each answer is
    also held to networkx's distances.
    """
    graph = _random_digraph(16, seed, strongly=False)
    graph = nx.relabel_nodes(graph, {node: (7 * node) % 17 * 3 + 100 for node in graph})
    for node in (1, 2, 3):
        graph.add_node(node, x=float(node), y=0.0)
    graph.add_edge(100, 1, travel_time=2.5)
    graph.add_edge(2, 103, travel_time=0.5)
    make, make_reference = KERNEL_TWINS[name]
    road = from_networkx(graph)
    oracle, reference = make(road), make_reference(road)
    # The dict views are the network's, over the oracle's block query.
    network = RoadNetwork(road, oracle=oracle)
    reference_network = RoadNetwork(road, oracle=reference)
    nodes = list(graph)
    truth = dict(nx.all_pairs_dijkstra_path_length(graph, weight="travel_time"))
    rng = random.Random(seed)
    ops = ("travel_time", "travel_times_many", "leg_matrix", "travel_times_to")
    for _ in range(80):
        op = rng.choice(ops)
        if op == "travel_time":
            args: tuple = (rng.choice(nodes), rng.choice(nodes))
        elif op == "travel_times_to":
            args = (rng.choice(nodes),)
        else:
            palette = rng.sample(nodes, 5)
            args = (
                [rng.choice(palette) for _ in range(rng.randint(1, 4))],
                [rng.choice(palette) for _ in range(rng.randint(1, 4))],
            )
        answer = _ask(network, op, args)
        assert answer == _ask(reference_network, op, args), (op, args)
        _assert_networkx_distances(truth, nodes, op, args, answer)
        assert replace(oracle.stats(), precompute_seconds=0.0) == replace(
            reference.stats(), precompute_seconds=0.0
        )


# ---------------------------------------------------------------------------
# whole-simulation equivalence
# ---------------------------------------------------------------------------


def _core_metrics(metrics) -> dict:
    data = {
        name: getattr(metrics, name) for name in metrics.__dataclass_fields__
    }
    data.pop("oracle_stats")
    data.pop("running_time_total")
    data.pop("running_time_per_order")
    return data


def test_simulation_metrics_identical_across_kernels():
    """A run over the csr oracle reproduces one over the reference bit for bit.

    The reference answers on a network of its own over the graph of the
    session's workload (drawn first, whose deadlines ask the oracle the
    drawing network has), and ``Session.run`` runs that workload's
    network as given.
    """
    spec = ScenarioSpec(
        dataset="CDC",
        num_orders=40,
        num_workers=5,
        horizon=1500.0,
        seed=29,
        check_period=15.0,
        algorithm="WATTER-timeout",
        oracle=OracleSpec(backend="ch"),
    )
    csr_run = Session().run(spec)
    session = Session()
    drawn = session.workload(spec)
    reference = DictCHOracle(drawn.network.graph)
    workload = replace(drawn, network=RoadNetwork(reference.graph, reference))
    reference_run = session.run(spec, workload=workload)
    assert workload.network.oracle is reference
    assert reference_run.metrics.served_orders > 0
    assert _core_metrics(csr_run.metrics) == _core_metrics(reference_run.metrics)


def test_lazy_simulation_metrics_identical_to_the_reference_kernel():
    """A WATTER-expect run on ``lazy`` reproduces one on the dict Dijkstra.

    WATTER-expect is the run that asks ``lazy`` the most: the shareability
    test, the route planner, the fleet's ring search and the bootstrap.
    A small cache bound keeps evictions, hence both LRUs' decisions, in
    play; the oracle counters must agree too.
    """
    spec = ScenarioSpec(
        dataset="CDC",
        num_orders=40,
        num_workers=5,
        horizon=1500.0,
        seed=29,
        check_period=15.0,
        algorithm="WATTER-expect",
        oracle=OracleSpec(backend="lazy"),
    )

    def run_on(kernel):
        # Built by hand: the spec's lazy oracle has the default bound,
        # and only a size-8 one keeps evictions in play.  The provider
        # is the spec's own, bootstrapped on its training network.
        session = Session()
        drawn = session.workload(spec)
        oracle = kernel(drawn.network.graph, max_sources=8)
        workload = replace(drawn, network=RoadNetwork(oracle.graph, oracle))
        run = session.run(
            spec, workload=workload, provider=session.expect_provider(spec)
        )
        assert workload.network.oracle is oracle
        return run

    rows_run = run_on(LazyDijkstraOracle)
    reference_run = run_on(DictLazyOracle)
    assert reference_run.metrics.served_orders > 0
    assert _core_metrics(rows_run.metrics) == _core_metrics(reference_run.metrics)
    rows_stats = dict(rows_run.metrics.oracle_stats)
    reference_stats = dict(reference_run.metrics.oracle_stats)
    assert rows_stats["evictions"] > 0
    rows_stats.pop("precompute_seconds")
    reference_stats.pop("precompute_seconds")
    assert rows_stats == reference_stats
