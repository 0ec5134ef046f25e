"""csr kernel vs the pure-Python reference kernel.

The oracles' numpy kernel is a pure representation change of the loops
``tests/reference/dict_kernel.py`` keeps: every query path returns the
floats the reference returns (the level sweep relaxes identical sums
and ``min`` is order-independent), and whole simulations produce
identical metrics.  These tests pin both properties.
"""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import OracleSpec, ScenarioSpec, Session
from repro.network.oracle import CHOracle, MatrixOracle
from repro.network.oracle.csr import finite_entries
from tests.reference.dict_kernel import (
    DictCHOracle,
    ListMatrixOracle,
    reverse_sweep,
)


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
    graph = _random_digraph(14, seed, strongly)
    reference = DictCHOracle(graph)
    oracle = CHOracle(graph)
    nodes = sorted(graph.nodes)
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
    graph = _random_digraph(12, seed, strongly)
    oracle = CHOracle(graph)
    nodes = sorted(graph.nodes)
    target = nodes[seed % len(nodes)]
    seeds = oracle.reverse_seed_map(target)
    want = reverse_sweep(oracle, seeds)
    row = oracle.reverse_sweep(seeds)
    order = oracle.node_order
    idxs, values = finite_entries(row)
    got = {
        order[idx]: value
        for idx, value in zip(idxs.tolist(), values.tolist())
    }
    assert got == want


def test_matrix_kernels_agree():
    """The matrix backend's vectorised row refresh equals the list build."""
    graph = _random_digraph(16, seed=9, strongly=False)
    reference = ListMatrixOracle(graph)
    oracle = MatrixOracle(graph)
    nodes = sorted(graph.nodes)
    assert {
        source: row.tolist() for source, row in oracle._rows.items()
    } == reference._rows
    for target in nodes[:4]:
        assert dict(reference.travel_times_to(target)) == dict(
            oracle.travel_times_to(target)
        )
    assert reference.travel_times_many(nodes, nodes[:3]) == (
        oracle.travel_times_many(nodes, nodes[:3])
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

    The reference is attached to the network of the session's workload
    (after the workload is drawn, whose deadlines ask the oracle the
    network had then), stamped with the spec's oracle identity, so
    ``Session.run`` keeps it instead of building its own.
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
    network = session.workload(spec).network
    reference = DictCHOracle(network.graph)
    reference.built_from = spec.oracle.resolved()
    network.set_oracle(reference)
    reference_run = session.run(spec)
    assert network.oracle is reference
    assert reference_run.metrics.served_orders > 0
    assert _core_metrics(csr_run.metrics) == _core_metrics(reference_run.metrics)
