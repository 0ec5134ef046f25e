"""dict-vs-csr kernel equivalence.

The csr kernel's contract is that it is a pure representation change:
every query path returns the same floats the dict kernel returns (the
level sweep relaxes identical sums and ``min`` is order-independent)
and whole simulations produce identical metrics.  These tests pin both
properties, plus the pure-Python fallback that keeps ``kernel="csr"``
requests working when numpy is absent (the no-numpy CI leg runs this
module with every ``needs_numpy`` test skipped).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import OracleSpec, ScenarioSpec, Session
from repro.network.oracle import (
    HAVE_NUMPY,
    KERNELS,
    CHOracle,
    MatrixOracle,
    resolve_kernel,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")


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
# kernel resolution / fallback
# ---------------------------------------------------------------------------


def test_resolve_kernel_tracks_numpy_availability():
    """``auto`` and ``csr`` degrade to ``dict`` exactly when numpy is absent."""
    expected = "csr" if HAVE_NUMPY else "dict"
    assert resolve_kernel("dict") == "dict"
    assert resolve_kernel("auto") == expected
    assert resolve_kernel("csr") == expected
    with pytest.raises(ValueError, match="unknown oracle kernel"):
        resolve_kernel("simd")
    assert set(KERNELS) == {"auto", "dict", "csr"}


def test_dict_kernel_always_works():
    """The pure-Python fallback answers queries with no numpy in sight."""
    graph = _random_digraph(12, seed=5, strongly=True)
    oracle = CHOracle(graph, kernel="dict")
    assert oracle.kernel == "dict"
    assert oracle.requested_kernel == "dict"
    arrivals = oracle.travel_times_to(3)
    assert arrivals[3] == 0.0
    block = oracle.travel_times_many(sorted(graph.nodes), [3])
    for (source, target), value in block.items():
        assert value == pytest.approx(arrivals[source], rel=1e-9)
        assert target == 3
    assert oracle.stats().as_dict()["kernel"] == "dict"


# ---------------------------------------------------------------------------
# dict vs csr equality (property-tested)
# ---------------------------------------------------------------------------


@needs_numpy
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
    dict_oracle = CHOracle(graph, kernel="dict")
    csr_oracle = CHOracle(graph, kernel="csr")
    assert dict_oracle.kernel == "dict"
    assert csr_oracle.kernel == "csr"
    nodes = sorted(graph.nodes)
    target = nodes[seed % len(nodes)]
    assert dict(dict_oracle.travel_times_to(target)) == dict(
        csr_oracle.travel_times_to(target)
    )
    # Wide single-target batch: >= the many-to-one cutoff sources, so
    # both kernels answer from the reverse-PHAST arrival representation.
    assert dict_oracle.travel_times_many(nodes, [target]) == (
        csr_oracle.travel_times_many(nodes, [target])
    )
    # Multi-target batch: the RPHAST bucket-scan path in both kernels.
    assert dict_oracle.travel_times_many(nodes[:5], nodes[:3]) == (
        csr_oracle.travel_times_many(nodes[:5], nodes[:3])
    )


@needs_numpy
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), strongly=st.booleans())
def test_reverse_sweep_primitive_representations_agree(seed, strongly):
    """The kernel seam: dense rows decode to exactly the dict sweep map."""
    from repro.network.oracle.csr import finite_entries

    graph = _random_digraph(12, seed, strongly)
    dict_oracle = CHOracle(graph, kernel="dict")
    csr_oracle = CHOracle(graph, kernel="csr")
    nodes = sorted(graph.nodes)
    target = nodes[seed % len(nodes)]
    seeds = dict_oracle.reverse_seed_map(target)
    # One deterministic contraction -> interchangeable seed maps.
    assert seeds == csr_oracle.reverse_seed_map(target)
    want = dict_oracle.reverse_sweep(seeds)
    row = csr_oracle.reverse_sweep(seeds)
    order = csr_oracle.node_order
    idxs, values = finite_entries(row)
    got = {
        order[idx]: value
        for idx, value in zip(idxs.tolist(), values.tolist())
    }
    assert got == want


@needs_numpy
def test_matrix_kernels_agree():
    """The matrix backend's vectorised row refresh equals the dict build."""
    graph = _random_digraph(16, seed=9, strongly=False)
    dict_oracle = MatrixOracle(graph, kernel="dict")
    csr_oracle = MatrixOracle(graph, kernel="csr")
    nodes = sorted(graph.nodes)
    for target in nodes[:4]:
        assert dict(dict_oracle.travel_times_to(target)) == dict(
            csr_oracle.travel_times_to(target)
        )
    assert dict_oracle.travel_times_many(nodes, nodes[:3]) == (
        csr_oracle.travel_times_many(nodes, nodes[:3])
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


def _run(spec: ScenarioSpec):
    # A fresh Session per run: kernels build different oracles, and
    # sharing one session would hand the second run the first's oracle.
    return Session().run(spec)


def _kernel_spec(oracle: OracleSpec, **overrides) -> ScenarioSpec:
    base = dict(
        dataset="CDC",
        num_orders=40,
        num_workers=5,
        horizon=1500.0,
        seed=29,
        check_period=15.0,
        algorithm="WATTER-timeout",
        oracle=oracle,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@needs_numpy
def test_simulation_metrics_identical_across_kernels():
    """A csr-kernel run reproduces the dict-kernel run bit for bit.

    Driven through the typed front door on purpose: the nested
    ``OracleSpec(kernel=...)`` is the documented way to pick a kernel,
    so this test breaks if the spec plumbing ever stops reaching the
    oracle.
    """
    dict_run = _run(_kernel_spec(OracleSpec(backend="ch", kernel="dict")))
    csr_run = _run(_kernel_spec(OracleSpec(backend="ch", kernel="csr")))
    assert dict_run.metrics.served_orders > 0
    assert _core_metrics(csr_run.metrics) == _core_metrics(dict_run.metrics)
    assert dict_run.metrics.oracle_stats["kernel"] == "dict"
    assert csr_run.metrics.oracle_stats["kernel"] == "csr"
