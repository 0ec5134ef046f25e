"""Block-priced csr bucket scan vs the per-pair scan it replaced.

``tests/reference/ch_bucket_scan.py`` keeps the csr bucket scan that
ran one numpy gather, add and min per (source, target) cell.  The
production scan prices a whole row or column with one segment
reduction; it must return the same floats (exact ``==``, not approx),
leave the same counters and remember pairs in the same order.  The
pure-Python bucket scan of ``tests/reference/dict_kernel.py`` is the
third side: same floats, same uniform counters, same pair-cache order
(its ``bucket_scans`` counts bucket entries, not label entries, so its
extras differ by design).
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import UnreachableError
from repro.network.oracle import CHOracle
from tests.reference.ch_bucket_scan import PerPairCHOracle
from tests.reference.dict_kernel import DictCHOracle

#: Few distinct weights, zero among them, so distinct paths tie often
#: and ``0.1 + 0.2`` meets ``0.3`` (two floats that do not compare equal).
_WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5)

#: Counters every side must agree on (``precompute_seconds`` is wall time).
_UNIFORM = (
    "queries",
    "batched_queries",
    "cache_hits",
    "cache_misses",
    "sssp_runs",
    "reverse_sssp_runs",
    "pp_searches",
    "evictions",
)


@st.composite
def _graphs(draw) -> nx.DiGraph:
    """Small digraphs, often not strongly connected (unreachable pairs)."""
    size = draw(st.integers(2, 9))
    graph = nx.DiGraph()
    graph.add_nodes_from(range(size))
    pairs = [(u, v) for u in range(size) for v in range(size) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * size, unique=True))
    for u, v in chosen:
        graph.add_edge(u, v, travel_time=draw(st.sampled_from(_WEIGHTS)))
    return graph


@st.composite
def _blocks(draw, nodes: list[int]):
    """A (sources, targets) block of shape 1xk, kx1, kxk or kxm, duplicates kept.

    Up to 10 a side covers cell-by-cell rows, segment-reduced rows and
    columns, and (kx1 with k >= 8) the reverse-PHAST arrival rows.
    """
    node = st.sampled_from(nodes)
    k = draw(st.integers(1, 10))
    m = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(("1xk", "kx1", "kxk", "kxm")))
    width = {"1xk": (1, k), "kx1": (k, 1), "kxk": (k, k), "kxm": (k, m)}[shape]
    sources = draw(st.lists(node, min_size=width[0], max_size=width[0]))
    targets = draw(st.lists(node, min_size=width[1], max_size=width[1]))
    return sources, targets


def _scalar(oracle: CHOracle, source: int, target: int) -> float | None:
    try:
        return oracle.travel_time(source, target)
    except UnreachableError:
        return None


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_block_pricing_matches_the_per_pair_scan(data):
    graph = data.draw(_graphs())
    nodes = sorted(graph.nodes)
    bucket_cache_size = data.draw(st.sampled_from((1024, 2, 1)))
    payload = CHOracle(graph).export_preprocessing()
    oracles = tuple(
        cls(graph, preprocessing=payload, bucket_cache_size=bucket_cache_size)
        for cls in (CHOracle, PerPairCHOracle, DictCHOracle)
    )
    # Pre-warm the pair cache (unreachable verdicts included) through
    # scalar queries, so blocks mix cached cells with pending ones.
    warm = data.draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=6)
    )
    for source, target in warm:
        answers = [_scalar(oracle, source, target) for oracle in oracles]
        assert answers[0] == answers[1] == answers[2]
    blocks = data.draw(st.lists(_blocks(nodes), min_size=1, max_size=6))
    for sources, targets in blocks:
        answers = [oracle.leg_matrix(sources, targets) for oracle in oracles]
        assert answers[0] == answers[1] == answers[2]
    stats = [oracle.stats() for oracle in oracles]
    for name in _UNIFORM:
        assert getattr(stats[0], name) == getattr(stats[1], name) == getattr(
            stats[2], name
        ), name
    assert stats[0].extras == stats[1].extras
    remembered = [list(oracle._pair_cache.items()) for oracle in oracles]
    assert remembered[0] == remembered[1] == remembered[2]


@pytest.mark.parametrize("shape", [(2, 12), (12, 2), (5, 5), (3, 2), (5, 1)])
def test_rows_and_columns_price_identically(shape):
    """Every pricing path of a larger block, against the reference.

    Rows reduce (2x12, 5x5), columns reduce (12x2, 5x1), and narrow
    rows go cell by cell (3x2).
    """
    from repro.network.generators import grid_city

    graph = grid_city(12, 12, seed=4).graph
    nodes = sorted(graph.nodes)
    payload = CHOracle(graph).export_preprocessing()
    ours = CHOracle(graph, preprocessing=payload)
    reference = PerPairCHOracle(graph, preprocessing=payload)
    rows, cols = shape
    sources = nodes[3 : 3 + 7 * rows : 7]
    targets = nodes[100 : 100 - 5 * cols : -5]
    assert ours.leg_matrix(sources, targets) == reference.leg_matrix(sources, targets)
    assert ours.stats().extras == reference.stats().extras
    assert list(ours._pair_cache.items()) == list(reference._pair_cache.items())
