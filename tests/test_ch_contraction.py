"""CH contraction with early-stopping witness searches vs the reference.

``CHOracle``'s witness search stops once every shortcut decision it
owes is fixed; ``tests/reference/ch_contraction.py`` keeps the search
that ran until every target settled.  The stop is exact, so both must
contract every graph to the same hierarchy: the same node order, the
same augmented edges at the same weights and the same shortcut count,
compared here as ``json.dumps(export_preprocessing())``.
"""

from __future__ import annotations

import json
import random
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network.oracle.ch as ch_module
from repro.network.graph import RoadGraph
from repro.network.oracle import CHOracle
from tests.reference.ch_contraction import RunToSettleCHOracle


def _assert_same_hierarchy(graph: RoadGraph, hop_limit: int) -> str:
    """Assert both contractions of ``graph`` agree; return the export's JSON."""
    built = CHOracle(graph, witness_hop_limit=hop_limit).export_preprocessing()
    reference = RunToSettleCHOracle(
        graph, witness_hop_limit=hop_limit
    ).export_preprocessing()
    assert built["shortcuts"] == reference["shortcuts"]
    exported = json.dumps(built)
    assert exported == json.dumps(reference)
    return exported


#: One weight class per graph.  Zero and tied weights make witnesses
#: exactly as long as their shortcut, the case the ``<=`` decisions turn
#: on; an infinite weight makes a shortcut bound nothing exceeds.
_WEIGHT_CLASSES = [
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1.0, 2.5, inf]),
]


@st.composite
def _graphs(draw) -> RoadGraph:
    """Random graphs of up to 40 nodes, directed or both ways."""
    n = draw(st.integers(2, 40))
    node = st.integers(0, n - 1)
    weight = draw(st.sampled_from(_WEIGHT_CLASSES))
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=4 * n))
    bidirectional = draw(st.booleans())
    return RoadGraph([(i, float(i), 0.0) for i in range(n)], edges, bidirectional)


@settings(max_examples=300, deadline=None)
@given(graph=_graphs(), hop_limit=st.sampled_from([1, 2, 5]))
def test_contraction_matches_the_run_to_settle_reference(graph, hop_limit):
    _assert_same_hierarchy(graph, hop_limit)


def test_witness_through_a_node_popped_at_the_bound():
    """The witness ``1 -> 3 -> 2`` for the shortcut ``1 -> 2`` past node 0.

    Its middle node pops at exactly the shortcut's bound, 2, and its
    last edge weighs nothing: the search must expand a pop at the bound,
    not stop there.  Node 0 then needs no shortcut and is contracted
    first; with a shortcut it would come second.
    """
    graph = RoadGraph(
        [(i, float(i), 0.0) for i in range(4)],
        [(1, 0, 1.0), (0, 2, 1.0), (1, 3, 2.0), (3, 2, 0.0)],
        False,
    )
    exported = _assert_same_hierarchy(graph, ch_module.DEFAULT_WITNESS_HOP_LIMIT)
    assert json.loads(exported)["order"][0] == 0


def _dense_graph() -> RoadGraph:
    """300 nodes, three random out-edges each, inserted both ways.

    Weights are tenths in ``[0, 3]``, so zero and tied weights abound;
    about a thousand of its witness searches reach the settle cap.
    """
    rng = random.Random(1)
    nodes = [(i, rng.random(), rng.random()) for i in range(300)]
    edges = [
        (u, v, round(rng.uniform(0.0, 3.0), 1))
        for u in range(300)
        for v in rng.sample(range(300), 3)
        if v != u
    ]
    return RoadGraph(nodes, edges, True)


def test_dense_graph_where_the_settle_cap_binds(monkeypatch):
    graph = _dense_graph()
    exported = _assert_same_hierarchy(graph, ch_module.DEFAULT_WITNESS_HOP_LIMIT)
    # The cap decides this hierarchy: lifted, the searches find
    # witnesses the capped ones give up on.
    monkeypatch.setattr(ch_module, "_WITNESS_SETTLE_LIMIT", 10**9)
    assert json.dumps(CHOracle(graph).export_preprocessing()) != exported
