"""Multilevel matching-based graph coarsening.

City-scale road networks (10^5–10^6 nodes) are too large for the
preprocessing-heavy oracle backends: CH contraction and dense matrix
rows are the bottleneck long before dispatch is.  Coarsening shrinks
the graph level by level so those backends run on a few thousand
supernodes instead:

1. **Matching.**  Each level greedily matches spatio-temporally close
   node pairs.  A pair ``(i, j)`` is *feasible* when the current-level
   graph connects them by at least one directed edge, and its merge
   cost is the weighted spatio-temporal distance

       ``D_ij = alpha * tau_ij + beta * temporal_slack_ij``

   where ``tau_ij`` is the cheaper directed travel time between the
   pair and ``temporal_slack_ij`` the asymmetry ``|w(i->j) - w(j->i)|``
   (a pair connected in only one direction pays its full weight as
   slack — merging it hides a one-way restriction).  Nodes are visited
   in deterministic sorted order and each picks its cheapest feasible
   unmatched neighbour, so two runs over one graph always produce the
   same hierarchy.

2. **Projection.**  Matched pairs collapse into a supernode named by
   the smaller member id (so every coarse node id *is* a base node id
   — its anchor).  A coarse edge ``(P, Q)`` takes the **minimum weight
   over all crossing finer edges**, and records which *base-graph*
   edge achieved that minimum (``base_edge``): the min of mins at any
   level is itself some base edge, which is what lets the overlay
   oracle inflate a coarse route back into a genuine full-graph path.

3. **Termination.**  Coarsening stops after ``levels`` rounds, when
   the graph is trivially small, or when a round fails to shrink the
   node count below ``stop_ratio`` of the previous level (matching has
   dried up — more rounds would only burn time).

Every pass is O(V + E) per level (plus the O(V log V) deterministic
sort), so a 100k-node city coarsens in seconds — no quadratic passes,
no dense intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Iterator, Mapping

import networkx as nx

_INF = float("inf")

#: Payload layout version of :meth:`CoarseningHierarchy.to_payload`;
#: bump when the persisted shape changes so stale cache files are
#: rebuilt instead of misread.
COARSEN_FORMAT = 1

#: Default number of coarsening rounds.
DEFAULT_LEVELS = 3

#: Default weight of the travel-time term of the merge cost.
DEFAULT_ALPHA = 1.0

#: Default weight of the temporal-slack term of the merge cost.
DEFAULT_BETA = 1.0

#: Default shrink requirement: a round keeping more than this fraction
#: of the previous level's nodes ends the hierarchy.
DEFAULT_STOP_RATIO = 0.95

#: Coarsening below this many nodes stops — the graph is already
#: trivially small for any inner backend.
_MIN_COARSE_NODES = 2


@dataclass(frozen=True)
class CoarseningParams:
    """The knobs one hierarchy was built with (part of its cache key)."""

    levels: int = DEFAULT_LEVELS
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    stop_ratio: float = DEFAULT_STOP_RATIO

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("coarsening levels must be at least 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("coarsening alpha/beta must be non-negative")
        if not 0.0 < self.stop_ratio <= 1.0:
            raise ValueError("coarsening stop_ratio must lie in (0, 1]")


@dataclass(frozen=True)
class CoarseningLevel:
    """One round of coarsening.

    Attributes
    ----------
    graph:
        The coarse graph after this round.  Node ids are anchor base
        node ids; edges carry ``travel_time`` (min over crossing finer
        edges) and ``base_edge`` (the base-graph edge achieving it).
    parent:
        Finer-level node -> this level's supernode (anchor) id.
    children:
        Anchor id -> tuple of the finer-level nodes it absorbed
        (including itself).  Every finer node appears in exactly one
        tuple — the partition invariant the property tests pin.
    """

    graph: nx.DiGraph
    parent: Mapping[Any, Any]
    children: Mapping[Any, tuple]


class CoarseningHierarchy:
    """The product of :class:`MultilevelCoarsener`: levels plus maps.

    The hierarchy answers the two questions the overlay oracle needs:

    * ``representative(node)`` — which coarsest supernode a base node
      belongs to (its anchor, itself a base node id);
    * ``members(anchor)`` — the base nodes inside one coarsest
      supernode (the local-Dijkstra universe of offset precomputation
      and route inflation).
    """

    def __init__(
        self,
        base_graph: nx.DiGraph,
        levels: list[CoarseningLevel],
        params: CoarseningParams,
    ) -> None:
        self.base_graph = base_graph
        self.levels = levels
        self.params = params
        self._representative: dict[Any, Any] | None = None
        self._members: dict[Any, tuple] | None = None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def levels_built(self) -> int:
        """Number of coarsening rounds actually performed."""
        return len(self.levels)

    @property
    def coarse_graph(self) -> nx.DiGraph:
        """The coarsest graph (the base graph when no round succeeded)."""
        return self.levels[-1].graph if self.levels else self.base_graph

    def _base_maps(self) -> tuple[dict[Any, Any], dict[Any, tuple]]:
        if self._representative is None:
            rep = {node: node for node in self.base_graph.nodes}
            for level in self.levels:
                parent = level.parent
                for node, current in rep.items():
                    rep[node] = parent[current]
            members: dict[Any, list] = {}
            for node, anchor in rep.items():
                members.setdefault(anchor, []).append(node)
            self._representative = rep
            self._members = {
                anchor: tuple(sorted(nodes))
                for anchor, nodes in members.items()
            }
        assert self._members is not None
        return self._representative, self._members

    def representative(self, node: Any) -> Any:
        """The coarsest supernode (anchor base node id) of a base node."""
        return self._base_maps()[0][node]

    def members(self, anchor: Any) -> tuple:
        """Base nodes inside the coarsest supernode ``anchor`` (sorted)."""
        return self._base_maps()[1][anchor]

    def crossing(self, a: Any, b: Any) -> tuple[Any, Any, float]:
        """The base edge realising coarse edge ``a -> b``: ``(u, v, weight)``.

        ``u`` lies in ``members(a)``, ``v`` in ``members(b)``, and
        ``weight`` equals both the base edge's travel time and the
        coarse edge's (the min over crossing edges *is* a base edge).
        """
        data = self.coarse_graph[a][b]
        base = data.get("base_edge")
        if base is None:
            # Zero rounds succeeded (the graph was already tiny), so the
            # "coarse" graph is the base graph and every edge realises
            # itself.
            return a, b, float(data["travel_time"])
        u, v = base
        return u, v, float(data["travel_time"])

    def local_distances(
        self, anchor: Any, start: Any, reverse: bool = False
    ) -> dict[Any, float]:
        """Dijkstra from ``start`` restricted to ``members(anchor)``.

        With ``reverse=True`` edges are traversed backwards, answering
        "distance *to* ``start``" for every member — the shape offset
        precomputation needs.  Linear in the cluster, never the graph.
        """
        allowed = set(self.members(anchor))
        graph = self.base_graph
        dist: dict[Any, float] = {start: 0.0}
        heap: list[tuple[float, Any]] = [(0.0, start)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if reverse:
                neighbours: Iterator = (
                    (p, graph[p][u]["travel_time"])
                    for p in graph.predecessors(u)
                )
            else:
                neighbours = (
                    (s, graph[u][s]["travel_time"])
                    for s in graph.successors(u)
                )
            for v, w in neighbours:
                if v not in allowed:
                    continue
                nd = d + float(w)
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return dist

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able snapshot: the parent maps plus the build params.

        Coarse graphs and crossing edges are *not* stored — they are
        rebuilt from the base graph in O(E) per level on load, which
        keeps the payload small and makes a stale payload impossible
        to misread as fresh (the graph itself is the source of truth).
        """
        return {
            "format": COARSEN_FORMAT,
            "params": {
                "levels": self.params.levels,
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "stop_ratio": self.params.stop_ratio,
            },
            "parents": [
                [[child, parent] for child, parent in sorted(level.parent.items())]
                for level in self.levels
            ],
        }

    @classmethod
    def from_payload(
        cls, base_graph: nx.DiGraph, payload: Mapping
    ) -> "CoarseningHierarchy":
        """Rebuild a hierarchy from :meth:`to_payload` output.

        Raises ``ValueError`` when the payload is malformed or does not
        partition this graph's node set — callers treat that as a cache
        miss and re-coarsen.
        """
        if payload.get("format") != COARSEN_FORMAT:
            raise ValueError("unsupported coarsening payload format")
        raw_params = payload.get("params")
        raw_parents = payload.get("parents")
        if not isinstance(raw_params, Mapping) or not isinstance(raw_parents, list):
            raise ValueError("malformed coarsening payload")
        try:
            params = CoarseningParams(
                levels=int(raw_params["levels"]),
                alpha=float(raw_params["alpha"]),
                beta=float(raw_params["beta"]),
                stop_ratio=float(raw_params["stop_ratio"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed coarsening params: {exc}") from exc
        levels: list[CoarseningLevel] = []
        current = base_graph
        for rows in raw_parents:
            try:
                parent = {child: anchor for child, anchor in rows}
            except (TypeError, ValueError) as exc:
                raise ValueError("malformed coarsening parent rows") from exc
            if set(parent) != set(current.nodes):
                raise ValueError(
                    "coarsening payload does not partition this graph"
                )
            children: dict[Any, list] = {}
            for child, anchor in parent.items():
                children.setdefault(anchor, []).append(child)
            for anchor, kids in children.items():
                if anchor not in parent or parent[anchor] != anchor:
                    raise ValueError(
                        "coarsening payload anchors must map to themselves"
                    )
                del kids  # membership validated via the partition check
            coarse = _project(current, parent)
            levels.append(
                CoarseningLevel(
                    graph=coarse,
                    parent=parent,
                    children={
                        anchor: tuple(sorted(kids))
                        for anchor, kids in children.items()
                    },
                )
            )
            current = coarse
        return cls(base_graph, levels, params)


def _merge_cost(
    graph: nx.DiGraph, u: Any, v: Any, alpha: float, beta: float
) -> float:
    """``D_uv = alpha * tau + beta * temporal_slack`` for a connected pair."""
    w_uv = graph[u][v]["travel_time"] if graph.has_edge(u, v) else None
    w_vu = graph[v][u]["travel_time"] if graph.has_edge(v, u) else None
    if w_uv is not None and w_vu is not None:
        tau = min(float(w_uv), float(w_vu))
        slack = abs(float(w_uv) - float(w_vu))
    else:
        # One-way pair: merging hides a directional restriction, so the
        # whole weight counts as slack on top of the travel-time term.
        weight = float(w_uv if w_uv is not None else w_vu)  # type: ignore[arg-type]
        tau = weight
        slack = weight
    return alpha * tau + beta * slack


def _match(
    graph: nx.DiGraph,
    alpha: float,
    beta: float,
    max_merge_cost: float | None,
) -> dict[Any, Any]:
    """One greedy matching round: finer node -> supernode anchor.

    Deterministic: nodes are visited in sorted order and each unmatched
    node pairs with its cheapest feasible unmatched neighbour (ties on
    the smaller neighbour id).  Unmatched nodes become singleton
    supernodes anchored at themselves.
    """
    matched: dict[Any, Any] = {}
    for u in sorted(graph.nodes):
        if u in matched:
            continue
        best = None
        best_cost = _INF
        seen: set = set()
        for v in graph.successors(u):
            seen.add(v)
        for v in graph.predecessors(u):
            seen.add(v)
        for v in sorted(seen):
            if v == u or v in matched:
                continue
            cost = _merge_cost(graph, u, v, alpha, beta)
            if cost < best_cost:
                best_cost = cost
                best = v
        if best is not None and (
            max_merge_cost is None or best_cost <= max_merge_cost
        ):
            anchor = min(u, best)
            matched[u] = anchor
            matched[best] = anchor
    parent: dict[Any, Any] = {}
    for u in graph.nodes:
        parent[u] = matched.get(u, u)
    return parent


def _project(graph: nx.DiGraph, parent: Mapping[Any, Any]) -> nx.DiGraph:
    """Collapse one level: coarse weights are min over crossing edges.

    Each coarse edge also carries ``base_edge``, the *base-graph* edge
    realising its weight — inherited from the finer edge's own
    ``base_edge`` (or the finer edge itself at level 1), so the
    attribute always bottoms out in the original graph.
    """
    coarse = nx.DiGraph()
    for node, anchor in parent.items():
        del node
        coarse.add_node(anchor)
    for u, v, data in graph.edges(data=True):
        pu, pv = parent[u], parent[v]
        if pu == pv:
            continue
        weight = float(data["travel_time"])
        base_edge = data.get("base_edge", (u, v))
        existing = coarse.get_edge_data(pu, pv)
        if existing is None or weight < existing["travel_time"]:
            coarse.add_edge(pu, pv, travel_time=weight, base_edge=base_edge)
    return coarse


class MultilevelCoarsener:
    """Builds a :class:`CoarseningHierarchy` over a directed road graph.

    Parameters
    ----------
    graph:
        Directed graph with ``travel_time`` edge weights (the road
        network's graph, treated as frozen).
    levels:
        Maximum number of coarsening rounds.
    alpha / beta:
        Weights of the travel-time and temporal-slack terms of the
        merge cost ``D_ij = alpha*tau_ij + beta*temporal_slack_ij``.
    stop_ratio:
        A round keeping more than this fraction of the previous
        level's nodes terminates the hierarchy early.
    max_merge_cost:
        Optional feasibility ceiling: pairs whose merge cost exceeds
        it are never matched (``None`` = no ceiling).
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        levels: int = DEFAULT_LEVELS,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        stop_ratio: float = DEFAULT_STOP_RATIO,
        max_merge_cost: float | None = None,
    ) -> None:
        self._graph = graph
        self.params = CoarseningParams(
            levels=levels, alpha=alpha, beta=beta, stop_ratio=stop_ratio
        )
        if max_merge_cost is not None and max_merge_cost < 0:
            raise ValueError("max_merge_cost must be non-negative")
        self.max_merge_cost = max_merge_cost

    def build(self) -> CoarseningHierarchy:
        """Run the matching/projection rounds and return the hierarchy."""
        params = self.params
        levels: list[CoarseningLevel] = []
        current = self._graph
        for _ in range(params.levels):
            node_count = current.number_of_nodes()
            if node_count <= _MIN_COARSE_NODES:
                break
            parent = _match(
                current, params.alpha, params.beta, self.max_merge_cost
            )
            anchors = set(parent.values())
            if len(anchors) > params.stop_ratio * node_count:
                break
            coarse = _project(current, parent)
            children: dict[Any, list] = {}
            for child, anchor in parent.items():
                children.setdefault(anchor, []).append(child)
            levels.append(
                CoarseningLevel(
                    graph=coarse,
                    parent=dict(parent),
                    children={
                        anchor: tuple(sorted(kids))
                        for anchor, kids in children.items()
                    },
                )
            )
            current = coarse
        return CoarseningHierarchy(self._graph, levels, params)
