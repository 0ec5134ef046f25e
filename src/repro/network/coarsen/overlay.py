"""Bounded-error overlay oracle over a coarsening hierarchy.

The ``overlay`` backend answers full-graph distance queries from a
much smaller coarse graph, with a **certified** relative error bound:

* **Lower bound.**  Any full-graph path projects onto a coarse walk —
  intra-supernode edges cost >= 0 and every crossing edge weighs at
  least its coarse edge's min-over-crossing weight — so the coarse
  shortest distance ``d_c = d_coarse(R(u), R(v))`` can never exceed
  the true distance.  (The same argument makes coarse-unreachable
  imply base-unreachable, so :class:`UnreachableError` verdicts are
  exact.)

* **Upper bound.**  A coarse shortest path is inflated back into a
  genuine full-graph path: every coarse edge records the *base* edge
  realising its weight, and per-supernode local Dijkstras connect the
  entry node to the next crossing edge's tail inside each cluster.
  The inflated cost ``U`` is the cost of an actual path, so
  ``d_c <= d(u, v) <= U``.

A query is answered with the offset estimate ``off_out(u) + d_c +
off_in(v)`` clamped into ``[d_c, U]`` — whenever the certified gap
``(U - d_c) / d_c`` fits the configured ``error_bound``, any value in
that interval is provably within the bound of the truth.  When the gap
is too wide (or the corridor is broken by one-way clusters) the query
**refines exactly**: a full-graph Dijkstra pruned at ``U``.  The
relative-error property test therefore cannot flake — the bound is
enforced per answer, not hoped for on average.

``refine=True`` turns every query into the exact path (the
"exact-refinement mode" of the hierarchy): distances equal Dijkstra's
to the float, while readiness still costs only the coarsening plus the
inner oracle on the coarse graph.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Any, Iterable, Mapping

import networkx as nx

from ...exceptions import UnreachableError
from ..oracle.base import CacheInfo, DistanceOracle
from .coarsener import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_LEVELS,
    DEFAULT_STOP_RATIO,
    CoarseningHierarchy,
    MultilevelCoarsener,
)

_INF = float("inf")

#: Default certified relative error bound of estimated answers.
DEFAULT_ERROR_BOUND = 0.25

#: Default LRU bound on memoised (source, target) answers.
DEFAULT_PAIR_CACHE_SIZE = 200_000

#: LRU bound on memoised coarse shortest paths (per representative pair).
_COARSE_PATH_CACHE_SIZE = 4096

#: LRU bound on memoised intra-cluster legs (per (anchor, from, to)).
_LEG_CACHE_SIZE = 65_536

#: Sentinel distinguishing "not cached" from a cached unreachable verdict.
_MISSING = object()


class OverlayOracle(DistanceOracle):
    """Distance oracle projecting queries through a coarsening hierarchy.

    Parameters
    ----------
    graph:
        The *full* directed graph with ``travel_time`` weights (the
        oracle attaches to the network like any other backend).
    hierarchy:
        A prebuilt :class:`CoarseningHierarchy` over ``graph`` (e.g.
        loaded from the oracle cache); ``None`` builds one here from
        ``levels``/``alpha``/``beta``/``stop_ratio``.
    levels / alpha / beta / stop_ratio:
        Coarsening knobs when the hierarchy is built internally.
    error_bound:
        Certified relative error ceiling of estimated answers; queries
        whose certified gap exceeds it refine exactly.
    refine:
        ``True`` answers *every* query with the exact pruned Dijkstra
        (distances identical to plain Dijkstra); ``False`` (default)
        estimates within the bound and refines only when forced.
    inner_backend:
        Registry name of the oracle answering coarse-graph queries
        (``"ch"`` by default — contraction on a few thousand coarse
        nodes is seconds, which is the whole point).
    cache_size / witness_hop_limit / cache_dir / kernel / seed:
        Forwarded to the inner backend's factory.  ``cache_dir`` also
        lets the inner CH persist its coarse-graph contraction (keyed
        by the *coarse* graph's signature, so it reuses across runs).
    pair_cache_size:
        LRU bound on memoised final answers.
    """

    name = "overlay"

    def __init__(
        self,
        graph: nx.DiGraph,
        hierarchy: CoarseningHierarchy | None = None,
        levels: int = DEFAULT_LEVELS,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        stop_ratio: float = DEFAULT_STOP_RATIO,
        error_bound: float = DEFAULT_ERROR_BOUND,
        refine: bool = False,
        inner_backend: str = "ch",
        cache_size: int | None = None,
        witness_hop_limit: int | None = None,
        cache_dir: str | None = None,
        kernel: str | None = None,
        seed: int = 0,
        pair_cache_size: int | None = DEFAULT_PAIR_CACHE_SIZE,
    ) -> None:
        super().__init__(graph)
        if error_bound < 0:
            raise ValueError("error_bound must be non-negative")
        started = time.perf_counter()
        if hierarchy is None:
            hierarchy = MultilevelCoarsener(
                graph,
                levels=levels,
                alpha=alpha,
                beta=beta,
                stop_ratio=stop_ratio,
            ).build()
        self.hierarchy = hierarchy
        self.coarsen_levels = hierarchy.params.levels
        self.coarsen_alpha = hierarchy.params.alpha
        self.coarsen_beta = hierarchy.params.beta
        self.error_bound = float(error_bound)
        self.refine_mode = bool(refine)
        #: Set by the registry factory when the hierarchy came from the
        #: on-disk oracle cache instead of being coarsened here.
        self.hierarchy_from_cache = False
        self._pair_cache_size = pair_cache_size
        # `None` marks a memoised *unreachable* verdict.
        self._pair_cache: OrderedDict[tuple[Any, Any], float | None] = (
            OrderedDict()
        )
        # (rep_u, rep_v) -> coarse node path | None (unreachable).
        self._coarse_paths: OrderedDict[tuple[Any, Any], list | None] = (
            OrderedDict()
        )
        # (anchor, from, to) -> intra-cluster distance (inf = no path).
        self._legs: OrderedDict[tuple[Any, Any, Any], float] = OrderedDict()
        self._refined_queries = 0
        self._gap_sum = 0.0
        self._gap_count = 0
        self._gap_max = 0.0
        self._query_lock = threading.RLock()

        # Inner oracle over the coarse graph.  Deferred import: the
        # registry imports this module lazily from its factory, so a
        # top-level import back into the registry would be circular at
        # first use.
        from ..oracle.registry import create_oracle

        coarse = hierarchy.coarse_graph
        self.inner = create_oracle(
            inner_backend,
            coarse,
            cache_size=cache_size,
            witness_hop_limit=witness_hop_limit,
            cache_dir=cache_dir,
            seed=seed,
            kernel=kernel,
        )
        self.kernel = getattr(self.inner, "kernel", "dict")
        self.requested_kernel = kernel if kernel is not None else "auto"

        # Per-node offsets to/from the cluster anchor: the correction
        # terms of the estimate.  One local Dijkstra pair per cluster,
        # each linear in the cluster — O(V) overall.
        self._off_in: dict[Any, float] = {}
        self._off_out: dict[Any, float] = {}
        for anchor in coarse.nodes:
            from_anchor = hierarchy.local_distances(anchor, anchor)
            to_anchor = hierarchy.local_distances(anchor, anchor, reverse=True)
            for member in hierarchy.members(anchor):
                self._off_in[member] = from_anchor.get(member, _INF)
                self._off_out[member] = to_anchor.get(member, _INF)
        self._precompute_seconds = time.perf_counter() - started

    @property
    def precompute_seconds(self) -> float:
        """Wall-clock readiness cost: coarsening + inner oracle + offsets."""
        return self._precompute_seconds

    # ------------------------------------------------------------------
    # query interface
    # ------------------------------------------------------------------
    def travel_time(self, source: Any, target: Any) -> float:
        with self._query_lock:
            self._queries += 1
            if source == target:
                return 0.0
            key = (source, target)
            cached = self._pair_cache.get(key, _MISSING)
            if cached is not _MISSING:
                self._cache_hits += 1
                self._pair_cache.move_to_end(key)
                if cached is None:
                    raise UnreachableError(source, target)
                return cached  # type: ignore[return-value]
            self._cache_misses += 1
            value = self._answer(source, target)
            self._remember(key, value)
            if value is None:
                raise UnreachableError(source, target)
            return value

    def travel_times_from(self, source: Any) -> Mapping[Any, float]:
        """Exact one-to-all distances (one full-graph Dijkstra).

        A bounded estimate towards *every* node would need a certified
        upper bound per node — as expensive as the Dijkstra itself — so
        the full-map shapes stay exact and the overlay's win lives in
        ``travel_time`` / ``travel_times_many`` (the dispatch shapes).
        """
        with self._query_lock:
            self._queries += 1
            return self._dijkstra_from(source)

    def travel_times_to(self, target: Any) -> Mapping[Any, float]:
        """Exact all-to-one distances (one reverse Dijkstra); see above."""
        with self._query_lock:
            self._queries += 1
            return self._dijkstra_to(target)

    def travel_times_many(
        self, sources: Iterable[Any], targets: Iterable[Any]
    ) -> dict[tuple[Any, Any], float]:
        """Batched product queries, each within the certified bound.

        The representative pairs of the whole batch are pushed through
        the inner oracle's own ``travel_times_many`` first — one
        coarse-graph batch (RPHAST buckets under the ch inner backend)
        warms every ``d_c`` the per-pair pass needs — and the coarse
        path / intra-cluster leg memos amortise the upper-bound work
        across sources sharing a cluster.  Every answered pair honours
        ``error_bound`` exactly like ``travel_time`` (same code path).

        Stats contract: ``batched_queries`` counts attempted pairs,
        ``queries`` counts answered pairs.
        """
        with self._query_lock:
            source_list = list(dict.fromkeys(sources))
            target_list = list(dict.fromkeys(targets))
            self._batched_queries += len(source_list) * len(target_list)
            result: dict[tuple[Any, Any], float] = {}
            if not source_list or not target_list:
                return result
            rep = self.hierarchy.representative
            if not self.refine_mode:
                rep_sources = {rep(s) for s in source_list}
                rep_targets = {rep(t) for t in target_list}
                self.inner.travel_times_many(rep_sources, rep_targets)
            queries_before = self._queries
            for s_node in source_list:
                for t_node in target_list:
                    if s_node == t_node:
                        result[(s_node, t_node)] = 0.0
                        continue
                    key = (s_node, t_node)
                    cached = self._pair_cache.get(key, _MISSING)
                    if cached is not _MISSING:
                        self._cache_hits += 1
                        self._pair_cache.move_to_end(key)
                        if cached is not None:
                            result[key] = cached  # type: ignore[assignment]
                        continue
                    self._cache_misses += 1
                    value = self._answer(s_node, t_node)
                    self._remember(key, value)
                    if value is not None:
                        result[key] = value
            self._queries = queries_before + len(result)
            return result

    # ------------------------------------------------------------------
    # the bounded answer
    # ------------------------------------------------------------------
    def _answer(self, source: Any, target: Any) -> float | None:
        """Distance or ``None`` (unreachable), within the certified bound."""
        rep = self.hierarchy.representative
        ru, rv = rep(source), rep(target)
        if self.refine_mode or ru == rv:
            # Same-cluster pairs have d_c == 0: no useful certified gap,
            # and the pruned search is local anyway.
            return self._exact(source, target, None)
        try:
            d_c = self.inner.travel_time(ru, rv)
        except UnreachableError:
            # Coarse-unreachable implies base-unreachable (any base
            # path projects onto a coarse walk), so this verdict is
            # exact, not an estimate.
            return None
        upper = self._upper_bound(source, target, ru, rv)
        if upper == _INF:
            # One-way clusters broke the inflated corridor; no
            # certified upper bound exists along the coarse path.
            self._refined_queries += 1
            return self._exact(source, target, None)
        gap = (upper - d_c) / d_c if d_c > 0 else _INF
        if gap > self.error_bound:
            self._refined_queries += 1
            exact = self._exact(source, target, upper)
            if exact is None:
                # A finite ``upper`` is the cost of a real base path, so
                # the target is certainly reachable: an exhausted bounded
                # search can only mean the bound rounded a few ulps below
                # the true float distance (the corridor summed in a
                # different association order than Dijkstra's running
                # sum).  Rerun unbounded; the slack in ``_exact`` makes
                # this vanishingly rare.
                exact = self._exact(source, target, None)
            return exact
        estimate = self._off_out[source] + d_c + self._off_in[target]
        estimate = min(max(estimate, d_c), upper)
        self._gap_sum += gap
        self._gap_count += 1
        if gap > self._gap_max:
            self._gap_max = gap
        return estimate

    def _upper_bound(
        self, source: Any, target: Any, ru: Any, rv: Any
    ) -> float:
        """Cost of the inflated coarse shortest path (a real base path)."""
        path = self._coarse_path(ru, rv)
        if path is None:
            return _INF
        hierarchy = self.hierarchy
        total = 0.0
        cursor = source
        cluster = ru
        for a, b in zip(path, path[1:]):
            tail, head, weight = hierarchy.crossing(a, b)
            leg = self._leg(cluster, cursor, tail)
            if leg == _INF:
                return _INF
            total += leg + weight
            cursor = head
            cluster = b
        leg = self._leg(cluster, cursor, target)
        if leg == _INF:
            return _INF
        return total + leg

    def _coarse_path(self, ru: Any, rv: Any) -> list | None:
        """Memoised coarse shortest path between representatives."""
        key = (ru, rv)
        cached = self._coarse_paths.get(key, _MISSING)
        if cached is not _MISSING:
            self._coarse_paths.move_to_end(key)
            return cached  # type: ignore[return-value]
        path: list | None
        path = self.inner.shortest_path(ru, rv)
        if path is None:
            # Inner backend cannot reconstruct paths; Dijkstra on the
            # coarse graph is still tiny relative to the full graph.
            try:
                path = nx.dijkstra_path(
                    self.hierarchy.coarse_graph, ru, rv, weight="travel_time"
                )
            except nx.NetworkXNoPath:
                path = None
        self._coarse_paths[key] = path
        if len(self._coarse_paths) > _COARSE_PATH_CACHE_SIZE:
            self._coarse_paths.popitem(last=False)
            self._evictions += 1
        return path

    def _leg(self, anchor: Any, start: Any, end: Any) -> float:
        """Memoised intra-cluster distance ``start -> end`` within ``anchor``."""
        if start == end:
            return 0.0
        key = (anchor, start, end)
        cached = self._legs.get(key)
        if cached is not None:
            self._legs.move_to_end(key)
            return cached
        value = self.hierarchy.local_distances(anchor, start).get(end, _INF)
        self._legs[key] = value
        if len(self._legs) > _LEG_CACHE_SIZE:
            self._legs.popitem(last=False)
            self._evictions += 1
        return value

    def _exact(
        self, source: Any, target: Any, upper: float | None
    ) -> float | None:
        """Full-graph Dijkstra, early-stopped at the target.

        ``upper`` (a certified upper bound when available) prunes the
        frontier: labels beyond it can never be the answer because the
        true distance is known to be <= ``upper``.  The bound gets a few
        ulps of slack: it was assembled from path legs in a different
        association order than Dijkstra's running sum, so when the
        corridor *is* the shortest path the two floats can disagree by
        rounding alone — without slack the search would prune its only
        path and wrongly report unreachable.
        """
        self._pp_searches += 1
        graph = self._graph
        bound = _INF if upper is None else upper * (1.0 + 1e-9)
        dist: dict[Any, float] = {source: 0.0}
        heap: list[tuple[float, Any]] = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist.get(u, _INF):
                continue
            if u == target:
                return d
            for v in graph.successors(u):
                nd = d + float(graph[u][v]["travel_time"])
                if nd <= bound and nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return None

    # ------------------------------------------------------------------
    # cache management and instrumentation
    # ------------------------------------------------------------------
    def _remember(self, key: tuple[Any, Any], value: float | None) -> None:
        self._pair_cache[key] = value
        if (
            self._pair_cache_size is not None
            and len(self._pair_cache) > self._pair_cache_size
        ):
            self._pair_cache.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        with self._query_lock:
            self._pair_cache.clear()
            self._coarse_paths.clear()
            self._legs.clear()
            self._drop_adjacency()
            self.inner.clear()

    def cache_info(self) -> CacheInfo:
        with self._query_lock:
            return CacheInfo(
                hits=self._cache_hits,
                misses=self._cache_misses,
                maxsize=self._pair_cache_size,
                currsize=len(self._pair_cache),
            )

    def _extra_stats(self) -> dict[str, float]:
        with self._query_lock:
            coarse = self.hierarchy.coarse_graph
            base_nodes = self._graph.number_of_nodes()
            coarse_nodes = coarse.number_of_nodes()
            return {
                "levels_built": float(self.hierarchy.levels_built),
                "coarse_nodes": float(coarse_nodes),
                "coarse_edges": float(coarse.number_of_edges()),
                "compression_ratio": (
                    base_nodes / coarse_nodes if coarse_nodes else 0.0
                ),
                "refined_queries": float(self._refined_queries),
                "projection_error_max": self._gap_max,
                "projection_error_mean": (
                    self._gap_sum / self._gap_count if self._gap_count else 0.0
                ),
                "exact_mode": float(self.refine_mode),
                "hierarchy_from_cache": float(self.hierarchy_from_cache),
                "inner_precompute_seconds": float(
                    getattr(self.inner, "precompute_seconds", 0.0)
                ),
            }
