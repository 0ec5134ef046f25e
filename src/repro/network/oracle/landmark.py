"""ALT backend: landmark lower bounds driving bidirectional A*.

The classic ALT technique (Goldberg & Harrelson, "Computing the Shortest
Path: A* Search Meets Graph Theory"):

1. pick ``k`` landmarks spread over the graph (farthest-point selection
   here), and precompute, for every landmark ``l``, the full distance
   vectors ``d(l, .)`` (forward Dijkstra) and ``d(., l)`` (Dijkstra on
   the reversed graph);
2. the triangle inequality then gives, for any pair ``(u, v)``, the
   lower bound ``d(u, v) >= max_l max(d(u,l) - d(v,l), d(l,v) - d(l,u))``;
3. use those bounds as A* potentials for goal-directed point-to-point
   search.

The query here is a *bidirectional* Dijkstra over reduced edge weights:
with the consistent potential ``p(v) = (pi_t(v) - pi_s(v)) / 2`` (where
``pi_t``/``pi_s`` are the ALT bounds towards the target / from the
source) both the forward search from ``s`` and the backward search from
``t`` see the same non-negative reduced weight on every edge, so the
standard bidirectional stopping rule ``top_f + top_b >= mu`` applies and
the true distance is recovered as ``mu + p(s) - p(t)``.

Because the final distance is assembled from two half-paths in reduced
space, results can differ from a monolithic Dijkstra in the last few
ulps; callers that need bitwise identity should use the ``lazy`` or
``matrix`` backends.  A bounded LRU of point-to-point results makes the
heavily repeated queries of the dispatch hot path O(1).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Iterable, Mapping

import networkx as nx

from ...exceptions import UnreachableError
from .base import CacheInfo, DistanceOracle

_INF = float("inf")

#: Default number of landmarks (the ALT literature uses 8-16).
DEFAULT_NUM_LANDMARKS = 8

#: Default bound on the point-to-point result cache.
DEFAULT_PAIR_CACHE_SIZE = 200_000

#: Above this many unanswered sources towards one target, a single
#: backward Dijkstra from the target beats per-pair ALT searches.
_MANY_TO_ONE_CUTOFF = 4


class LandmarkOracle(DistanceOracle):
    """Point-to-point oracle using landmark (ALT) bidirectional A*.

    Parameters
    ----------
    graph:
        Directed graph with ``travel_time`` edge weights.
    num_landmarks:
        How many landmarks to select (clamped to the node count).
    pair_cache_size:
        LRU bound on memoised point-to-point results (``None`` =
        unbounded).
    seed:
        Unused today (selection is deterministic farthest-point) but
        kept so configs can thread their seed through uniformly.
    """

    name = "landmark"

    def __init__(
        self,
        graph: nx.DiGraph,
        num_landmarks: int = DEFAULT_NUM_LANDMARKS,
        pair_cache_size: int | None = DEFAULT_PAIR_CACHE_SIZE,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        if num_landmarks < 1:
            raise ValueError("num_landmarks must be at least 1")
        del seed
        #: The requested landmark count (before clamping to the node
        #: count); used to decide whether a cached oracle can be reused.
        self.requested_landmarks = num_landmarks
        self._pair_cache_size = pair_cache_size
        # `None` marks a memoised *unreachable* verdict.
        self._pair_cache: OrderedDict[tuple[int, int], float | None] = OrderedDict()

        started = time.perf_counter()
        self._nodes: list[int] = sorted(graph.nodes)
        self._index: dict[int, int] = {
            node: idx for idx, node in enumerate(self._nodes)
        }
        n = len(self._nodes)
        # Plain adjacency lists: much faster to scan in the inner loop
        # than networkx's dict-of-dicts.
        self._fwd: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._rev: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, data in graph.edges(data=True):
            w = float(data["travel_time"])
            self._fwd[self._index[u]].append((self._index[v], w))
            self._rev[self._index[v]].append((self._index[u], w))

        self._landmarks: list[int] = []  # node indices
        self._dist_from: list[list[float]] = []  # d(landmark, .)
        self._dist_to: list[list[float]] = []  # d(., landmark)
        # ALT bounds are only consistent when every node reaches every
        # landmark and vice versa, i.e. on strongly connected graphs
        # (real road networks are).  Otherwise fall back to zero
        # potentials — plain bidirectional Dijkstra, slower but exact.
        if n > 0 and nx.is_strongly_connected(graph):
            self._select_landmarks(min(num_landmarks, n))
        self._precompute_seconds = time.perf_counter() - started

    @property
    def landmarks(self) -> list[int]:
        """Node ids of the selected landmarks."""
        return [self._nodes[idx] for idx in self._landmarks]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def travel_time(self, source: int, target: int) -> float:
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
            return cached
        self._cache_misses += 1
        distance = self._bidirectional_alt(self._index[source], self._index[target])
        self._remember(key, distance)
        if distance is None:
            raise UnreachableError(source, target)
        return distance

    def travel_times_from(self, source: int) -> Mapping[int, float]:
        # Full SSSP is not what this backend is specialised for; answer
        # it directly (uncached) so correctness is preserved.
        self._queries += 1
        return self._dijkstra_from(source)

    def travel_times_to(self, target: int) -> Mapping[int, float]:
        """All travel times to ``target`` via one backward Dijkstra.

        Runs over the reverse adjacency lists that already exist for the
        landmark tables, so no extra precomputation is needed.
        """
        self._queries += 1
        distances = self._sssp(self._index[target], self._rev, reverse=True)
        return {
            self._nodes[idx]: dist
            for idx, dist in enumerate(distances)
            if dist != _INF
        }

    def travel_times_many(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> dict[tuple[int, int], float]:
        """Batched product queries with many-to-one backward batching.

        Pairs already memoised are answered from the pair cache.  When a
        target still has several unanswered sources, one *backward*
        search from the target over the reverse adjacency settles all of
        them together (stopping as soon as the last requested source is
        reached) instead of running one goal-directed ALT search per
        pair; the results are folded back into the pair cache.  Small
        remainders keep using the per-pair ALT search, which explores
        far less of the graph.
        """
        source_list = list(dict.fromkeys(sources))
        target_list = list(dict.fromkeys(targets))
        self._batched_queries += len(source_list) * len(target_list)
        result: dict[tuple[int, int], float] = {}
        for target in target_list:
            pending: list[int] = []
            for source in source_list:
                if source == target:
                    result[(source, target)] = 0.0
                    continue
                key = (source, target)
                cached = self._pair_cache.get(key, _MISSING)
                if cached is not _MISSING:
                    self._cache_hits += 1
                    self._pair_cache.move_to_end(key)
                    if cached is not None:
                        result[key] = cached
                else:
                    pending.append(source)
            if not pending:
                continue
            self._cache_misses += len(pending)
            if len(pending) > _MANY_TO_ONE_CUTOFF:
                found = self._backward_search(target, pending)
                for source in pending:
                    value = found.get(source)
                    self._remember((source, target), value)
                    if value is not None:
                        result[(source, target)] = value
            else:
                for source in pending:
                    distance = self._bidirectional_alt(
                        self._index[source], self._index[target]
                    )
                    self._remember((source, target), distance)
                    if distance is not None:
                        result[(source, target)] = distance
        self._queries += len(result)
        return result

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._pair_cache.clear()
        self._drop_adjacency()

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            maxsize=self._pair_cache_size,
            currsize=len(self._pair_cache),
        )

    def _extra_stats(self) -> dict[str, float]:
        return {"landmarks": float(len(self._landmarks))}

    # ------------------------------------------------------------------
    # precomputation
    # ------------------------------------------------------------------
    def _select_landmarks(self, count: int) -> None:
        """Deterministic farthest-point landmark selection.

        The first landmark is the node farthest (by forward distance)
        from the smallest node id; each later landmark maximises its
        minimum distance to the already chosen set.  Unreachable nodes
        never become landmarks of an earlier component's run but still
        get usable (zero) bounds, which only costs tightness, never
        correctness.
        """
        start = 0
        first = self._farthest(self._sssp(start, self._fwd), fallback=start)
        self._add_landmark(first)
        min_dist = list(self._dist_from[0])
        while len(self._landmarks) < count:
            candidate = self._farthest(min_dist, fallback=None)
            if candidate is None or candidate in self._landmarks:
                break
            self._add_landmark(candidate)
            newest = self._dist_from[-1]
            for idx in range(len(min_dist)):
                if newest[idx] < min_dist[idx]:
                    min_dist[idx] = newest[idx]

    def _add_landmark(self, idx: int) -> None:
        self._landmarks.append(idx)
        self._dist_from.append(self._sssp(idx, self._fwd))
        self._dist_to.append(self._sssp(idx, self._rev, reverse=True))

    @staticmethod
    def _farthest(distances: list[float], fallback: int | None) -> int | None:
        best, best_dist = fallback, -1.0
        for idx, dist in enumerate(distances):
            if dist != _INF and dist > best_dist:
                best, best_dist = idx, dist
        return best

    def _sssp(
        self,
        start: int,
        adjacency: list[list[tuple[int, float]]],
        reverse: bool = False,
    ) -> list[float]:
        """Array-based Dijkstra over a plain adjacency list (counted)."""
        if reverse:
            self._reverse_sssp_runs += 1
        else:
            self._sssp_runs += 1
        dist = [_INF] * len(self._nodes)
        dist[start] = 0.0
        heap: list[tuple[float, int]] = [(0.0, start)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return dist

    # ------------------------------------------------------------------
    # many-to-one backward search
    # ------------------------------------------------------------------
    def _backward_search(
        self, target: int, source_nodes: list[int]
    ) -> dict[int, float]:
        """Backward Dijkstra from ``target`` settling the given sources.

        Expands the reverse adjacency from the target and stops as soon
        as every requested source is settled; sources that remain
        unsettled once the frontier is exhausted are unreachable.
        Returns ``source node -> d(source, target)`` for the settled
        subset.
        """
        self._reverse_sssp_runs += 1
        remaining = {self._index[node] for node in source_nodes}
        found: dict[int, float] = {}
        start = self._index[target]
        dist = [_INF] * len(self._nodes)
        dist[start] = 0.0
        heap: list[tuple[float, int]] = [(0.0, start)]
        while heap and remaining:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if u in remaining:
                remaining.discard(u)
                found[self._nodes[u]] = d
            for v, w in self._rev[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return found

    # ------------------------------------------------------------------
    # ALT bidirectional A*
    # ------------------------------------------------------------------
    def _bidirectional_alt(self, s: int, t: int) -> float | None:
        """Bidirectional Dijkstra over reduced weights; ``None`` = unreachable."""
        self._pp_searches += 1
        potential = self._make_potential(s, t)
        p_s, p_t = potential(s), potential(t)

        dist_f: dict[int, float] = {s: 0.0}
        dist_b: dict[int, float] = {t: 0.0}
        heap_f: list[tuple[float, int]] = [(0.0, s)]
        heap_b: list[tuple[float, int]] = [(0.0, t)]
        mu = _INF

        while heap_f and heap_b:
            if heap_f[0][0] + heap_b[0][0] >= mu:
                break
            # Expand the side with the smaller frontier key.
            forward = heap_f[0][0] <= heap_b[0][0]
            heap, dist, other = (
                (heap_f, dist_f, dist_b) if forward else (heap_b, dist_b, dist_f)
            )
            adjacency = self._fwd if forward else self._rev
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            p_u = potential(u)
            for v, w in adjacency[u]:
                p_v = potential(v)
                # Reduced weight; identical for both directions and
                # non-negative by feasibility of the ALT bounds.  Guard
                # against float noise driving it slightly negative.
                reduced = (w - p_u + p_v) if forward else (w - p_v + p_u)
                if reduced < 0.0:
                    reduced = 0.0
                nd = d + reduced
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
                    if v in other:
                        total = nd + other[v]
                        if total < mu:
                            mu = total
        if mu == _INF:
            return None
        # Undo the potential shift: mu = d(s,t) - p(s) + p(t).
        return mu + p_s - p_t

    def _make_potential(self, s: int, t: int):
        """Consistent bidirectional potential ``p(v) = (pi_t(v) - pi_s(v)) / 2``."""
        dist_from, dist_to = self._dist_from, self._dist_to
        from_s = [table[s] for table in dist_from]
        to_s = [table[s] for table in dist_to]
        from_t = [table[t] for table in dist_from]
        to_t = [table[t] for table in dist_to]
        num = len(self._landmarks)
        if num == 0:
            return lambda v: 0.0
        cache: dict[int, float] = {}

        def potential(v: int) -> float:
            value = cache.get(v)
            if value is not None:
                return value
            pi_t = 0.0  # lower bound on d(v, t)
            pi_s = 0.0  # lower bound on d(s, v)
            for lm in range(num):
                d_from_v = dist_from[lm][v]
                d_to_v = dist_to[lm][v]
                # d(v, t) >= d(v, l) - d(t, l) and >= d(l, t) - d(l, v)
                bound = d_to_v - to_t[lm]
                if bound > pi_t and bound != _INF:
                    pi_t = bound
                bound = from_t[lm] - d_from_v
                if bound > pi_t and bound != _INF:
                    pi_t = bound
                # d(s, v) >= d(l, v) - d(l, s) and >= d(s, l) - d(v, l)
                bound = d_from_v - from_s[lm]
                if bound > pi_s and bound != _INF:
                    pi_s = bound
                bound = to_s[lm] - d_to_v
                if bound > pi_s and bound != _INF:
                    pi_s = bound
            value = 0.5 * (pi_t - pi_s)
            cache[v] = value
            return value

        return potential

    # ------------------------------------------------------------------
    # pair-cache internals
    # ------------------------------------------------------------------
    def _remember(self, key: tuple[int, int], distance: float | None) -> None:
        self._pair_cache[key] = distance
        if (
            self._pair_cache_size is not None
            and len(self._pair_cache) > self._pair_cache_size
        ):
            self._pair_cache.popitem(last=False)
            self._evictions += 1


#: Sentinel distinguishing "not cached" from a cached unreachable verdict.
_MISSING = object()
