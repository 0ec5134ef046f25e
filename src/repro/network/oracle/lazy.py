"""Cached-Dijkstra backend: the seed behaviour with a bounded cache.

This is what ``RoadNetwork`` always did — run a full single-source
Dijkstra the first time a source is queried and answer every later query
from that source with a dictionary lookup — except the per-source cache
is now an LRU bounded by ``max_sources``, so city-scale workloads that
touch many distinct sources no longer grow the cache without limit.

On top of the forward per-source cache the backend keeps a *reverse*
per-target cache: one Dijkstra on the reversed graph from a target
yields ``source -> d(source, target)`` for every source at once, which
is exactly the many-sources-to-one-target shape of the dispatch hot
path ("how far is each idle worker from this pickup?").  A batched
query picks whichever direction needs fewer new Dijkstra runs.
"""

from __future__ import annotations

from collections import OrderedDict
from math import inf
from typing import Iterable, Mapping, Sequence

import networkx as nx

from ...exceptions import UnreachableError
from .base import DistanceOracle

#: Default bound on the number of cached single-source distance maps.
DEFAULT_MAX_SOURCES = 1024


class LazyDijkstraOracle(DistanceOracle):
    """On-demand single-source Dijkstra with an LRU-bounded result cache.

    Parameters
    ----------
    graph:
        Directed graph with ``travel_time`` edge weights.
    max_sources:
        Maximum number of source distance maps kept alive, and of
        reverse per-target maps, each; ``None`` means unbounded (the
        seed behaviour).
    """

    name = "lazy"

    def __init__(
        self,
        graph: nx.DiGraph,
        max_sources: int | None = DEFAULT_MAX_SOURCES,
    ) -> None:
        super().__init__(graph)
        if max_sources is not None and max_sources < 1:
            raise ValueError("max_sources must be at least 1 (or None)")
        #: LRU bound of the forward and of the reverse map cache, each
        #: (the registry maps ``cache_size`` onto it).
        self.max_sources = max_sources
        self._cache: OrderedDict[int, dict[int, float]] = OrderedDict()
        self._rcache: OrderedDict[int, dict[int, float]] = OrderedDict()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def travel_time(self, source: int, target: int) -> float:
        self._queries += 1
        if source == target:
            return 0.0
        distances = self._cache.get(source)
        if distances is not None:
            self._cache_hits += 1
            self._cache.move_to_end(source)
            if target not in distances:
                raise UnreachableError(source, target)
            return distances[target]
        # A reverse map built for this target answers the pair without a
        # new forward Dijkstra (the dispatch hot path primes these).
        arrivals = self._rcache.get(target)
        if arrivals is not None:
            self._cache_hits += 1
            self._rcache.move_to_end(target)
            if source not in arrivals:
                raise UnreachableError(source, target)
            return arrivals[source]
        distances = self._distances_from(source)
        if target not in distances:
            raise UnreachableError(source, target)
        return distances[target]

    def travel_times_to(self, target: int) -> Mapping[int, float]:
        self._queries += 1
        return self._arrivals_to(target)

    def travel_times_many(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> dict[tuple[int, int], float]:
        source_list = list(dict.fromkeys(sources))
        target_list = list(dict.fromkeys(targets))
        self._batched_queries += len(source_list) * len(target_list)
        result: dict[tuple[int, int], float] = {}
        if not source_list or not target_list:
            return result
        # Answer the block in whichever direction needs fewer new
        # Dijkstra runs: per-source forward maps or per-target reverse
        # maps.  The canonical dispatch batch (many workers, one pickup)
        # costs a single reverse run instead of one forward run per
        # distinct worker location.
        missing_forward = sum(1 for s in source_list if s not in self._cache)
        missing_reverse = sum(1 for t in target_list if t not in self._rcache)
        if missing_reverse < missing_forward:
            for target in target_list:
                arrivals = self._arrivals_to(target)
                for source in source_list:
                    if source == target:
                        result[(source, target)] = 0.0
                    elif source in arrivals:
                        result[(source, target)] = arrivals[source]
        else:
            for source in source_list:
                distances = self._distances_from(source)
                for target in target_list:
                    if source == target:
                        result[(source, target)] = 0.0
                    elif target in distances:
                        result[(source, target)] = distances[target]
        self._queries += len(result)
        return result

    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """Dense leg times read straight off the cached distance maps.

        The block runs Dijkstras in the direction :meth:`travel_times_many`
        would pick, so the same maps exist afterwards.  Each row is then
        priced by the rule scalar :meth:`travel_time` follows: off the
        source's forward map when it is cached, else off the targets'
        reverse maps.  The two may differ in the last bit, which is why
        the rule and not the block's direction prices a cell.
        ``queries`` and ``batched_queries`` count every cell, and each
        map consulted counts one cache hit.

        Maps are touched in argument order, so LRU *recency* inside one
        call follows argument order rather than the order scalar reads
        would have had.  That can only change an answer's last bit once
        the LRU is full and evicting; a call naming more nodes than the
        LRU holds takes the generic two-step instead, whose cells are
        scalar reads.
        """
        bound = self.max_sources
        if bound is not None and max(len(sources), len(targets)) > bound:
            return super().leg_matrix(sources, targets)
        cells = len(sources) * len(targets)
        if not cells:
            return [[] for _ in sources]
        self._batched_queries += cells
        self._queries += cells
        cache = self._cache
        missing_forward = {s for s in sources if s not in cache}
        missing_reverse = {t for t in targets if t not in self._rcache}
        forward = len(missing_reverse) >= len(missing_forward)
        arrival_maps = [] if forward else [self._arrivals_to(t) for t in targets]
        rows: list[list[float]] = []
        for source in sources:
            distances = cache.get(source)
            if distances is not None:
                self._cache_hits += 1
                cache.move_to_end(source)
            elif forward:
                distances = self._distances_from(source)
            else:
                rows.append([arrivals.get(source, inf) for arrivals in arrival_maps])
                continue
            rows.append([distances.get(target, inf) for target in targets])
        return rows

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._cache.clear()
        self._rcache.clear()
        self._drop_adjacency()

    def _extra_stats(self) -> dict[str, float]:
        return {
            "forward_cached_sources": float(len(self._cache)),
            "reverse_cached_targets": float(len(self._rcache)),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _distances_from(self, source: int) -> dict[int, float]:
        cached = self._cache.get(source)
        if cached is not None:
            self._cache_hits += 1
            self._cache.move_to_end(source)
            return cached
        self._cache_misses += 1
        distances = self._dijkstra_from(source)
        self._cache[source] = distances
        if self.max_sources is not None and len(self._cache) > self.max_sources:
            self._cache.popitem(last=False)
            self._evictions += 1
        return distances

    def _arrivals_to(self, target: int) -> dict[int, float]:
        cached = self._rcache.get(target)
        if cached is not None:
            self._cache_hits += 1
            self._rcache.move_to_end(target)
            return cached
        self._cache_misses += 1
        arrivals = self._dijkstra_to(target)
        self._rcache[target] = arrivals
        if self.max_sources is not None and len(self._rcache) > self.max_sources:
            self._rcache.popitem(last=False)
            self._evictions += 1
        return arrivals
