"""Cached-Dijkstra backend: the seed behaviour with a bounded cache.

This is what ``RoadNetwork`` always did — run a full single-source
Dijkstra the first time a source is queried and answer every later query
from that source out of the cached result — except the per-source cache
is an LRU bounded by ``max_sources``, so city-scale workloads that
touch many distinct sources no longer grow the cache without limit.

On top of the forward per-source cache the backend keeps a *reverse*
per-target cache: one Dijkstra against the edges from a target yields
``d(source, target)`` for every source at once, which is exactly the
many-sources-to-one-target shape of the dispatch hot path ("how far is
each idle worker from this pickup?").  A ``leg_matrix`` block picks
whichever direction needs fewer new Dijkstra runs.

Both caches hold *rows*: one packed ``array('d')`` per search, cell
``i`` for the ``i``-th node in sorted-id order and ``inf`` where the
search did not reach, so a cell read is ``row[index[node]]``.  On the
484-node CDC city a row is 3.9 KB against 29.4 KB for the node-keyed
dict it replaced, with the same floats.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from math import inf
from typing import Sequence, TYPE_CHECKING

from ...exceptions import UnreachableError
from .base import DistanceOracle

if TYPE_CHECKING:  # pragma: no cover
    from ..graph import RoadGraph

#: Default bound on the number of cached single-source distance rows.
DEFAULT_MAX_SOURCES = 1024


class LazyDijkstraOracle(DistanceOracle):
    """On-demand single-source Dijkstra with an LRU-bounded result cache.

    Parameters
    ----------
    graph:
        The road graph to answer for.
    max_sources:
        Maximum number of forward per-source distance rows kept alive,
        and of reverse per-target rows, each; ``None`` means unbounded (the
        seed behaviour).
    """

    name = "lazy"

    def __init__(
        self,
        graph: "RoadGraph",
        max_sources: int | None = DEFAULT_MAX_SOURCES,
    ) -> None:
        super().__init__(graph)
        if max_sources is not None and max_sources < 1:
            raise ValueError("max_sources must be at least 1 (or None)")
        #: LRU bound of the forward and of the reverse row cache, each.
        self.max_sources = max_sources
        # source -> its forward row, target -> its reverse row (see
        # ``DistanceOracle._dijkstra_from`` / ``_dijkstra_to``).
        self._cache: OrderedDict[int, array] = OrderedDict()
        self._rcache: OrderedDict[int, array] = OrderedDict()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def travel_time(self, source: int, target: int) -> float:
        self._queries += 1
        if source == target:
            return 0.0
        row = self._cache.get(source)
        if row is not None:
            self._cache_hits += 1
            self._cache.move_to_end(source)
            seconds = row[self._index[target]]
        else:
            # A reverse row built for this target answers the pair without
            # a new forward Dijkstra (the dispatch hot path primes these).
            row = self._rcache.get(target)
            if row is not None:
                self._cache_hits += 1
                self._rcache.move_to_end(target)
                seconds = row[self._index[source]]
            else:
                seconds = self._distances_from(source)[self._index[target]]
        if seconds == inf:
            raise UnreachableError(source, target)
        return seconds

    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """Dense leg times read straight off the cached distance rows.

        The block runs Dijkstras in whichever direction needs fewer new
        ones: per-source forward rows or per-target reverse rows, so the
        canonical dispatch block (many workers, one pickup) costs a
        single reverse run instead of one forward run per distinct
        worker location.  Each row of the answer is then priced by the
        rule scalar :meth:`travel_time` follows: off the source's forward
        row when it is cached, else off the targets' reverse rows.  The
        two may differ in the last bit, which is why the rule and not the
        block's direction prices a cell.  ``queries`` and
        ``batched_queries`` count every cell, and each row consulted
        counts one cache hit.

        Rows are touched in argument order, so LRU *recency* inside one
        call follows argument order rather than the order scalar reads
        would have had.  That can only change an answer's last bit once
        the LRU is full and evicting; a call naming more nodes than the
        LRU holds runs its searches first, one per label, and then reads
        every cell as a scalar.
        """
        cells = len(sources) * len(targets)
        if not cells:
            return [[] for _ in sources]
        bound = self.max_sources
        if bound is not None and max(len(sources), len(targets)) > bound:
            self._search_rows(sources, targets)
            return super().leg_matrix(sources, targets)
        self._batched_queries += cells
        self._queries += cells
        cache = self._cache
        index = self._index
        forward = self._forward_first(sources, targets)
        arrival_rows = [] if forward else [self._arrivals_to(t) for t in targets]
        columns = [index[target] for target in targets]
        rows: list[list[float]] = []
        for source in sources:
            distances = cache.get(source)
            if distances is not None:
                self._cache_hits += 1
                cache.move_to_end(source)
            elif forward:
                distances = self._distances_from(source)
            else:
                column = index[source]
                rows.append([arrivals[column] for arrivals in arrival_rows])
                continue
            rows.append([distances[column] for column in columns])
        return rows

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._cache.clear()
        self._rcache.clear()

    def _extra_stats(self) -> dict[str, float]:
        return {
            "forward_cached_sources": float(len(self._cache)),
            "reverse_cached_targets": float(len(self._rcache)),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _forward_first(self, sources: Sequence[int], targets: Sequence[int]) -> bool:
        """Whether a block needs no more new forward rows than reverse ones."""
        missing_forward = {s for s in sources if s not in self._cache}
        missing_reverse = {t for t in targets if t not in self._rcache}
        return len(missing_reverse) >= len(missing_forward)

    def warm(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Run the searches :meth:`leg_matrix` would for this block; read no cell.

        Rows are built in the block's direction and argument order, and
        a reverse block also moves the sources' cached forward rows to
        the recent end, as the block's reads would: the caches end as
        the block leaves them.  A block too big for the caches reads its
        cells as scalars, which may search again, so it is warmed by
        running it.
        """
        if not sources or not targets:
            return
        bound = self.max_sources
        if bound is not None and max(len(sources), len(targets)) > bound:
            super().warm(sources, targets)
        elif self._forward_first(sources, targets):
            for source in sources:
                self._distances_from(source)
        else:
            for target in targets:
                self._arrivals_to(target)
            cache = self._cache
            for source in sources:
                if source in cache:
                    cache.move_to_end(source)

    def _search_rows(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Build a block's rows, one search per missing label, in the
        direction :meth:`_forward_first` picks."""
        if self._forward_first(sources, targets):
            for source in dict.fromkeys(sources):
                self._distances_from(source)
        else:
            for target in dict.fromkeys(targets):
                self._arrivals_to(target)

    def _distances_from(self, source: int) -> array:
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

    def _arrivals_to(self, target: int) -> array:
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
