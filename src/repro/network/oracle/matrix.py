"""Dense many-to-many matrix backend with batched refresh.

Dispatch workloads query travel times between a comparatively small,
slowly growing set of *active* nodes — order pickups/dropoffs and worker
locations — over and over.  ``MatrixOracle`` precomputes one distance
row per active source (a dense ``float64`` numpy vector over *all*
nodes, a view of the packed row the Dijkstra kernel returns, so any
target is an O(1) lookup) and answers every query with two index
lookups.  Columns follow the sorted node ids, the kernel's own row
order.

Sources that were not part of the initial active set are collected and
materialised in *batched refreshes*: a ``travel_times_many`` call with
ten unseen sources triggers one refresh that builds all ten rows, not
ten separate cache misses sprinkled through the hot path.  A
many-to-one ask whose sources have no rows reads one *reverse* row
instead — the kernel's search against the edges from the target, kept
as its packed ``array('d')`` in an LRU — without materialising rows.

Memory is ``rows x num_nodes x 8`` bytes — for the city-scale synthetic
networks of this reproduction (hundreds of nodes, hundreds of active
nodes) that is a few megabytes; for very large graphs prefer the
``ch`` or ``lazy`` backend.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import OrderedDict
from typing import Iterable, Mapping

import networkx as nx
import numpy as np

from ...exceptions import UnreachableError
from .base import DistanceOracle

#: Bound on memoised reverse arrival rows (each is O(num_nodes)).
DEFAULT_MAX_REVERSE_ROWS = 1024


class MatrixOracle(DistanceOracle):
    """Precomputed distance rows over the active node set.

    Parameters
    ----------
    graph:
        Directed graph with ``travel_time`` edge weights.
    nodes:
        Initial active sources to precompute rows for.  ``None`` means
        every node of the graph (fine for small/medium networks).
        Every row ever built is kept: that is the point of this backend.
    """

    name = "matrix"

    def __init__(
        self,
        graph: nx.DiGraph,
        nodes: Iterable[int] | None = None,
    ) -> None:
        super().__init__(graph)
        started = time.perf_counter()
        self._rows: dict[int, np.ndarray] = {}
        # Reverse arrival rows (target -> d(node, target) per node index)
        # built for many-to-one batches whose sources have no rows;
        # memoised (LRU bounded, each row is O(V)) so repeated dispatch
        # probes against the same pickup do not rerun the reverse
        # Dijkstra.
        self._reverse_rows: OrderedDict[int, array] = OrderedDict()
        self._refreshes = 0
        initial = list(dict.fromkeys(nodes)) if nodes is not None else list(
            self._nodes
        )
        self._build_rows([node for node in initial if node in self._index])
        self._precompute_seconds = time.perf_counter() - started

    @property
    def num_rows(self) -> int:
        """Number of active sources with a materialised row."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def travel_time(self, source: int, target: int) -> float:
        self._queries += 1
        if source == target:
            return 0.0
        row = self._rows.get(source)
        if row is None:
            self._cache_misses += 1
            self._build_rows([source])
            row = self._rows[source]
        else:
            self._cache_hits += 1
        value = row[self._index[target]]
        if math.isinf(value):
            raise UnreachableError(source, target)
        return float(value)

    def travel_times_to(self, target: int) -> Mapping[int, float]:
        """All travel times to ``target``, read down the target's column.

        When every graph node has a materialised row this is a pure
        column scan over precomputed data.  With partial row coverage a
        single reverse Dijkstra fills in the sources without rows — it
        does *not* materialise their rows, so a many-to-one probe does
        not inflate the row store.
        """
        self._queries += 1
        idx = self._index[target]
        rows = self._rows
        if len(rows) == len(self._nodes):
            self._cache_hits += 1
            return {
                source: float(value)
                for source in self._nodes
                if not math.isinf(value := rows[source][idx])
            }
        arrivals = self._reachable(self._arrivals_to(target))
        for source, row in rows.items():
            if not math.isinf(row[idx]):
                arrivals[source] = float(row[idx])
        return arrivals

    def travel_times_many(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> dict[tuple[int, int], float]:
        source_list = list(dict.fromkeys(sources))
        target_list = list(dict.fromkeys(targets))
        self._batched_queries += len(source_list) * len(target_list)
        if len(target_list) == 1 and len(source_list) > 1:
            return self._many_to_one(source_list, target_list[0])
        # Batched refresh: materialise every missing source in one go.
        missing = [source for source in source_list if source not in self._rows]
        if missing:
            self._cache_misses += len(missing)
            self._build_rows(missing)
        self._cache_hits += len(source_list) - len(missing)
        columns = [self._index[target] for target in target_list]
        result: dict[tuple[int, int], float] = {}
        for source in source_list:
            row = self._rows[source]
            for target, idx in zip(target_list, columns):
                if source == target:
                    result[(source, target)] = 0.0
                    continue
                value = row[idx]
                if not math.isinf(value):
                    result[(source, target)] = float(value)
        self._queries += len(result)
        return result

    def _many_to_one(
        self, source_list: list[int], target: int
    ) -> dict[tuple[int, int], float]:
        """Answer a many-sources-to-one-target batch by column reads.

        Sources with a materialised row are read down the target's
        column; the remainder is settled with one reverse Dijkstra
        instead of one forward Dijkstra (row build) per missing source.
        """
        idx = self._index[target]
        missing = [
            source
            for source in source_list
            if source not in self._rows and source != target
        ]
        arrivals = self._arrivals_to(target) if missing else None
        self._cache_hits += len(source_list) - len(missing)
        result: dict[tuple[int, int], float] = {}
        for source in source_list:
            if source == target:
                result[(source, target)] = 0.0
                continue
            row = self._rows.get(source)
            if row is not None:
                value = row[idx]
                if not math.isinf(value):
                    result[(source, target)] = float(value)
            elif arrivals is not None:
                value = arrivals[self._index[source]]
                if value != math.inf:
                    result[(source, target)] = value
        self._queries += len(result)
        return result

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every row; they are rebuilt lazily on the next queries."""
        self._rows.clear()
        self._reverse_rows.clear()
        self._drop_adjacency()

    def _extra_stats(self) -> dict[str, float]:
        return {
            "matrix_rows": float(len(self._rows)),
            "matrix_refreshes": float(self._refreshes),
            "reverse_cached_targets": float(len(self._reverse_rows)),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _arrivals_to(self, target: int) -> array:
        """Memoised reverse arrival row (one miss per row built)."""
        cached = self._reverse_rows.get(target)
        if cached is not None:
            self._cache_hits += 1
            self._reverse_rows.move_to_end(target)
            return cached
        self._cache_misses += 1
        arrivals = self._dijkstra_to(target)
        self._reverse_rows[target] = arrivals
        if len(self._reverse_rows) > DEFAULT_MAX_REVERSE_ROWS:
            self._reverse_rows.popitem(last=False)
            self._evictions += 1
        return arrivals

    def _build_rows(self, sources: list[int]) -> None:
        if not sources:
            return
        self._refreshes += 1
        for source in sources:
            # The kernel's row is already dense over the columns: numpy
            # views its buffer, no copy and no per-node fill.
            self._rows[source] = np.frombuffer(
                self._dijkstra_from(source), dtype=np.float64
            )
