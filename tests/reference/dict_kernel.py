"""The pure-Python ``dict`` kernels the oracles once ran.

``CHOracle`` runs one vectorised numpy kernel, and the full-map
searches of ``lazy`` one Dijkstra over node-index arrays.  The loops they replaced are kept here verbatim as
the exact reference the kernel property tests and
``tests/test_ch_bucket_scan.py`` hold them to, float for float:

* :func:`reverse_sweep` — the reverse-PHAST downward sweep, one upward
  edge at a time in decreasing rank order;
* :class:`DictCHOracle` — the bucket scan: each target label deposits
  ``(target, distance)`` entries on its nodes, and a source's forward
  label walks the buckets it meets; arrival maps come from
  :func:`reverse_sweep`;
* :func:`dict_dijkstra` — the single-source Dijkstra ``lazy`` ran over
  node-keyed adjacency dicts, returning a ``{node: distance}`` map in
  settling order; :class:`ReferenceKernel` plugs it under an oracle in
  place of the index-array kernel, and :class:`DictLazyOracle` is
  ``lazy`` on it.

Labels are memoised by the production LRU (same hits, misses and
eviction order) and read back as ``{node index: distance}`` dicts, an
exact round trip.  This module must stay free of the production csr
arithmetic and of the production Dijkstra kernel.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Mapping, Sequence

import networkx as nx

from repro.network.oracle.ch import (
    _INF,
    _MANY_TO_ONE_CUTOFF,
    _MISSING,
    CHOracle,
)
from repro.network.oracle.lazy import LazyDijkstraOracle


def dict_dijkstra(
    adjacency: Mapping[int, list[tuple[int, float]]], source: int
) -> dict[int, float]:
    """Distances from ``source`` over ``adjacency``, in settling order.

    The relaxation rule and the ``(distance, counter, node)`` heap key
    are those of networkx's single-source Dijkstra, so the result
    equals networkx's in values *and* in key order; only the
    per-edge weight callback, the cutoff / target / predecessor
    branches and the integer seed (a node is ``0.0`` from itself) are
    gone.
    """
    dist: dict[int, float] = {}
    seen = {source: 0.0}
    fringe: list[tuple[float, int, int]] = [(0.0, 0, source)]
    pushed = 1
    while fringe:
        reach, _, node = heappop(fringe)
        if node in dist:
            continue
        dist[node] = reach
        for head, cost in adjacency[node]:
            through = reach + cost
            known = seen.get(head)
            # A settled head needs no test of its own: it settled no
            # later than ``node`` and weights are non-negative, so
            # ``through`` cannot undercut what is known for it.
            if known is None or through < known:
                seen[head] = through
                heappush(fringe, (through, pushed, head))
                pushed += 1
    return dist


def successor_lists(graph: nx.DiGraph) -> dict[int, list[tuple[int, float]]]:
    """``node -> [(head, weight)]`` in the graph's adjacency order."""
    return {
        node: [(head, data.get("travel_time", 1)) for head, data in heads.items()]
        for node, heads in graph.adj.items()
    }


def predecessor_lists(graph: nx.DiGraph) -> dict[int, list[tuple[int, float]]]:
    """``node -> [(tail, weight)]``, filled in edge-iteration order."""
    predecessors: dict[int, list[tuple[int, float]]] = {node: [] for node in graph}
    for tail, heads in graph.adj.items():
        for head, data in heads.items():
            predecessors[head].append((tail, data.get("travel_time", 1)))
    return predecessors


class ReferenceKernel:
    """Mixin: an oracle's full-map searches run on :func:`dict_dijkstra`.

    The searches are counted like the production ones and their maps
    unpacked into rows over the oracle's node index (``inf`` where the
    map has no key), so everything above the kernel — caches, counters,
    cell reads — is the production oracle's own.  The node-keyed
    adjacency lives in the production attributes, which ``clear()``
    drops.
    """

    def _dijkstra_from(self, source: int) -> list[float]:
        self._sssp_runs += 1
        if self._successors is None:
            self._successors = successor_lists(self._graph)
        return self._row(dict_dijkstra(self._successors, source))

    def _dijkstra_to(self, target: int) -> list[float]:
        self._reverse_sssp_runs += 1
        if self._predecessors is None:
            self._predecessors = predecessor_lists(self._graph)
        return self._row(dict_dijkstra(self._predecessors, target))

    def _row(self, distances: Mapping[int, float]) -> list[float]:
        return [distances.get(node, inf) for node in self._nodes]


class DictLazyOracle(ReferenceKernel, LazyDijkstraOracle):
    """``LazyDijkstraOracle`` on the reference kernel."""


def reverse_sweep(oracle: CHOracle, seeds: Mapping[int, float]) -> dict[int, float]:
    """The downward sweep from a ``reverse_seed_map`` result, node by node.

    Returns public node id -> arrival time, unreachable nodes left out.
    """
    dist = [_INF] * len(oracle._nodes)
    for idx, d in seeds.items():
        dist[idx] = d
    for u in oracle._order_desc:
        du = dist[u]
        if du == _INF:
            continue
        for v, w in oracle._up_in[u]:
            nd = w + du
            if nd < dist[v]:
                dist[v] = nd
    return {
        oracle._nodes[idx]: d for idx, d in enumerate(dist) if d != _INF
    }


class DictCHOracle(CHOracle):
    """``CHOracle`` answering arrivals and bucket blocks in pure Python.

    Its memoised sweep rows are :func:`reverse_sweep` maps keyed by
    public node id.

    Its ``bucket_scans`` counts bucket entries met, not label entries
    priced, so that one extra differs from the csr kernel's by design.
    """

    def reverse_sweep(self, seeds: Mapping[int, float]) -> dict[int, float]:
        return reverse_sweep(self, seeds)

    def _label(self, cache, node, adjacency) -> dict[int, float]:
        nodes, dists = super()._label(cache, node, adjacency)
        return dict(zip(nodes.tolist(), dists.tolist()))

    def _leg_rows(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        pair_cache = self._pair_cache
        rows: list[list[float]] = []
        holes: list[tuple[list[float], int, tuple[int, int]]] = []
        pending_by_source: dict[int, dict[int, None]] = {}
        needed_targets: dict[int, None] = {}
        for source in sources:
            row: list[float] = []
            for target in targets:
                if source == target:
                    row.append(0.0)
                    continue
                key = (source, target)
                cached = pair_cache.get(key, _MISSING)
                if cached is _MISSING:
                    holes.append((row, len(row), key))
                    pending_by_source.setdefault(source, {})[target] = None
                    needed_targets[target] = None
                    row.append(_INF)
                    continue
                self._cache_hits += 1
                pair_cache.move_to_end(key)
                row.append(_INF if cached is None else cached)
            rows.append(row)
        if holes:
            result: dict[tuple[int, int], float] = {}
            wide = (
                len(needed_targets) == 1
                and len(pending_by_source) >= _MANY_TO_ONE_CUTOFF
            )
            arrival_answers: dict[int, dict[int, float]] = {}
            bucket_targets: list[int] = []
            for t_node in needed_targets:
                if wide or t_node in self._arrival_cache:
                    arrival_answers[t_node] = self._arrival_row(t_node)
                else:
                    bucket_targets.append(t_node)
            buckets: dict[int, list[tuple[int, float]]] = {}
            for t_node in bucket_targets:
                for idx, d in self._target_label(t_node).items():
                    buckets.setdefault(idx, []).append((t_node, d))
            for s_node, pending in pending_by_source.items():
                bucket_pending = []
                for t_node in pending:
                    arrivals = arrival_answers.get(t_node)
                    if arrivals is None:
                        bucket_pending.append(t_node)
                        continue
                    value = arrivals.get(s_node)
                    self._remember((s_node, t_node), value)
                    if value is not None:
                        result[(s_node, t_node)] = value
                if not bucket_pending:
                    continue
                best: dict[int, float] = {}
                forward = self._source_label(s_node)
                for idx, df in forward.items():
                    entries = buckets.get(idx)
                    if not entries:
                        continue
                    self._bucket_scans += len(entries)
                    for t_node, db in entries:
                        nd = df + db
                        if nd < best.get(t_node, _INF):
                            best[t_node] = nd
                for t_node in bucket_pending:
                    value = best.get(t_node)
                    self._remember((s_node, t_node), value)
                    if value is not None:
                        result[(s_node, t_node)] = value
            for row, column, key in holes:
                row[column] = result.get(key, _INF)
        return rows
