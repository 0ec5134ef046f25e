"""The pure-Python ``dict`` kernels the oracles once ran without numpy.

``CHOracle`` and ``MatrixOracle`` run one vectorised numpy kernel.  The
loops they replaced are kept here verbatim as the exact reference the
kernel property tests and ``tests/test_ch_bucket_scan.py`` hold them
to, float for float:

* :func:`reverse_sweep` — the reverse-PHAST downward sweep, one upward
  edge at a time in decreasing rank order;
* :class:`DictCHOracle` — the bucket scan: each target label deposits
  ``(target, distance)`` entries on its nodes, and a source's forward
  label walks the buckets it meets; arrival maps come from
  :func:`reverse_sweep`;
* :class:`ListMatrixOracle` — matrix rows as Python lists.

Labels are memoised by the production LRU (same hits, misses and
eviction order) and read back as ``{node index: distance}`` dicts, an
exact round trip.  This module must stay free of the production csr
arithmetic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.network.oracle.ch import (
    _INF,
    _MANY_TO_ONE_CUTOFF,
    _MISSING,
    CHOracle,
)
from repro.network.oracle.matrix import MatrixOracle


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

    Its ``bucket_scans`` counts bucket entries met, not label entries
    priced, so that one extra differs from the csr kernel's by design.
    """

    def reverse_sweep(self, seeds: Mapping[int, float]) -> dict[int, float]:
        return reverse_sweep(self, seeds)

    def _arrivals_to(self, target: int) -> dict[int, float]:
        return self._arrival_entry(target)[0]

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
                    arrival_answers[t_node] = self._arrivals_to(t_node)
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


class ListMatrixOracle(MatrixOracle):
    """``MatrixOracle`` whose rows are Python lists, filled node by node."""

    def _build_rows(self, sources: list[int]) -> None:
        if not sources:
            return
        self._refreshes += 1
        for source in sources:
            distances = self._dijkstra_from(source)
            self._rows[source] = [
                distances.get(node, _INF) for node in self._node_order
            ]
