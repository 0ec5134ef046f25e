"""The csr bucket scan as it was before block pricing.

This is ``CHOracle._leg_rows`` at the parent of the change that priced
a bucket block with one segment reduction per row or column, kept
verbatim as the "old" side of ``tests/test_ch_bucket_scan.py`` (less
the pure-Python branches, which ``tests/reference/dict_kernel.py``
keeps): it runs one numpy gather, add and min per (source, target)
cell.
It must stay free of the production scan's code; the tests require the
two to agree exactly, float for float and counter for counter.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.oracle.ch import (
    _INF,
    _MANY_TO_ONE_CUTOFF,
    _MISSING,
    CHOracle,
)


class PerPairCHOracle(CHOracle):
    """``CHOracle`` whose batched paths price one bucket cell at a time."""

    def _leg_rows(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """``sources x targets`` travel times, ``inf`` where unreachable.

        One pair-cache read per cell (one hit each); the cells it does
        not hold are resolved below and folded back into it.  Unlocked
        and uncounted: the two ``_locked`` block calls do that.
        """
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
            # Wide single-target batches (the dispatch shape) and targets
            # whose arrival map is already memoised are answered straight
            # from reverse PHAST — one linear sweep beats one upward
            # search per source past the cutoff; everything else goes
            # through the buckets.
            wide = (
                len(needed_targets) == 1
                and len(pending_by_source) >= _MANY_TO_ONE_CUTOFF
            )
            # Dense arrival rows, read per source by index.
            arrival_answers: dict[int, object] = {}
            bucket_targets: list[int] = []
            for t_node in needed_targets:
                if wide or t_node in self._arrival_cache:
                    arrival_answers[t_node] = self._arrival_row(t_node)
                else:
                    bucket_targets.append(t_node)
            # Per-target (nodes, dists) arrays: one vectorised
            # gather-and-min per (source, target) pair instead of a
            # Python loop over settled nodes.  Entries at nodes the
            # forward search never settles contribute +inf and drop
            # out of the min.
            csr_buckets = {
                t_node: self._target_label(t_node)
                for t_node in bucket_targets
            }
            for s_node, pending in pending_by_source.items():
                bucket_pending = []
                for t_node in pending:
                    arrivals = arrival_answers.get(t_node)
                    if arrivals is None:
                        bucket_pending.append(t_node)
                        continue
                    row_value = float(arrivals[self._index[s_node]])
                    value = None if row_value == _INF else row_value
                    self._remember((s_node, t_node), value)
                    if value is not None:
                        result[(s_node, t_node)] = value
                if not bucket_pending:
                    continue
                best: dict[int, float] = {}
                dist_f = self._sweeps.seed_buffer(*self._source_label(s_node))
                for t_node in bucket_pending:
                    nodes_arr, dists_arr = csr_buckets[t_node]
                    self._bucket_scans += len(nodes_arr)
                    value = float((dist_f[nodes_arr] + dists_arr).min())
                    if value != _INF:
                        best[t_node] = value
                for t_node in bucket_pending:
                    value = best.get(t_node)
                    self._remember((s_node, t_node), value)
                    if value is not None:
                        result[(s_node, t_node)] = value
            for row, column, key in holes:
                row[column] = result.get(key, _INF)
        return rows
