"""The CH witness search as it was before its early stop.

This is ``CHOracle._shortcuts_for`` / ``_witness_search`` at the parent
of the change that made each search stop once every shortcut decision
is fixed, kept verbatim as the "old" side of
``tests/test_ch_contraction.py``: one search per in-neighbour ``u``,
into a fresh distance dict, that runs until every target other than
``u`` has settled or the static limit ``w_in + max_out`` is used up,
after which each decision is read off the final distances.  It must
stay free of the production search's code; the tests require the two
to contract every graph to the same hierarchy, byte for byte.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Mapping

from repro.network.oracle.ch import _INF, _WITNESS_SETTLE_LIMIT, CHOracle


class RunToSettleCHOracle(CHOracle):
    """``CHOracle`` whose witness searches run until every target settles."""

    def _shortcuts_for(
        self,
        v: int,
        fwd: list[dict[int, float]],
        bwd: list[dict[int, float]],
        dist: list[float],
    ) -> list[tuple[int, int, float]]:
        """Shortcuts required to contract ``v`` from the remaining graph.

        ``dist``, the production search's reusable buffer, is unused.
        """
        ins = bwd[v]
        outs = fwd[v]
        shortcuts: list[tuple[int, int, float]] = []
        if not ins or not outs:
            return shortcuts
        max_out = max(outs.values())
        for u, w_in in ins.items():
            witness = self._witness_search(u, v, w_in + max_out, fwd, outs)
            for w, w_out in outs.items():
                if w == u:
                    continue
                through = w_in + w_out
                if witness.get(w, _INF) > through:
                    shortcuts.append((u, w, through))
        return shortcuts

    def _witness_search(
        self,
        source: int,
        excluded: int,
        limit: float,
        fwd: list[dict[int, float]],
        targets: Mapping[int, float],
    ) -> dict[int, float]:
        """Hop- and distance-limited Dijkstra avoiding ``excluded``.

        Conservative on purpose: hop limit, distance limit and settle
        cap can all hide a genuine witness, which merely means an extra
        shortcut gets added — correctness never depends on this search
        being complete.  Only the distances of ``targets`` other than
        ``source`` are read, so the search ends once they have all
        settled: a settled distance is final, and whatever the search
        would have done next cannot change it.
        """
        dist: dict[int, float] = {source: 0.0}
        heap: list[tuple[float, int, int]] = [(0.0, source, 0)]
        hop_limit = self.witness_hop_limit
        pending = len(targets) - (source in targets)
        settled = 0
        while heap:
            d, x, h = heappop(heap)
            if d > dist[x]:
                continue
            settled += 1
            if settled > _WITNESS_SETTLE_LIMIT:
                break
            if x in targets and x != source:
                pending -= 1
                if not pending:
                    break
            if h >= hop_limit:
                continue
            for y, w in fwd[x].items():
                if y == excluded:
                    continue
                nd = d + w
                if nd <= limit and nd < dist.get(y, _INF):
                    dist[y] = nd
                    heappush(heap, (nd, y, h + 1))
        return dist
