"""Contraction-hierarchy backend with bucket-based many-to-one queries.

Contraction hierarchies (Geisberger et al., "Contraction Hierarchies:
Faster and Simpler Hierarchical Routing in Road Networks") preprocess
the graph once and then answer point-to-point queries by searching a
tiny fraction of it:

1. **Contraction.**  Nodes are removed one at a time in importance order
   (least important first).  Removing node ``v`` must preserve all
   shortest paths among the remaining nodes, so for every in-neighbour
   ``u`` and out-neighbour ``w`` a *shortcut* edge ``u -> w`` of weight
   ``d(u,v) + d(v,w)`` is added — unless a hop-limited *witness search*
   proves a path of no greater weight already exists without ``v``.
   The order is the classic edge-difference heuristic (shortcuts added
   minus edges removed, plus a deleted-neighbours term) maintained with
   a lazy-update priority queue: a node's priority is recomputed when it
   is popped, and it is only contracted while still no worse than the
   next candidate.

2. **Queries.**  Each node gets a rank (its contraction time).  Every
   edge of the augmented graph (original + shortcuts) is *upward* if it
   leads to a higher-ranked node and *downward* otherwise; any shortest
   path in the augmented graph can be taken as an up-then-down path.  A
   point-to-point query is therefore a bidirectional Dijkstra that only
   ever climbs: forward over upward edges from the source, backward over
   downward edges from the target, pruned as soon as a frontier cannot
   beat the best meeting distance.

The dispatch hot-path block, ``leg_matrix``, is served natively:

* a wide single-target block (many workers, one pickup) runs the
  backward upward search from the target and then one linear
  *downward sweep* over nodes in decreasing rank order (reverse PHAST)
  — an exact all-sources-to-one-target row without touching the
  reversed original graph;
* every other block uses RPHAST-style **node buckets**: the
  backward upward search from each target deposits ``(target,
  distance)`` entries on the nodes it settles, and the forward upward
  search space of each source scans the buckets it meets.  Both search
  spaces are *labels* — pure functions of (node, hierarchy) — memoised
  per distinct target and per distinct source in two LRUs under one
  bound, as ``(node index, distance)`` arrays, so a pair the pair cache
  does not hold is a merge of two labels the oracle already has, not a
  graph search — exactly what the fleet's batched worker-to-pickup
  blocks, which re-ask the same sources block after block, need.
  A block is priced a line at a time.  A tall block (more sources
  than targets, at least four) goes by column: a target's label
  against the forward labels of all its sources, laid end to end once.
  Otherwise it goes by row: a source's forward label against the labels
  of the targets it pends.  A line of four or more cells is one
  ``np.minimum.reduceat``, a shorter one a numpy min per cell, so a GDP
  block costs a reduction per line, not a numpy call per cell.  The cells are the floats a per-cell scan returns: the same
  sums over the same label intersection, and min is order-free.

All distances are exact: witness searches are conservative (a pruned
search just adds a shortcut it might not have needed), so no shortest
path is ever lost.  Distances are assembled from shortcut weights whose
additions may associate differently than a monolithic Dijkstra's, so
answers can differ in the last few ulps; callers needing bitwise
identity should use ``lazy``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

from ...exceptions import UnreachableError
from .base import DistanceOracle
from .csr import CHSweepKernel, label_arrays, pack_labels, segment_minima

if TYPE_CHECKING:  # pragma: no cover
    from ..graph import RoadGraph


_INF = float("inf")

#: Default hop limit of the witness searches run during contraction.
#: Higher limits find more witnesses (fewer shortcuts, faster queries)
#: at the price of slower preprocessing; on lattice-like road networks
#: almost every witness is short.
DEFAULT_WITNESS_HOP_LIMIT = 5

#: Settled-node cap of a single witness search, bounding preprocessing
#: on dense or badly-shaped graphs.  A capped search is conservative:
#: it can only add shortcuts it might not have needed.
_WITNESS_SETTLE_LIMIT = 200

#: Default bound on memoised point-to-point results.
DEFAULT_PAIR_CACHE_SIZE = 200_000

#: Default bound on each of the two label caches (a label is one
#: node's upward search space — a target's backward one, its buckets,
#: or a source's forward one — typically far smaller than a full
#: distance map).
DEFAULT_BUCKET_CACHE_SIZE = 1024

#: Default bound on memoised full arrival maps (reverse-PHAST products).
#: Each is O(num_nodes), so this is kept an order of magnitude smaller
#: than the bucket cache — the point of the CH backend is *not* to grow
#: dense per-node state.
DEFAULT_ARRIVAL_CACHE_SIZE = 64

#: At or above this many unanswered sources towards a single target, one
#: reverse-PHAST sweep (linear in the augmented graph) beats running a
#: forward upward search per source.
_MANY_TO_ONE_CUTOFF = 8

#: A source pending fewer bucket targets than this is priced a cell at
#: a time, and a block goes by column only with at least this many
#: sources.  Below it, laying the labels end to end costs about what
#: the per-cell numpy calls it saves, and the served 8x8 mix's blocks
#: are mostly that narrow.
_SEGMENT_MIN = 4

#: Sentinel distinguishing "not cached" from a cached unreachable verdict.
_MISSING = object()


class CHOracle(DistanceOracle):
    """Contraction-hierarchy distance oracle over a directed graph.

    Parameters
    ----------
    graph:
        The road graph to answer for.
    witness_hop_limit:
        Hop limit of the witness searches run while contracting.
    pair_cache_size:
        LRU bound on memoised point-to-point results (``None`` =
        unbounded).
    bucket_cache_size:
        LRU bound on each label cache of the batched query path: the
        per-target bucket maps and the per-source forward search spaces.
    arrival_cache_size:
        LRU bound on memoised full arrival maps (each O(num_nodes));
        kept small by default so the backend never approaches a dense
        all-pairs table's memory footprint.
    seed:
        Unused today (contraction order is deterministic) but accepted
        so configs can thread their seed through uniformly.
    preprocessing:
        A payload previously produced by :meth:`export_preprocessing`
        (typically loaded from disk by
        :mod:`repro.network.oracle.cache`).  When given, the expensive
        contraction pass is skipped entirely and the hierarchy is
        restored from the recorded node order and augmented edges.  A
        payload that does not match this graph's node set raises
        ``ValueError``.
    """

    name = "ch"

    def __init__(
        self,
        graph: "RoadGraph",
        witness_hop_limit: int = DEFAULT_WITNESS_HOP_LIMIT,
        pair_cache_size: int | None = DEFAULT_PAIR_CACHE_SIZE,
        bucket_cache_size: int | None = DEFAULT_BUCKET_CACHE_SIZE,
        arrival_cache_size: int | None = DEFAULT_ARRIVAL_CACHE_SIZE,
        seed: int = 0,
        preprocessing: Mapping | None = None,
    ) -> None:
        super().__init__(graph)
        if witness_hop_limit < 1:
            raise ValueError("witness_hop_limit must be at least 1")
        del seed
        #: The hop limit used during contraction; a persisted payload
        #: is reused only at the same limit.
        self.witness_hop_limit = witness_hop_limit
        #: LRU bound of the source and the target label cache, each.
        self.bucket_cache_size = bucket_cache_size
        self._pair_cache_size = pair_cache_size
        self._arrival_cache_size = arrival_cache_size
        # `None` marks a memoised *unreachable* verdict.
        self._pair_cache: OrderedDict[tuple[int, int], float | None] = OrderedDict()
        # Labels as (node index int64, distance float64) arrays.  source
        # node -> its forward upward search space (distances of
        # ascending paths from it); target node -> its backward one, the
        # buckets (distances of descending paths to it).
        self._source_labels: OrderedDict[int, object] = OrderedDict()
        self._target_labels: OrderedDict[int, object] = OrderedDict()
        # target node -> its reverse-PHAST sweep row (dense, by node
        # index), read by wide many-to-one blocks.
        self._arrival_cache: OrderedDict[int, object] = OrderedDict()
        self._shortcuts_added = 0
        self._upward_settles = 0
        self._bucket_scans = 0
        #: Disk-cache load failures the registry observed while building
        #: this oracle (IO errors after retries, quarantined corrupt
        #: files); surfaced through ``oracle_stats`` as
        #: ``cache_load_failures``.
        self.cache_load_failures = 0

        started = time.perf_counter()
        self._loaded_from_cache = False
        if preprocessing is not None:
            self._restore(preprocessing)
            self._loaded_from_cache = True
        else:
            self._build()
        self._precompute_seconds = time.perf_counter() - started

    @property
    def node_order(self) -> list[int]:
        """Public node ids in internal-index order.

        Decodes the dense rows :meth:`reverse_sweep` answers: ``row[i]``
        is the arrival time from ``node_order[i]``.
        """
        return list(self._nodes)

    @property
    def preprocessing_loaded(self) -> bool:
        """Whether the hierarchy was restored from a persisted payload."""
        return self._loaded_from_cache

    @property
    def precompute_seconds(self) -> float:
        """Wall-clock cost of building (or restoring) the hierarchy."""
        return self._precompute_seconds

    # ------------------------------------------------------------------
    # preprocessing: contraction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        n = len(self._nodes)
        # Remaining-graph adjacency, mutated as nodes are contracted,
        # and the augmented edge set (original edges + shortcuts) at
        # their final minimum weights.  Both are filled in the graph's
        # edge order, which fixes the contraction and the export.
        fwd: list[dict[int, float]] = [{} for _ in range(n)]
        bwd: list[dict[int, float]] = [{} for _ in range(n)]
        aug: dict[tuple[int, int], float] = {}
        for ui, vi, w in self._graph.indexed_edges():
            if ui != vi:
                fwd[ui][vi] = w
                bwd[vi][ui] = w
                aug[(ui, vi)] = w

        contracted = [False] * n
        deleted_neighbors = [0] * n
        rank = [0] * n
        order: list[int] = []

        def priority(v: int, shortcuts: list[tuple[int, int, float]]) -> int:
            removed = len(fwd[v]) + len(bwd[v])
            return len(shortcuts) - removed + deleted_neighbors[v]

        def contract(v: int, shortcuts: list[tuple[int, int, float]]) -> None:
            rank[v] = len(order)
            order.append(v)
            contracted[v] = True
            for ui, wi, weight in shortcuts:
                old = fwd[ui].get(wi)
                if old is None or weight < old:
                    fwd[ui][wi] = weight
                    bwd[wi][ui] = weight
                    if old is None or weight < aug[(ui, wi)]:
                        aug[(ui, wi)] = weight
                    self._shortcuts_added += 1
            # ``fwd`` / ``bwd`` only ever link live nodes: unlinking ``v``
            # here is what lets the searches skip a contracted test.
            for ui in bwd[v]:
                deleted_neighbors[ui] += 1
                del fwd[ui][v]
            for wi in fwd[v]:
                deleted_neighbors[wi] += 1
                del bwd[wi][v]
            fwd[v] = {}
            bwd[v] = {}

        heap: list[tuple[int, int]] = []
        for v in range(n):
            shortcuts = self._shortcuts_for(v, fwd, bwd)
            heap.append((priority(v, shortcuts), v))
        heapify(heap)

        while heap:
            _, v = heappop(heap)
            if contracted[v]:
                continue
            # Lazy update: the stored priority may be stale; recompute
            # and only contract while still no worse than the runner-up.
            shortcuts = self._shortcuts_for(v, fwd, bwd)
            current = priority(v, shortcuts)
            if heap and current > heap[0][0]:
                heappush(heap, (current, v))
                continue
            contract(v, shortcuts)

        self._finalise(rank, order, aug)

    def _finalise(
        self, rank: list[int], order: list[int], aug: dict[tuple[int, int], float]
    ) -> None:
        """Index the augmented graph for querying (shared by build/restore)."""
        n = len(self._nodes)
        self._rank = rank
        #: Node indices in decreasing rank order (the PHAST sweep order).
        self._order_desc = order[::-1]
        # Search adjacency over the augmented graph, split by direction
        # in rank space.  Upward edges climb (rank[head] > rank[tail]);
        # each set is indexed from both endpoints because the sweep, the
        # two search directions and the export need opposite views.
        self._up_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._up_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._down_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._down_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (ui, vi), w in aug.items():
            if rank[vi] > rank[ui]:
                self._up_out[ui].append((vi, w))
                self._up_in[vi].append((ui, w))
            else:
                self._down_out[ui].append((vi, w))
                self._down_in[vi].append((ui, w))
        # Vectorised sweep kernel: the upward-in (reverse PHAST) edge set
        # as level-grouped numpy arrays.  Built once here; the list
        # adjacency above stays the source of truth for searches.
        self._sweeps = CHSweepKernel(n, self._order_desc, self._up_in)

    # ------------------------------------------------------------------
    # preprocessing persistence
    # ------------------------------------------------------------------
    def export_preprocessing(self) -> dict:
        """JSON-able snapshot of the contraction products.

        The payload carries everything :meth:`_restore` needs to stand
        the hierarchy back up without re-contracting: the node ids in
        contraction (rank) order, every augmented edge as ``[u, v,
        weight]``, and the number of shortcuts the contraction added.
        """
        n = len(self._nodes)
        order_ids = [0] * n
        for idx, r in enumerate(self._rank):
            order_ids[r] = self._nodes[idx]
        edges: list[list] = []
        for ui in range(n):
            u = self._nodes[ui]
            for adjacency in (self._up_out[ui], self._down_out[ui]):
                for vi, w in adjacency:
                    edges.append([u, self._nodes[vi], w])
        return {
            "order": order_ids,
            "edges": edges,
            "shortcuts": self._shortcuts_added,
        }

    def _restore(self, payload: Mapping) -> None:
        """Rebuild the hierarchy from an :meth:`export_preprocessing` payload.

        Linear in the augmented graph — the witness searches and the
        priority-queue ordering, i.e. everything expensive about
        contraction, are skipped.  Raises ``ValueError`` when the
        payload does not cover exactly this graph's node set.
        """
        n = len(self._nodes)
        order_ids = payload.get("order")
        edge_rows = payload.get("edges")
        shortcuts = payload.get("shortcuts")
        if (
            not isinstance(order_ids, list)
            or not isinstance(edge_rows, list)
            or isinstance(shortcuts, bool)
            or not isinstance(shortcuts, int)
        ):
            raise ValueError("malformed CH preprocessing payload")
        try:
            # The order must be a true permutation of this graph's nodes
            # — duplicates would produce a non-permutation rank array
            # and silently wrong up/down edge classification.
            order_valid = (
                len(order_ids) == n
                and len(set(order_ids)) == n
                and all(node in self._index for node in order_ids)
            )
        except TypeError:
            order_valid = False
        if not order_valid:
            raise ValueError("CH preprocessing does not match this graph")
        rank = [0] * n
        order: list[int] = []
        for r, node in enumerate(order_ids):
            idx = self._index[node]
            rank[idx] = r
            order.append(idx)
        aug: dict[tuple[int, int], float] = {}
        try:
            for u, v, weight in edge_rows:
                aug[(self._index[u], self._index[v])] = float(weight)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                "CH preprocessing payload references unknown nodes or "
                "malformed edges"
            ) from exc
        self._shortcuts_added = shortcuts
        self._finalise(rank, order, aug)

    def _shortcuts_for(
        self,
        v: int,
        fwd: list[dict[int, float]],
        bwd: list[dict[int, float]],
    ) -> list[tuple[int, int, float]]:
        """Shortcuts required to contract ``v`` from the remaining graph."""
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
        distance = self._bidirectional_upward(self._index[source], self._index[target])
        self._remember(key, distance)
        if distance is None:
            raise UnreachableError(source, target)
        return distance

    # ------------------------------------------------------------------
    # reverse-PHAST kernel primitives
    # ------------------------------------------------------------------
    def reverse_seed_map(self, target: int) -> dict[int, float]:
        """Backward upward search from ``target`` (internal node indices).

        The first stage of a reverse-PHAST query: a dict Dijkstra over
        the downward in-edges that settles the nodes whose
        rank-descending paths reach ``target``.  The result seeds
        :meth:`reverse_sweep`.  Exposed (with the sweep) as the seam the
        kernel property tests compare against a pure-Python sweep.
        """
        return self._upward_search(self._index[target], self._down_in)

    def reverse_sweep(self, seeds: Mapping[int, float]):
        """Downward sweep from a :meth:`reverse_seed_map` result.

        Returns a dense float64 row indexed by internal node index
        (``inf`` = unreachable); :attr:`node_order` decodes it.
        """
        return self._sweeps.run(*label_arrays(seeds)).copy()

    def _arrival_row(self, target: int):
        """Memoised reverse-PHAST sweep row towards ``target``.

        One miss (and one reverse search) per row built, one hit per
        reuse; wide many-to-one blocks read a source's cell by index.
        """
        row = self._arrival_cache.get(target)
        if row is not None:
            self._cache_hits += 1
            self._arrival_cache.move_to_end(target)
            return row
        self._cache_misses += 1
        self._reverse_sssp_runs += 1
        row = self.reverse_sweep(self.reverse_seed_map(target))
        self._arrival_cache[target] = row
        if (
            self._arrival_cache_size is not None
            and len(self._arrival_cache) > self._arrival_cache_size
        ):
            self._arrival_cache.popitem(last=False)
            self._evictions += 1
        return row

    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """Dense leg times read off the pair cache.

        One pair-cache read per cell; the cells the cache does not hold
        are priced by RPHAST-style target buckets — every target's
        (memoised) backward upward search space against the (equally
        memoised) forward one of each source, so a pending pair is a
        merge of two labels, and a graph search runs only for a source
        or target the label caches do not hold.  Wide single-target
        blocks (many idle workers against one pickup) and targets whose
        sweep row is memoised read one reverse-PHAST row instead, which
        is linear in the augmented graph and beats per-source searches
        past ``_MANY_TO_ONE_CUTOFF`` sources.  Every priced cell is
        folded back into the pair cache, so a cell is the float scalar
        :meth:`travel_time` answers next.

        ``queries`` and ``batched_queries`` count every cell, a cell read
        off the pair cache is one cache hit, and labels and sweep rows
        count one miss per search run and one hit per reuse — not one
        per pending pair — so hit rates stay comparable with the lazy
        backend's.  A block with more cells than the pair cache holds
        could evict its own answers: it prices its distinct cells once,
        one search per label, and then reads every cell as a scalar.
        """
        cells = len(sources) * len(targets)
        if self._pair_cache_size is not None and cells > self._pair_cache_size:
            self._leg_rows(list(dict.fromkeys(sources)), list(dict.fromkeys(targets)))
            return super().leg_matrix(sources, targets)
        self._batched_queries += cells
        self._queries += cells
        return self._leg_rows(sources, targets)

    def _leg_rows(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """``sources x targets`` travel times, ``inf`` where unreachable.

        One pair-cache read per cell (one hit each); the cells it does
        not hold are resolved below and folded back into it.
        Uncounted: :meth:`leg_matrix` does that.
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
            sweeps = self._sweeps
            # Dense arrival rows, read per source by index.
            arrival_answers: dict[int, object] = {}
            bucket_targets: list[int] = []
            for t_node in needed_targets:
                if wide or t_node in self._arrival_cache:
                    arrival_answers[t_node] = self._arrival_row(t_node)
                else:
                    bucket_targets.append(t_node)
            # Tall blocks (GDP's stops x (pickup, dropoff)) are priced a
            # column at a time before the loop below remembers anything;
            # everything else a row at a time inside it.
            columns: dict[int, dict[int, float]] | None = None
            target_labels = {
                t_node: self._target_label(t_node) for t_node in bucket_targets
            }
            if target_labels and len(pending_by_source) >= max(
                _SEGMENT_MIN, len(target_labels) + 1
            ):
                columns = self._price_columns(
                    pending_by_source, arrival_answers, target_labels
                )
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
                if columns is not None:
                    best = columns[s_node]
                else:
                    dist_f = sweeps.seed_buffer(*self._source_label(s_node))
                    if len(bucket_pending) < _SEGMENT_MIN:
                        for t_node in bucket_pending:
                            nodes_arr, dists_arr = target_labels[t_node]
                            self._bucket_scans += len(nodes_arr)
                            value = float((dist_f[nodes_arr] + dists_arr).min())
                            if value != _INF:
                                best[t_node] = value
                    else:
                        block = pack_labels(
                            [target_labels[t_node] for t_node in bucket_pending]
                        )
                        self._bucket_scans += len(block[0])
                        values = segment_minima(dist_f, block)
                        for t_node, value in zip(bucket_pending, values):
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

    def _price_columns(
        self,
        pending_by_source: Mapping[int, Iterable[int]],
        arrival_answers: Mapping[int, object],
        target_labels: Mapping[int, tuple],
    ) -> dict[int, dict[int, float]]:
        """Bucket scan of a tall block, a column at a time.

        Answers ``{source: {target: distance}}`` for every pending pair
        the arrival rows do not answer, unreachable pairs left out.
        Source labels are fetched in block order, as a row-at-a-time
        scan fetches them, so label LRU order and hit/miss counts do not
        move.  The forward labels are laid end to end once; each column
        seeds its target's label and takes one :func:`segment_minima`
        over all of them, keeping the sources it pends.  A cell is the
        minimum of the same IEEE sums over the same label intersection
        as a per-cell scan (addition commutes, min is order-free), and
        ``bucket_scans`` counts the target label's length once per
        priced cell.
        """
        sweeps = self._sweeps
        pending_sources: dict[int, list[int]] = {}
        forward = []
        position: dict[int, int] = {}
        for s_node, pending in pending_by_source.items():
            targets = [t_node for t_node in pending if t_node not in arrival_answers]
            if not targets:
                continue
            position[s_node] = len(forward)
            forward.append(self._source_label(s_node))
            for t_node in targets:
                pending_sources.setdefault(t_node, []).append(s_node)
        block = pack_labels(forward)
        best: dict[int, dict[int, float]] = {s_node: {} for s_node in position}
        for t_node, sources in pending_sources.items():
            label = target_labels[t_node]
            self._bucket_scans += len(label[0]) * len(sources)
            values = segment_minima(sweeps.seed_buffer(*label), block)
            for s_node in sources:
                value = values[position[s_node]]
                if value != _INF:
                    best[s_node][t_node] = value
        return best

    # ------------------------------------------------------------------
    # cache management and instrumentation
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._pair_cache.clear()
        self._source_labels.clear()
        self._target_labels.clear()
        self._arrival_cache.clear()

    def _extra_stats(self) -> dict[str, float]:
        return {
            "shortcuts_added": float(self._shortcuts_added),
            "upward_settles": float(self._upward_settles),
            "bucket_scans": float(self._bucket_scans),
            "label_cached_sources": float(len(self._source_labels)),
            "bucket_cached_targets": float(len(self._target_labels)),
            "arrival_cached_targets": float(len(self._arrival_cache)),
            "preprocessing_from_cache": float(self._loaded_from_cache),
            "cache_load_failures": float(self.cache_load_failures),
            # Set by the registry's cached-build path only; 0 when the
            # hierarchy was contracted without an on-disk cache.
            "cache_lock_timed_out": float(
                getattr(self, "cache_lock_timed_out", 0)
            ),
        }

    # ------------------------------------------------------------------
    # search internals
    # ------------------------------------------------------------------
    def _upward_search(
        self, start: int, adjacency: list[list[tuple[int, float]]]
    ) -> dict[int, float]:
        """Dijkstra over a rank-climbing adjacency (counted).

        With ``self._up_out`` this is the forward upward search from a
        source; with ``self._down_in`` it is the backward upward search
        from a target (downward edges traversed in reverse), whose
        settled map is ``node -> distance of that rank-descending path
        to start``.
        """
        dist: dict[int, float] = {start: 0.0}
        heap: list[tuple[float, int]] = [(0.0, start)]
        settles = 0
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            settles += 1
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        self._upward_settles += settles
        return dist

    def _label(self, cache: OrderedDict, node: int, adjacency):
        """Memoised upward search space of ``node`` over ``adjacency``.

        A label is a pure function of (node, the immutable hierarchy),
        so it is searched once and reused until the LRU (bounded by
        :attr:`bucket_cache_size`) drops it: one miss per search
        actually run, one hit per reuse.  It is stored as the search's
        ``(node index, distance)`` arrays, so no caller converts it
        again.
        """
        label = cache.get(node)
        if label is not None:
            self._cache_hits += 1
            cache.move_to_end(node)
            return label
        self._cache_misses += 1
        label = label_arrays(self._upward_search(self._index[node], adjacency))
        cache[node] = label
        if (
            self.bucket_cache_size is not None
            and len(cache) > self.bucket_cache_size
        ):
            cache.popitem(last=False)
            self._evictions += 1
        return label

    def _source_label(self, source: int):
        """Memoised forward upward search space of ``source``."""
        return self._label(self._source_labels, source, self._up_out)

    def _target_label(self, target: int):
        """Memoised backward upward search space of ``target`` (its buckets)."""
        if target not in self._target_labels:
            self._reverse_sssp_runs += 1
        return self._label(self._target_labels, target, self._down_in)

    def _bidirectional_upward(self, s: int, t: int) -> float | None:
        """Bidirectional upward search; the distance, ``None`` if unreachable.

        Both frontiers only climb in rank, and a side stops once its
        minimum key can no longer beat the best meeting distance.  The
        meeting check runs at settle time in either direction, which is
        sufficient: a meeting node whose distance on one side never
        settles below the current best cannot improve it.
        """
        self._pp_searches += 1
        dist_f: dict[int, float] = {s: 0.0}
        dist_b: dict[int, float] = {t: 0.0}
        heap_f: list[tuple[float, int]] = [(0.0, s)]
        heap_b: list[tuple[float, int]] = [(0.0, t)]
        best = _INF
        settles = 0
        while True:
            f_live = bool(heap_f) and heap_f[0][0] < best
            b_live = bool(heap_b) and heap_b[0][0] < best
            if not f_live and not b_live:
                break
            forward = f_live and (not b_live or heap_f[0][0] <= heap_b[0][0])
            if forward:
                heap, dist, other, adjacency = heap_f, dist_f, dist_b, self._up_out
            else:
                heap, dist, other, adjacency = heap_b, dist_b, dist_f, self._down_in
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            settles += 1
            du_other = other.get(u)
            if du_other is not None and d + du_other < best:
                best = d + du_other
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        self._upward_settles += settles
        return None if best == _INF else best

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
