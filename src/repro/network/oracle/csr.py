"""CSR array representation of prepared oracle graphs + vectorised kernels.

The CH oracle's inner loops (the reverse-PHAST sweep, RPHAST bucket
scans) run on flat numpy arrays rather than Python objects
edge by edge.  :func:`pack_labels` and :func:`segment_minima` price a
whole row or column of a bucket block with one segment reduction.
:class:`LevelSweep` stores the reverse-PHAST sweep as level-grouped
edge arrays: every edge of the sweep DAG goes from a higher-ranked tail
to a lower-ranked head, so grouping edges by the tail's *level*
(longest dependency-path depth) turns the sweep into one
``np.minimum.at`` scatter-relaxation per level — the results of a
node-by-node sweep, since every tail distance is final before its level
is relaxed.  ``tests/reference/dict_kernel.py`` keeps that node-by-node
sweep and the per-entry bucket scan as the exact reference.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def compute_levels(
    order_desc: Sequence[int],
    adjacency: Sequence[Sequence[tuple[int, float]]],
) -> list[int]:
    """Longest-dependency-path level of every node under the sweep DAG.

    ``order_desc`` is the node processing order (decreasing CH rank);
    every edge of the adjacency goes from a node processed earlier to
    one processed later, so a single pass in processing order computes
    ``level[v] = 1 + max(level of predecessors)``.
    """
    level = [0] * (len(order_desc))
    for u in order_desc:
        lu = level[u] + 1
        for v, _ in adjacency[u]:
            if level[v] < lu:
                level[v] = lu
    return level


class LevelSweep:
    """A PHAST sweep as level-grouped flat edge arrays.

    ``sweep`` relaxes every edge exactly once, level by level: within a
    level all tail distances are final (every edge strictly increases
    the level), so one unbuffered ``np.minimum.at`` per level reproduces
    a sequential node-by-node sweep's results exactly — the same ``tail + w``
    sums feed the same minima, only grouped differently.
    """

    __slots__ = ("tails", "heads", "weights", "level_ptr", "_level_views")

    def __init__(self, tails, heads, weights, level_ptr) -> None:
        self.tails = tails
        self.heads = heads
        self.weights = weights
        #: Python list of slice boundaries, one entry per level + 1.
        self.level_ptr = level_ptr
        # Slicing per level inside the sweep costs three array-view
        # constructions per level per query; on small graphs that
        # overhead rivals the relaxation itself.  The views are cheap to
        # keep (they alias the flat arrays), so build them once.  Empty
        # levels are dropped — their minimum.at would be a no-op.
        self._level_views = []
        ptr = self.level_ptr
        for i in range(len(ptr) - 1):
            s, e = ptr[i], ptr[i + 1]
            if e > s:
                self._level_views.append(
                    (self.tails[s:e], self.heads[s:e], self.weights[s:e])
                )

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Sequence[tuple[int, float]]],
        level: Sequence[int],
    ) -> "LevelSweep":
        """Group ``adjacency``'s edges by the tail node's level."""
        per_level: dict[int, list[tuple[int, int, float]]] = {}
        for u, edges in enumerate(adjacency):
            if not edges:
                continue
            bucket = per_level.setdefault(level[u], [])
            for v, w in edges:
                bucket.append((u, v, w))
        total = sum(len(bucket) for bucket in per_level.values())
        tails = np.empty(total, dtype=np.int64)
        heads = np.empty(total, dtype=np.int64)
        weights = np.empty(total, dtype=np.float64)
        level_ptr = [0]
        pos = 0
        for lvl in sorted(per_level):
            for u, v, w in per_level[lvl]:
                tails[pos] = u
                heads[pos] = v
                weights[pos] = w
                pos += 1
            level_ptr.append(pos)
        return cls(tails, heads, weights, level_ptr)

    def sweep(self, dist) -> None:
        """Relax every edge into ``dist`` (float64, inf = unreached), in place."""
        minimum_at = np.minimum.at
        for tails, heads, weights in self._level_views:
            minimum_at(dist, heads, dist[tails] + weights)


class CHSweepKernel:
    """The reverse-PHAST sweep of one contraction hierarchy.

    ``reverse`` relaxes upward in-edges (all-to-one reverse PHAST).  One
    preallocated float64 distance buffer is reused across queries — the
    owning oracle serialises queries behind its lock.
    """

    def __init__(
        self,
        num_nodes: int,
        order_desc: Sequence[int],
        up_in: Sequence[Sequence[tuple[int, float]]],
    ) -> None:
        level = compute_levels(order_desc, up_in)
        self.reverse = LevelSweep.from_adjacency(up_in, level)
        self._dist = np.empty(num_nodes, dtype=np.float64)

    def run(self, nodes, dists):
        """Seed the buffer from a label's arrays and run the sweep over it.

        Returns the buffer itself (valid until the next ``run``).
        """
        dist = self.seed_buffer(nodes, dists)
        self.reverse.sweep(dist)
        return dist

    def seed_buffer(self, nodes, dists):
        """Fill the buffer from a label's arrays without sweeping (bucket scans)."""
        dist = self._dist
        dist.fill(np.inf)
        dist[nodes] = dists
        return dist


def pack_labels(labels):
    """Labels laid end to end as one ``(nodes, dists, starts)`` segment block.

    ``starts`` lists each label's offset into the concatenation.
    """
    starts = []
    total = 0
    for nodes, _ in labels:
        starts.append(total)
        total += len(nodes)
    return (
        np.concatenate([nodes for nodes, _ in labels]),
        np.concatenate([dists for _, dists in labels]),
        starts,
    )


def segment_minima(dist, block) -> list[float]:
    """``min(dist[nodes] + dists)`` over each label of a :func:`pack_labels` block.

    One gather, one add and one ``np.minimum.reduceat`` price every
    segment.  No label is empty (it holds its own node at 0.0), so no
    segment is, and entries at nodes ``dist`` leaves at ``inf`` drop
    out of their minimum.
    """
    nodes, dists, starts = block
    return np.minimum.reduceat(dist[nodes] + dists, starts).tolist()


def label_arrays(label: Mapping[int, float]):
    """An upward search space ``{node_idx: dist}`` as ``(nodes, dists)`` arrays.

    ``int64`` indices and ``float64`` distances in the mapping's order —
    the form a memoised label is stored in, built once per label.
    """
    nodes = np.fromiter(label.keys(), dtype=np.int64, count=len(label))
    dists = np.fromiter(label.values(), dtype=np.float64, count=len(label))
    return nodes, dists
