"""Spatial index over worker locations for candidate pruning.

``WorkerFleet.find_worker_for`` asks "which idle worker is nearest (in
travel time) to this pickup node?".  Scanning the whole fleet answers
that in O(fleet) oracle probes; on city-scale fleets only a handful of
workers are plausibly closest.  :class:`WorkerSpatialIndex` buckets
workers by the grid cell of their current node (the paper's Section
VII-A grid index) and serves them in Chebyshev rings of increasing
distance around a query node.  The index holds whoever its owner puts
in it; the fleet keeps *idle* workers only — out on ``assign``, back in
at the route's end node on release — so a search never reads a worker
that could not take the group.

Each ring comes with a *lower bound* on the travel time of any worker
in it: a worker in a cell at Chebyshev ring ``r`` is at least
``(r - 1) * min_cell_extent`` Euclidean units away, and no road path
can cover Euclidean distance faster than the network's fastest edge, so
``travel_time >= euclidean / max_speed``.  The caller hands the search
a ``cut`` on that bound — the best worker found so far is nearer, or
the group's deadline is already out of reach from that far — and the
search stops at the first ring it rules out, turning the O(fleet) scan
into an O(nearby) one without changing the selected worker.

Graphs with teleport-like edges (zero travel time over positive
distance) degrade gracefully: the bound collapses to zero and the
search visits every ring, which is exactly the previous full scan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterator, TYPE_CHECKING

from ..network.grid import GridIndex

if TYPE_CHECKING:  # pragma: no cover
    from ..network.graph import RoadNetwork


class WorkerSpatialIndex:
    """Node-bucket index of worker locations over a grid partition.

    One run's fleet owns it and no other thread reads it, so it takes
    no lock.

    Parameters
    ----------
    network:
        Road network the workers move on (provides coordinates and the
        fastest-edge speed for the ring lower bounds).
    grid:
        Grid partition of the network's bounding box.
    """

    def __init__(self, network: "RoadNetwork", grid: GridIndex) -> None:
        self._network = network
        self._grid = grid
        self._cell_workers: dict[int, set[int]] = defaultdict(set)
        self._worker_cell: dict[int, int] = {}
        min_x, min_y, max_x, max_y = network.bounding_box()
        self._cell_extent = min(
            ((max_x - min_x) or 1.0) / grid.size,
            ((max_y - min_y) or 1.0) / grid.size,
        )
        self._max_speed = self._fastest_edge_speed(network)
        # ``(lower bound, cells)`` per ring of a centre cell, nearest
        # first.  It never changes, so it is built on the first search
        # from that cell and kept.
        self._ring_geometry: dict[int, tuple[tuple[float, tuple[int, ...]], ...]] = {}
        #: Number of ring-expanding searches served (for benchmarks).
        self.searches = 0
        #: Workers yielded to callers across all searches; compare with
        #: ``searches * len(fleet)`` to see the pruning win.
        self.candidates_yielded = 0

    @staticmethod
    def _fastest_edge_speed(network: "RoadNetwork") -> float:
        """Fastest Euclidean speed of any edge (units per second)."""
        graph = network.graph
        coords = [graph.coordinates(node) for node in graph.nodes_sorted]
        fastest = 0.0
        for tail, heads in enumerate(graph.successors):
            ux, uy = coords[tail]
            for head, travel_time in heads:
                vx, vy = coords[head]
                length = ((vx - ux) ** 2 + (vy - uy) ** 2) ** 0.5
                if length <= 0.0:
                    continue
                if travel_time <= 0.0:
                    return float("inf")
                speed = length / travel_time
                if speed > fastest:
                    fastest = speed
        return fastest

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._worker_cell)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._worker_cell

    def insert(self, worker_id: int, node: int) -> None:
        """Index (or re-index) a worker at ``node``."""
        cell = self._grid.cell_of(node)
        previous = self._worker_cell.get(worker_id)
        if previous == cell:
            return
        if previous is not None:
            self._cell_workers[previous].discard(worker_id)
        self._worker_cell[worker_id] = cell
        self._cell_workers[cell].add(worker_id)

    def remove(self, worker_id: int) -> None:
        """Drop a worker from the index (no-op when absent)."""
        cell = self._worker_cell.pop(worker_id, None)
        if cell is not None:
            self._cell_workers[cell].discard(worker_id)

    def workers_in_cell(self, cell: int) -> frozenset[int]:
        """Worker ids currently bucketed in ``cell`` (for tests)."""
        return frozenset(self._cell_workers.get(cell, ()))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rings(
        self, node: int, cut: Callable[[float], bool] | None = None
    ) -> Iterator[tuple[float, list[int]]]:
        """Yield ``(travel_time_lower_bound, worker_ids)`` per ring.

        Rings are visited nearest first and the bounds are
        non-decreasing.  ``cut``, when given, is asked before each ring
        is read whether workers at least that ring's bound away have
        stopped mattering to the caller; the first yes ends the search,
        so ``cut`` must stay true once true as the bound grows.  Without
        it every indexed worker is yielded exactly once; empty rings are
        skipped.  The benchmark counters are updated once per search,
        when the generator finishes or is closed.
        """
        center = self._grid.cell_of(node)
        geometry = self._ring_geometry.get(center)
        if geometry is None:
            geometry = self._ring_geometry[center] = self._build_rings(center)
        cell_workers = self._cell_workers
        remaining = len(self._worker_cell)
        yielded = 0
        try:
            for bound, cells in geometry:
                if remaining <= 0 or (cut is not None and cut(bound)):
                    return
                ids: list[int] = []
                for cell in cells:
                    bucket = cell_workers.get(cell)
                    if bucket:
                        ids.extend(bucket)
                if not ids:
                    continue
                ids.sort()  # deterministic order within a ring
                remaining -= len(ids)
                yielded += len(ids)
                yield bound, ids
        finally:
            self.searches += 1
            self.candidates_yielded += yielded

    def _build_rings(self, center: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """``(lower bound, cells)`` of every ring around ``center``."""
        grid = self._grid
        row, col = grid.cell_coordinates(center)
        size = grid.size
        max_radius = max(row, col, size - 1 - row, size - 1 - col)
        return tuple(
            (self.ring_lower_bound(radius), tuple(grid.ring(center, radius)))
            for radius in range(max_radius + 1)
        )

    def ring_lower_bound(self, radius: int) -> float:
        """Lower bound (seconds) on travel time from a query node to any
        worker whose cell is at Chebyshev ring ``radius``."""
        if radius <= 1 or self._max_speed <= 0.0:
            return 0.0
        distance = (radius - 1) * self._cell_extent
        if self._max_speed == float("inf"):
            return 0.0
        return distance / self._max_speed

