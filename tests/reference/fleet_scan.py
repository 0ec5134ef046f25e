"""The nearest-worker search as a full-fleet scan.

``_find_by_scan`` and ``_group_feasible_with_approach`` are the scan
``WorkerFleet`` ran when built with ``use_spatial_index=False``, kept
verbatim as the reference the ring search is held to in
``tests/test_fleet_search.py`` and ``tests/test_spatial.py``: it prices
every idle worker with enough seats in one batch and tests each
candidate's deadlines one by one, never reading the spatial index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.model.worker import Worker
from repro.simulation.fleet import WorkerFleet

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.group import Group


class ScanningWorkerFleet(WorkerFleet):
    """A :class:`WorkerFleet` whose nearest-worker search is the scan.

    Bookings, releases and the search memo are the production fleet's;
    only the search itself is replaced.
    """

    def _find_by_rings(self, group: "Group", now: float) -> Worker | None:
        return self._find_by_scan(group, now)

    def _find_by_scan(self, group: "Group", now: float) -> Worker | None:
        """Full-fleet scan: the reference the ring search must agree with."""
        riders = group.total_riders()
        candidates = [
            worker
            for worker in self._workers.values()
            if worker.is_idle and worker.capacity >= riders
        ]
        if not candidates:
            return None
        start_node = group.route.start_node
        # One batched oracle call for every candidate's approach leg;
        # workers parked at unreachable locations are simply skipped.
        approaches = self._network.travel_times_many(
            (worker.location for worker in candidates), [start_node]
        )
        best_worker: Worker | None = None
        best_approach = float("inf")
        for worker in candidates:
            approach = approaches.get((worker.location, start_node))
            if approach is None or approach >= best_approach:
                continue
            if not self._group_feasible_with_approach(group, now, approach):
                continue
            best_worker = worker
            best_approach = approach
        return best_worker

    def _group_feasible_with_approach(
        self, group: "Group", now: float, approach: float
    ) -> bool:
        for order in group.orders:
            arrival = now + approach + group.route.sub_route_time(order.order_id)
            if arrival > order.deadline:
                return False
        return True
