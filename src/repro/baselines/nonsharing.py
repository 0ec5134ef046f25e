"""Non-sharing baseline: every order rides alone.

This is the first strategy of Example 1: workers serve orders
sequentially, one at a time, with no pooling at all.  It is not one of
the paper's headline baselines but it provides the sanity floor every
sharing algorithm must beat and is required to reproduce Example 1.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..config import SimulationConfig
from ..model.group import Group
from ..model.order import Order
from ..routing.planner import RoutePlanner
from ..simulation.dispatcher import Dispatcher, DispatchResult, book_group
from ..simulation.fleet import WorkerFleet

if TYPE_CHECKING:  # pragma: no cover
    pass


class NonSharingDispatcher(Dispatcher):
    """Assign each order alone to the nearest idle worker.

    Orders that cannot be assigned immediately wait in a FIFO queue and
    are retried on every tick until either a worker frees up or their
    deadline can no longer be met (rejection).
    """

    name = "NonSharing"

    def __init__(
        self,
        planner: RoutePlanner,
        fleet: WorkerFleet,
        config: SimulationConfig,
    ) -> None:
        self._planner = planner
        self._fleet = fleet
        self._config = config
        self._queue: deque[Order] = deque()

    @property
    def fleet(self) -> WorkerFleet:
        """The worker fleet assignments are booked against."""
        return self._fleet

    # ------------------------------------------------------------------
    # Dispatcher interface
    # ------------------------------------------------------------------
    def submit(self, order: Order, now: float) -> DispatchResult:
        """Try to serve the order immediately, otherwise queue it."""
        self._queue.append(order)
        return self._drain_queue(now)

    def tick(self, now: float) -> DispatchResult:
        """Retry the queued orders against newly idle workers."""
        return self._drain_queue(now)

    def flush(self, now: float) -> DispatchResult:
        """Reject everything still queued at the end of the horizon."""
        rejected = tuple(self._queue)
        self._queue.clear()
        self._planner.forget(order.order_id for order in rejected)
        return DispatchResult(rejected=rejected)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drain_queue(self, now: float) -> DispatchResult:
        self._fleet.release_finished(now)
        self._fleet.prime_approaches(
            {order.pickup for order in self._queue if not order.is_expired(now)},
            now,
        )
        served = []
        dispatched = []
        rejected = []
        remaining: deque[Order] = deque()
        while self._queue:
            order = self._queue.popleft()
            if order.is_expired(now):
                rejected.append(order)
                continue
            group = self._singleton_group(order, now)
            if group is None:
                rejected.append(order)
                continue
            records = book_group(self._fleet, group, now)
            if records is None:
                remaining.append(order)
                continue
            dispatched.append(order)
            served.extend(records)
        self._queue = remaining
        self._planner.forget(order.order_id for order in (*dispatched, *rejected))
        return DispatchResult(served=tuple(served), rejected=tuple(rejected))

    def _singleton_group(self, order: Order, now: float) -> Group | None:
        planned = self._planner.try_plan([order], self._config.max_capacity, now)
        if planned is None:
            return None
        return Group(
            orders=(order,),
            route=planned.route,
            created_at=now,
            weights=self._config.weights,
        )
