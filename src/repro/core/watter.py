"""The WATTER dispatcher: pool + grouping strategy + worker assignment.

``WatterDispatcher`` wires the pieces of the framework together exactly
as Figure 2 describes:

* arriving orders are inserted into the order pool (the temporal
  shareability graph),
* on every periodic check the pool evaluates each order's current best
  group and asks the configured strategy (online / timeout / expect)
  whether to dispatch,
* a group is only released when the fleet has an idle worker that can
  feasibly serve it; the nearest such worker is booked,
* orders that exceed their wait limit without any usable group are
  rejected.

The three paper variants differ only in the strategy object passed in,
so the class exposes factory helpers ``online`` / ``timeout`` /
``expect`` mirroring WATTER-online, WATTER-timeout and WATTER-expect.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..model.order import Order
from ..routing.planner import RoutePlanner
from ..simulation.dispatcher import Dispatcher, DispatchResult, book_group
from ..simulation.fleet import WorkerFleet
from .pool import OrderPool
from .strategies import (
    DispatchStrategy,
    OnlineStrategy,
    ThresholdProvider,
    ThresholdStrategy,
    TimeoutStrategy,
)


class WatterDispatcher(Dispatcher):
    """The full WATTER framework driving a worker fleet.

    Parameters
    ----------
    planner:
        Route planner shared by the pool and the assignment step.
    fleet:
        The worker fleet assignments are booked against.
    strategy:
        Hold-or-dispatch rule (see :mod:`repro.core.strategies`).
    config:
        Simulation parameters (capacity, group size, weights).
    """

    name = "WATTER"

    def __init__(
        self,
        planner: RoutePlanner,
        fleet: WorkerFleet,
        strategy: DispatchStrategy,
        config: SimulationConfig,
    ) -> None:
        self._planner = planner
        self._fleet = fleet
        self._strategy = strategy
        self._config = config
        self._pool = OrderPool(
            planner,
            strategy,
            capacity=config.max_capacity,
            max_group_size=config.max_group_size,
            weights=config.weights,
        )
        self._orders: dict[int, Order] = {}
        self.name = strategy.name

    # ------------------------------------------------------------------
    # factory helpers for the paper's three variants
    # ------------------------------------------------------------------
    @classmethod
    def online(
        cls, planner: RoutePlanner, fleet: WorkerFleet, config: SimulationConfig
    ) -> "WatterDispatcher":
        """WATTER-online: dispatch each order as early as possible."""
        return cls(planner, fleet, OnlineStrategy(), config)

    @classmethod
    def timeout(
        cls, planner: RoutePlanner, fleet: WorkerFleet, config: SimulationConfig
    ) -> "WatterDispatcher":
        """WATTER-timeout: dispatch each order as late as possible."""
        return cls(planner, fleet, TimeoutStrategy(config.check_period), config)

    @classmethod
    def expect(
        cls,
        planner: RoutePlanner,
        fleet: WorkerFleet,
        config: SimulationConfig,
        provider: ThresholdProvider,
    ) -> "WatterDispatcher":
        """WATTER-expect: the threshold-based strategy of Algorithm 2."""
        strategy = ThresholdStrategy(provider, check_period=config.check_period)
        return cls(planner, fleet, strategy, config)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def pool(self) -> OrderPool:
        """The order pool (exposed for state featurisation and tests)."""
        return self._pool

    @property
    def fleet(self) -> WorkerFleet:
        """The worker fleet (exposed for metrics and state featurisation)."""
        return self._fleet

    @property
    def strategy(self) -> DispatchStrategy:
        """The hold-or-dispatch strategy in use."""
        return self._strategy

    # ------------------------------------------------------------------
    # Dispatcher interface
    # ------------------------------------------------------------------
    def submit(self, order: Order, now: float) -> DispatchResult:
        """Insert a newly released order into the pool."""
        self._orders[order.order_id] = order
        self._pool.insert(order, now)
        return DispatchResult.empty()

    def tick(self, now: float) -> DispatchResult:
        """Run the periodic pool check and book dispatched groups.

        ``can_serve`` runs (and memoises) the full nearest-worker
        search, so the booking (:func:`book_group`) of the last group
        probed reuses the found worker instead of searching the fleet a
        second time.
        """
        self._fleet.release_finished(now)
        decisions = self._pool.check(now, can_assign=self._fleet.can_serve)
        served = []
        rejected = []
        for decision in decisions:
            if decision.dispatch and decision.group is not None:
                records = book_group(self._fleet, decision.group, now)
                if records is None:
                    # No idle worker is left for this group.  Two groups
                    # approved in one check can want the same nearest
                    # worker, and the fleet's find memo holds only the
                    # last group probed, so an earlier booking in this
                    # loop may have taken it: put the members back into
                    # the pool.
                    for order in decision.group.orders:
                        self._pool.insert(order, now)
                    continue
                served.extend(records)
            elif decision.reject:
                rejected.append(self._orders[decision.order_id])
        return DispatchResult(served=tuple(served), rejected=tuple(rejected))

    def flush(self, now: float) -> DispatchResult:
        """Reject everything still waiting at the end of the horizon."""
        decisions = self._pool.flush(now)
        return DispatchResult(
            rejected=tuple(self._orders[decision.order_id] for decision in decisions)
        )
