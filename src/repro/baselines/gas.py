"""GAS baseline [2]: batch-based grouping with utility maximisation.

GAS buffers the orders released during one batch window (a few seconds),
then — at the batch boundary — enumerates candidate order groups for the
available workers, scores each group by its *utility* (the travel time
saved compared with serving the members individually) and greedily
commits disjoint groups in decreasing utility order.  Orders that could
not be grouped or assigned stay buffered for the next batch until their
deadline makes them unservable.

The group enumeration inside each batch is exhaustive: every buffered
singleton and every pair of the oldest buffered orders is a candidate
on every batch.  Most pairs never share, and a pair found unshareable
stays so while both members wait (deadlines only come closer), so GAS
remembers those pairs and skips them in later batches; the route
planner answers the other repeats from its memo of exact plans.  The
batch boundary is what prevents GAS from matching orders across batches
(Example 1), so its extra time and service rate trail the WATTER
variants.
"""

from __future__ import annotations

import itertools

from ..config import SimulationConfig
from ..model.group import Group
from ..model.order import Order
from ..routing.planner import RoutePlanner
from ..simulation.dispatcher import Dispatcher, DispatchResult, book_group
from ..simulation.fleet import WorkerFleet


#: Maximum number of buffered orders entering the combinatorial group
#: enumeration of one batch (oldest first); singletons are always
#: considered for every buffered order.
_ENUMERATION_CAP = 24


class GASDispatcher(Dispatcher):
    """Batch-based grouping and assignment (the GAS baseline)."""

    name = "GAS"

    def __init__(
        self,
        planner: RoutePlanner,
        fleet: WorkerFleet,
        config: SimulationConfig,
    ) -> None:
        self._planner = planner
        self._fleet = fleet
        self._config = config
        # Pairwise grouping dominates what the additive tree of [2] finds on
        # sparse batches and keeps the enumeration polynomial; larger groups
        # reproduce the exponential blow-up the paper reports for GAS.
        self._max_group = min(config.max_group_size, 2)
        self._buffer: list[Order] = []
        self._next_batch_end: float | None = None
        self._forget_unshareable()

    def _forget_unshareable(self) -> None:
        # Pairs whose plan was infeasible, keyed by member ids in
        # enumeration order (the planner memo's key), while both wait.
        self._unshareable: set[tuple[int, int]] = set()

    def __getstate__(self) -> dict:
        # Like the planner memo, the set is a cache: a checkpoint
        # carries the dispatcher without it.
        state = dict(self.__dict__)
        del state["_unshareable"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._forget_unshareable()

    @property
    def fleet(self) -> WorkerFleet:
        """The worker fleet assignments are booked against."""
        return self._fleet

    # ------------------------------------------------------------------
    # Dispatcher interface
    # ------------------------------------------------------------------
    def submit(self, order: Order, now: float) -> DispatchResult:
        """Buffer the order until the end of the current batch."""
        self._buffer.append(order)
        if self._next_batch_end is None:
            self._next_batch_end = self._batch_end(now)
        return DispatchResult.empty()

    def tick(self, now: float) -> DispatchResult:
        """Process the batch if the batch window has elapsed."""
        if self._next_batch_end is None or now < self._next_batch_end:
            return self._drop_expired(now)
        self._next_batch_end = self._batch_end(now)
        return self._process_batch(now)

    def flush(self, now: float) -> DispatchResult:
        """Process one final batch, then reject whatever is left."""
        result = self._process_batch(now)
        rejected = tuple(self._buffer)
        self._buffer.clear()
        self._forget({order.order_id for order in rejected})
        return result.merge(DispatchResult(rejected=rejected))

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    def _batch_end(self, now: float) -> float:
        """End of the batch window (one check period wide) holding ``now``."""
        period = self._config.check_period
        return ((now // period) + 1) * period

    def _process_batch(self, now: float) -> DispatchResult:
        expired = self._drop_expired(now)
        if not self._buffer:
            return expired
        self._fleet.release_finished(now)
        self._fleet.prime_approaches({order.pickup for order in self._buffer}, now)
        candidates = self._enumerate_groups(now)
        candidates.sort(key=lambda item: -item[0])
        served = []
        assigned: set[int] = set()
        for utility, group in candidates:
            if any(order.order_id in assigned for order in group.orders):
                continue
            if utility < 0:
                continue
            records = book_group(self._fleet, group, now)
            if records is None:
                continue
            assigned.update(order.order_id for order in group.orders)
            served.extend(records)
        self._buffer = [
            order for order in self._buffer if order.order_id not in assigned
        ]
        self._forget(assigned)
        return expired.merge(DispatchResult(served=tuple(served)))

    def _enumerate_groups(self, now: float) -> list[tuple[float, Group]]:
        """All feasible groups of buffered orders with their utility.

        Utility of a group is the travel time saved against serving each
        member alone: ``sum_i cost(p_i, d_i) - T(L)``.  Singletons have
        zero utility and act as the fallback assignment.

        The enumeration is exhaustive and repeats every batch.  To keep
        the per-batch cost bounded when unassigned orders accumulate, the
        pairs are drawn from at most the ``_ENUMERATION_CAP`` oldest
        buffered orders (the full additive tree of [2] is exponential in
        the batch size).  A pair found unshareable in an earlier batch is
        skipped before anything is planned; a group planned in an earlier
        batch is answered from the planner's memo while its route still
        meets every deadline.
        """
        groups: list[tuple[float, Group]] = []
        capacity = self._config.max_capacity
        buffer = sorted(self._buffer, key=lambda order: order.release_time)
        for order in buffer:
            planned = self._planner.try_plan([order], capacity, now)
            if planned is None:
                continue
            groups.append(
                (
                    0.0,
                    Group(
                        orders=(order,),
                        route=planned.route,
                        created_at=now,
                        weights=self._config.weights,
                    ),
                )
            )
        if self._max_group < 2:
            return groups
        unshareable = self._unshareable
        for first, second in itertools.combinations(buffer[:_ENUMERATION_CAP], 2):
            pair = (first.order_id, second.order_id)
            if pair in unshareable or first.riders + second.riders > capacity:
                continue
            planned = self._planner.try_plan([first, second], capacity, now)
            if planned is None:
                unshareable.add(pair)
                continue
            group = Group(
                orders=(first, second),
                route=planned.route,
                created_at=now,
                weights=self._config.weights,
            )
            individual = first.shortest_time + second.shortest_time
            groups.append((individual - planned.total_travel_time, group))
        return groups

    def _drop_expired(self, now: float) -> DispatchResult:
        rejected = tuple(order for order in self._buffer if order.is_expired(now))
        if rejected:
            rejected_ids = {order.order_id for order in rejected}
            self._buffer = [
                order for order in self._buffer if order.order_id not in rejected_ids
            ]
            self._forget(rejected_ids)
        return DispatchResult(rejected=rejected)

    def _forget(self, order_ids: set[int]) -> None:
        """Drop the plans and unshareable pairs of orders that left."""
        self._planner.forget(order_ids)
        if self._unshareable:
            self._unshareable = {
                pair
                for pair in self._unshareable
                if pair[0] not in order_ids and pair[1] not in order_ids
            }
