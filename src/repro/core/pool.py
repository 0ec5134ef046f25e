"""The order pooling management algorithm (Algorithm 1).

``OrderPool`` owns the temporal shareability graph and drives its
lifecycle: new orders are inserted as they arrive; expired edges and
groups are pruned; on every periodic check each pooled order's best
group is fetched (O(1), the graph maintains it) and handed to the
dispatch strategy which decides to dispatch or hold (an order with no
group asks the strategy whether to ride alone); orders that can no
longer meet their deadline are rejected.

The pool does not know about workers — it emits :class:`PoolDecision`
records and the simulator (or the WATTER dispatcher) performs the
worker assignment, which is how the paper separates Algorithm 1 from
the assignment step (line 11: "assign the g to a worker to serve").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

from ..exceptions import MissingOrderError
from ..model.group import Group
from ..model.order import Order
from .shareability import TemporalShareabilityGraph
from .strategies import DispatchStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..routing.planner import RoutePlanner


@dataclass(frozen=True)
class PoolDecision:
    """Outcome of one periodic check for one order.

    Exactly one of the three flags is set:

    * ``dispatch`` — the order's best group should be assigned to a
      worker now (the group is attached),
    * ``reject`` — the order exceeded its wait limit without a usable
      group and leaves the pool unserved,
    * ``hold`` — the order stays in the pool.
    """

    order_id: int
    dispatch: bool = False
    reject: bool = False
    hold: bool = False
    group: Group | None = None


class OrderPool:
    """Algorithm 1: maintain waiting orders and decide when to release them.

    Parameters
    ----------
    planner:
        Route planner shared with the shareability graph.
    strategy:
        The hold-or-dispatch decision rule (Algorithm 2 or a variant).
    capacity:
        Fleet maximum capacity used for shareability tests.
    max_group_size:
        Largest clique size considered when building groups.
    weights:
        Extra-time trade-off coefficients.
    """

    def __init__(
        self,
        planner: "RoutePlanner",
        strategy: DispatchStrategy,
        capacity: int = 4,
        max_group_size: int = 4,
        weights=None,
    ) -> None:
        self._graph = TemporalShareabilityGraph(
            planner, capacity=capacity, max_group_size=max_group_size, weights=weights
        )
        self._strategy = strategy

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalShareabilityGraph:
        """The underlying temporal shareability graph."""
        return self._graph

    @property
    def strategy(self) -> DispatchStrategy:
        """The dispatch strategy consulted on every check."""
        return self._strategy

    def __len__(self) -> int:
        return len(self._graph)

    def __contains__(self, order_id: int) -> bool:
        return order_id in self._graph

    def pending_orders(self) -> Iterator[Order]:
        """Iterate over the orders currently waiting in the pool."""
        return self._graph.orders()

    def best_group(self, order_id: int) -> Group | None:
        """The order's current best group (``Gb[i]``)."""
        return self._graph.best_group(order_id)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def insert(self, order: Order, now: float) -> None:
        """Lines 2-4: insert a newly released order into the pool."""
        self._graph.insert_order(order, now)

    def check(self, now: float, can_assign=None) -> list[PoolDecision]:
        """Lines 7-16: the asynchronous periodic check over all pooled orders.

        Returns one decision per order that leaves the pool (dispatch or
        reject) plus hold decisions for the rest.  Orders dispatched as
        part of another order's group are not re-examined.

        Parameters
        ----------
        now:
            Current system timestamp.
        can_assign:
            Optional callable ``(group, now) -> bool``.  When provided, a
            group the strategy wants to dispatch is only released if the
            callable confirms a suitable worker exists (Algorithm 1
            line 11); otherwise the member orders keep waiting.
        """
        # Lines 5-6: drop edges (and thereby groups) that expired by ``now``.
        self._graph.expire_edges(now)
        decisions: list[PoolDecision] = []
        processed: set[int] = set()
        for order in list(self._graph.orders()):
            order_id = order.order_id
            if order_id in processed or order_id not in self._graph:
                continue
            group = self._graph.best_group(order_id)
            if group is not None:
                wants_dispatch = self._strategy.should_dispatch(group, now)
            elif self._strategy.should_dispatch_alone(order, now):
                # No shareable partner: ride alone if a worker can still
                # serve the order, otherwise keep waiting until its
                # deadline makes rejection final.
                group = self._graph.singleton_group(order_id, now)
                wants_dispatch = group is not None
            else:
                wants_dispatch = False
            if wants_dispatch and can_assign is not None:
                wants_dispatch = bool(can_assign(group, now))
            if wants_dispatch:
                member_ids = list(group.order_ids())
                self._graph.remove_orders(member_ids, now)
                processed.update(member_ids)
                decisions.append(
                    PoolDecision(order_id=order_id, dispatch=True, group=group)
                )
            elif order.is_expired(now):
                # Even dispatching alone right now would miss the deadline.
                self._graph.remove_order(order_id, now)
                processed.add(order_id)
                decisions.append(PoolDecision(order_id=order_id, reject=True))
            else:
                decisions.append(PoolDecision(order_id=order_id, hold=True))
        return decisions

    def remove(self, order_id: int, now: float) -> Order:
        """Force-remove an order (used when an assignment fails downstream)."""
        if order_id not in self._graph:
            raise MissingOrderError(order_id)
        return self._graph.remove_order(order_id, now)

    def flush(self, now: float) -> list[PoolDecision]:
        """Reject every remaining order (end-of-horizon cleanup)."""
        decisions = []
        for order in list(self._graph.orders()):
            self._graph.remove_order(order.order_id, now)
            decisions.append(PoolDecision(order_id=order.order_id, reject=True))
        return decisions
