"""Route entity (Definition 3) with per-order cost accounting.

A route is an ordered sequence of stops; each stop is either a pickup or
a dropoff of some order.  ``Route`` pre-computes, for each order, the
travel time of the sub-route from the first stop through its pickup to
its dropoff (``T(L^{(i)})`` in the paper), which is what the detour-time
definition (Definition 5) and the deadline constraint (Definition 7,
constraint 2) are expressed in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence, TYPE_CHECKING

from ..exceptions import RoutingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..network.graph import RoadNetwork
    from .order import Order


class StopKind(enum.Enum):
    """Whether a route stop picks a rider up or drops them off."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


@dataclass(frozen=True)
class RouteStop:
    """One stop of a route: a location visited for a specific order."""

    node: int
    order_id: int
    kind: StopKind


class Route:
    """An ordered sequence of stops with cached leg travel times.

    Parameters
    ----------
    stops:
        The stop sequence.  The first stop's node is where the assigned
        worker starts serving (the worker must first drive there from
        its own location; that approach leg is accounted separately by
        the simulator).
    network:
        Road network used to price the legs.
    leg_times:
        Travel time of each leg, for a caller that already holds the
        network's answers (the planner's ``leg_matrix``); by default
        every leg is one ``network.travel_time`` read.
    """

    def __init__(
        self,
        stops: Sequence[RouteStop],
        network: "RoadNetwork",
        leg_times: Sequence[float] | None = None,
    ) -> None:
        if not stops:
            raise RoutingError("a route needs at least one stop")
        self._stops = tuple(stops)
        self._network = network
        if leg_times is None:
            leg_times = [
                network.travel_time(previous.node, current.node)
                for previous, current in zip(self._stops, self._stops[1:])
            ]
        elif len(leg_times) != len(self._stops) - 1:
            raise RoutingError("a route needs one leg time between consecutive stops")
        self._leg_times = list(leg_times)
        self._cumulative: list[float] = [0.0]
        for leg in self._leg_times:
            self._cumulative.append(self._cumulative[-1] + leg)
        # First position of each order's pickup and dropoff stop, so the
        # per-order lookups below are O(1) instead of a scan per call.
        self._pickup_at: dict[int, int] = {}
        self._dropoff_at: dict[int, int] = {}
        for idx, stop in enumerate(self._stops):
            positions = (
                self._pickup_at if stop.kind is StopKind.PICKUP else self._dropoff_at
            )
            positions.setdefault(stop.order_id, idx)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def stops(self) -> tuple[RouteStop, ...]:
        """The stop sequence."""
        return self._stops

    @property
    def start_node(self) -> int:
        """Node of the first stop."""
        return self._stops[0].node

    @property
    def end_node(self) -> int:
        """Node of the last stop."""
        return self._stops[-1].node

    def __len__(self) -> int:
        return len(self._stops)

    def order_ids(self) -> list[int]:
        """Distinct order ids touched by the route, in first-visit order."""
        return list(dict.fromkeys(stop.order_id for stop in self._stops))

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    @property
    def total_travel_time(self) -> float:
        """``T(L)``: the sum of all leg travel times."""
        return self._cumulative[-1]

    def time_to_stop(self, index: int) -> float:
        """Travel time from the first stop to the stop at ``index``."""
        return self._cumulative[index]

    def pickup_index(self, order_id: int) -> int:
        """Index of the pickup stop of an order."""
        try:
            return self._pickup_at[order_id]
        except KeyError:
            raise RoutingError(
                f"order {order_id} has no pickup stop on this route"
            ) from None

    def dropoff_index(self, order_id: int) -> int:
        """Index of the dropoff stop of an order."""
        try:
            return self._dropoff_at[order_id]
        except KeyError:
            raise RoutingError(
                f"order {order_id} has no dropoff stop on this route"
            ) from None

    def sub_route_time(self, order_id: int) -> float:
        """``T(L^{(i)})``: travel time from the first stop to the order's dropoff."""
        return self.time_to_stop(self.dropoff_index(order_id))

    def detour_time(self, order: "Order") -> float:
        """Definition 5: ``t_d = T(L^{(i)}) - cost(l_p, l_d)``.

        Clamped at zero to absorb floating-point noise on routes where
        the order rides its own shortest path.
        """
        return max(self.sub_route_time(order.order_id) - order.shortest_time, 0.0)

    def max_onboard_riders(self, orders: Iterable["Order"]) -> int:
        """Largest number of riders simultaneously on board along the route."""
        riders_by_order = {order.order_id: order.riders for order in orders}
        on_board = 0
        peak = 0
        for stop in self._stops:
            riders = riders_by_order.get(stop.order_id, 0)
            if stop.kind is StopKind.PICKUP:
                on_board += riders
                peak = max(peak, on_board)
            else:
                on_board -= riders
        return peak

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"{stop.kind.value[0]}{stop.order_id}@{stop.node}" for stop in self._stops
        ]
        return f"Route({' -> '.join(parts)}, T={self.total_travel_time:.0f}s)"
