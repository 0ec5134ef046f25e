"""Obviously-correct route planner kept as the differential-test oracle.

This is the planner the library shipped before the array-state
branch-and-bound: it enumerates every stop permutation, keeps those
where pickups precede dropoffs, builds a ``Route`` for each (one scalar
``travel_time`` per leg) and runs the public ``check_route`` verifier on
it; groups above ``exact_group_limit`` are grown by trying every
insertion position with a fresh ``Route`` per candidate.  It is slow on
purpose and must stay free of the production planner's code: the tests
in ``tests/test_planner_kernel.py`` require the two to agree exactly.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.model.order import Order
from repro.model.route import Route, RouteStop, StopKind
from repro.network.graph import RoadNetwork
from repro.routing.feasibility import check_route


def candidate_stop_orders(orders: Sequence[Order]) -> Iterator[list[RouteStop]]:
    """Every stop permutation where each pickup precedes its dropoff."""
    stops = []
    for order in orders:
        stops.append(RouteStop(order.pickup, order.order_id, StopKind.PICKUP))
        stops.append(RouteStop(order.dropoff, order.order_id, StopKind.DROPOFF))
    for permutation in itertools.permutations(stops):
        picked: set[int] = set()
        for stop in permutation:
            if stop.kind is StopKind.PICKUP:
                picked.add(stop.order_id)
            elif stop.order_id not in picked:
                break
        else:
            yield list(permutation)


def insert_by_enumeration(
    route: Route | None,
    order: Order,
    existing_orders: Sequence[Order],
    capacity: int,
    start_time: float,
    network: RoadNetwork,
) -> tuple[Route, float, int, int] | None:
    """Cheapest feasible insertion: ``(route, added, pickup_pos, dropoff_pos)``."""
    pickup_stop = RouteStop(order.pickup, order.order_id, StopKind.PICKUP)
    dropoff_stop = RouteStop(order.dropoff, order.order_id, StopKind.DROPOFF)
    all_orders = list(existing_orders) + [order]
    if route is None:
        candidate = Route([pickup_stop, dropoff_stop], network)
        report = check_route(candidate, all_orders, capacity, start_time)
        if not report.feasible:
            return None
        return candidate, candidate.total_travel_time, 0, 1
    base_stops = list(route.stops)
    best: tuple[Route, float, int, int] | None = None
    for pickup_pos in range(len(base_stops) + 1):
        for dropoff_pos in range(pickup_pos + 1, len(base_stops) + 2):
            stops = list(base_stops)
            stops.insert(pickup_pos, pickup_stop)
            stops.insert(dropoff_pos, dropoff_stop)
            candidate = Route(stops, network)
            report = check_route(candidate, all_orders, capacity, start_time)
            if not report.feasible:
                continue
            added = candidate.total_travel_time - route.total_travel_time
            if best is None or added < best[1]:
                best = (candidate, added, pickup_pos, dropoff_pos)
    return best


class BruteForcePlanner:
    """Minimum-travel-time feasible route by exhaustive enumeration."""

    def __init__(self, network: RoadNetwork, exact_group_limit: int = 3) -> None:
        self.network = network
        self._exact_group_limit = max(exact_group_limit, 1)

    def plan(
        self, orders: Sequence[Order], capacity: int, start_time: float
    ) -> Route | None:
        """The cheapest feasible route (first found on ties), or ``None``."""
        members = list(orders)
        if not members:
            return None
        self._prefetch(members)
        if len(members) <= self._exact_group_limit:
            return self._plan_exact(members, capacity, start_time)
        return self._plan_by_insertion(members, capacity, start_time)

    def _plan_exact(self, orders, capacity, start_time) -> Route | None:
        best: Route | None = None
        for stops in candidate_stop_orders(orders):
            route = Route(stops, self.network)
            if not check_route(route, orders, capacity, start_time).feasible:
                continue
            if best is None or route.total_travel_time < best.total_travel_time:
                best = route
        return best

    def _plan_by_insertion(self, orders, capacity, start_time) -> Route | None:
        seed, *rest = sorted(orders, key=lambda order: order.release_time)
        route = Route(
            [
                RouteStop(seed.pickup, seed.order_id, StopKind.PICKUP),
                RouteStop(seed.dropoff, seed.order_id, StopKind.DROPOFF),
            ],
            self.network,
        )
        placed = [seed]
        for order in rest:
            found = insert_by_enumeration(
                route, order, placed, capacity, start_time, self.network
            )
            if found is None:
                return None
            route = found[0]
            placed.append(order)
        if not check_route(route, placed, capacity, start_time).feasible:
            return None
        return route

    def _prefetch(self, orders: Sequence[Order]) -> None:
        """The old planner's oracle warm-up, part of its observable behaviour.

        On the ``lazy`` backend this call decides which search direction
        (forward or reverse Dijkstra) the scalar answers that follow come
        from, and the two directions may differ in the last bit.
        """
        pickups = {order.pickup for order in orders}
        dropoffs = {order.dropoff for order in orders}
        targets = pickups | dropoffs
        sources = set(pickups) if len(orders) == 1 else set(targets)
        self.network.travel_times_many(sources, targets)
