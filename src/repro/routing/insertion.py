"""Greedy insertion of an order into an existing route.

This is the primitive the GDP baseline [9] is built on: given a worker's
current route, try every position pair for the new order's pickup and
dropoff stops, keep the cheapest insertion that still satisfies the
sequential / deadline / capacity constraints.  The WATTER planner also
uses it as a fallback for groups too large to plan exactly.

``cheapest_insertion`` is the search itself, over stop-index sequences
and a stop x stop travel-time matrix; ``insert_order_into_route`` wraps
it for callers that hold a :class:`Route`, and builds a ``Route`` only
for the insertion it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Iterator, NamedTuple, Sequence, TYPE_CHECKING

from ..model.route import Route, RouteStop, StopKind
from .feasibility import check_sequential, sequence_cost

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order
    from ..network.graph import RoadNetwork


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of the cheapest feasible insertion of an order."""

    route: Route
    added_travel_time: float
    pickup_position: int
    dropoff_position: int


class SequenceInsertion(NamedTuple):
    """The cheapest feasible insertion into a stop-index sequence."""

    sequence: list[int]
    cost: float
    added: float
    pickup_position: int
    dropoff_position: int


def new_stop_legs(pickup: int) -> Iterator[tuple[int, int]]:
    """The legs between stops ``pickup``, ``pickup + 1`` and all earlier stops.

    These are the legs inserting that pickup/dropoff pair among stops
    ``0 .. pickup - 1`` can use: pickup to dropoff, and every pairing of
    a new stop with an earlier one, both ways.  Taken for each order in
    turn this covers every leg a stop order over them can use, i.e. all
    ordered stop pairs except a dropoff back to its own pickup.
    """
    dropoff = pickup + 1
    yield pickup, dropoff
    for other in range(pickup):
        for stop in (pickup, dropoff):
            yield other, stop
            yield stop, other


def price_new_stops(
    times: list[list[float]],
    nodes: Sequence[int],
    pickup: int,
    travel_time: Callable[[int, int], float],
) -> None:
    """Fill the :func:`new_stop_legs` of ``pickup`` by scalar ``travel_time`` reads.

    Scalar reads are the calls a ``Route`` is priced by, not entries of
    a ``travel_times_many`` block: a backend may answer the two through
    different searches (forward versus reverse Dijkstra on ``lazy``)
    whose sums differ in the last bit.
    """
    for source, target in new_stop_legs(pickup):
        times[source][target] = travel_time(nodes[source], nodes[target])


def cheapest_insertion(
    sequence: Sequence[int],
    base_cost: float,
    pickup: int,
    dropoff: int,
    times: Sequence[Sequence[float]],
    load_change: Sequence[int],
    due: Sequence[float],
    capacity: int,
    start: float,
) -> SequenceInsertion | None:
    """Insert stops ``pickup`` and ``dropoff`` where they add the least time.

    ``sequence`` is the stop order being extended and ``base_cost`` its
    travel time; the remaining arguments are those of
    :func:`~repro.routing.feasibility.sequence_cost`, which prices every
    position pair.  Ties keep the earliest position pair.
    """
    best: SequenceInsertion | None = None
    for pickup_pos in range(len(sequence) + 1):
        for dropoff_pos in range(pickup_pos + 1, len(sequence) + 2):
            candidate = list(sequence)
            candidate.insert(pickup_pos, pickup)
            candidate.insert(dropoff_pos, dropoff)
            cost = sequence_cost(candidate, times, load_change, due, capacity, start)
            if cost is None:
                continue
            added = cost - base_cost
            if best is None or added < best.added:
                best = SequenceInsertion(
                    candidate, cost, added, pickup_pos, dropoff_pos
                )
    return best


def insert_order_into_route(
    route: Route | None,
    order: "Order",
    existing_orders: Sequence["Order"],
    capacity: int,
    start_time: float,
    network: "RoadNetwork",
    approach_time: float = 0.0,
) -> InsertionResult | None:
    """Insert ``order`` into ``route`` at the cheapest feasible position.

    Parameters
    ----------
    route:
        The route being extended.  ``None`` means the worker is idle and
        a fresh two-stop route is created.
    existing_orders:
        Orders already served by ``route`` (their constraints must keep
        holding after the insertion).
    capacity:
        Vehicle capacity.
    start_time:
        Time at which the (new) route starts being driven.
    network:
        Road network for pricing.
    approach_time:
        Travel time from the worker's current position to the first stop
        of the candidate route, included in deadline checks.

    Returns
    -------
    InsertionResult | None
        The cheapest feasible insertion, or ``None`` if every position
        violates a constraint.
    """
    if route is None:
        stops: list[RouteStop] = []
        base_cost = 0.0
        unservable = bool(existing_orders)
    else:
        stops = list(route.stops)
        base_cost = route.total_travel_time
        unservable = bool(check_sequential(route, existing_orders))
    if unservable:
        # An existing order is missing a stop or is dropped off before
        # it is picked up; no insertion can repair that.
        return None
    pickup = len(stops)
    dropoff = pickup + 1
    stops.append(RouteStop(order.pickup, order.order_id, StopKind.PICKUP))
    stops.append(RouteStop(order.dropoff, order.order_id, StopKind.DROPOFF))

    riders = {member.order_id: member.riders for member in existing_orders}
    riders[order.order_id] = order.riders
    load_change = [
        riders.get(stop.order_id, 0) * (1 if stop.kind is StopKind.PICKUP else -1)
        for stop in stops
    ]
    due = [inf] * len(stops)
    due[dropoff] = order.deadline
    if route is not None:
        for member in existing_orders:
            due[route.dropoff_index(member.order_id)] = member.deadline

    # The legs an insertion can use: the route's own, then the new
    # stops' against the old ones.
    nodes = [stop.node for stop in stops]
    times = [[0.0] * len(stops) for _ in stops]
    for index in range(pickup - 1):
        times[index][index + 1] = network.travel_time(nodes[index], nodes[index + 1])
    price_new_stops(times, nodes, pickup, network.travel_time)

    found = cheapest_insertion(
        range(pickup), base_cost, pickup, dropoff,
        times, load_change, due, capacity, start_time + approach_time,
    )
    if found is None:
        return None
    return InsertionResult(
        route=Route([stops[index] for index in found.sequence], network),
        added_travel_time=found.added,
        pickup_position=found.pickup_position,
        dropoff_position=found.dropoff_position,
    )
