"""Constraint checks for candidate routes (Definition 7).

A route is feasible for a group served by a worker when:

1. *Sequential constraint*: every order's pickup precedes its dropoff.
2. *Deadline constraint*: ``t + t_r + T(L^{(i)}) < tau`` for every
   member ``i`` — the order is dropped off before its deadline, counting
   the response time already spent and the approach time of the worker.
3. *Capacity constraint*: the number of riders on board never exceeds
   the vehicle capacity.

The checks are separated from the planner so a finished route can be
verified independently of the search that produced it.

Two forms of the same constraints live here.  ``check_route`` verifies a
materialised :class:`Route` and explains every violation; it is the
public verifier.  ``sequence_cost`` prices a candidate stop order held
as integers against a stop x stop travel-time matrix and answers only
"feasible, and at what cost"; the insertion search runs it per
candidate and the planner's exact search applies the same rules one stop
at a time, so no ``Route`` exists until a winner does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, TYPE_CHECKING

from ..exceptions import RoutingError

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order
    from ..model.route import Route


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking a route against the METRS constraints.

    ``violations`` lists human-readable reasons; an empty list means the
    route is feasible.
    """

    feasible: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    @staticmethod
    def ok() -> "FeasibilityReport":
        """A passing report."""
        return FeasibilityReport(feasible=True)

    @staticmethod
    def fail(*violations: str) -> "FeasibilityReport":
        """A failing report carrying the violation reasons."""
        return FeasibilityReport(feasible=False, violations=tuple(violations))


def check_sequential(route: "Route", orders: Sequence["Order"]) -> list[str]:
    """Check that every order's pickup precedes its dropoff on the route."""
    violations = []
    for order in orders:
        try:
            pickup_idx = route.pickup_index(order.order_id)
            dropoff_idx = route.dropoff_index(order.order_id)
        except RoutingError:  # missing stop: a violation, not a crash
            violations.append(f"order {order.order_id} missing a stop on the route")
            continue
        if pickup_idx >= dropoff_idx:
            violations.append(
                f"order {order.order_id} dropoff precedes its pickup"
            )
    return violations


def check_deadlines(
    route: "Route",
    orders: Sequence["Order"],
    start_time: float,
    approach_time: float = 0.0,
) -> list[str]:
    """Check the deadline constraint for every order.

    Parameters
    ----------
    route:
        Candidate route.
    orders:
        The group members.
    start_time:
        Time at which the worker would be dispatched (``t + t_r``).
    approach_time:
        Travel time for the worker to reach the route's first stop.
    """
    violations = []
    for order in orders:
        arrival = start_time + approach_time + route.sub_route_time(order.order_id)
        if arrival > order.deadline:
            violations.append(
                f"order {order.order_id} would be dropped off at {arrival:.1f}s "
                f"after its deadline {order.deadline:.1f}s"
            )
    return violations


def check_capacity(
    route: "Route", orders: Sequence["Order"], capacity: int
) -> list[str]:
    """Check that the onboard rider count never exceeds ``capacity``."""
    peak = route.max_onboard_riders(orders)
    if peak > capacity:
        return [f"route peaks at {peak} riders but capacity is {capacity}"]
    return []


def check_route(
    route: "Route",
    orders: Iterable["Order"],
    capacity: int,
    start_time: float,
    approach_time: float = 0.0,
) -> FeasibilityReport:
    """Run all three METRS constraints against a candidate route."""
    members = list(orders)
    violations = []
    violations.extend(check_sequential(route, members))
    violations.extend(check_deadlines(route, members, start_time, approach_time))
    violations.extend(check_capacity(route, members, capacity))
    if violations:
        return FeasibilityReport.fail(*violations)
    return FeasibilityReport.ok()


def sequence_cost(
    sequence: Sequence[int],
    times: Sequence[Sequence[float]],
    load_change: Sequence[int],
    due: Sequence[float],
    capacity: int,
    start: float,
) -> float | None:
    """Travel time of a stop order, or ``None`` if it breaks a constraint.

    The array form of building a ``Route`` and running ``check_route``
    on it, with the same arithmetic in the same order: legs accumulate
    left to right from ``0.0`` and a stop is late when ``start +
    elapsed`` exceeds its due time.

    Parameters
    ----------
    sequence:
        Stop indices in visiting order.
    times:
        ``times[a][b]`` is the travel time from stop ``a`` to stop ``b``.
    load_change:
        Riders boarding (positive) or alighting (negative) per stop.
    due:
        Latest arrival per stop: the order's deadline at a dropoff,
        ``inf`` at a pickup.
    capacity:
        Vehicle capacity.
    start:
        Time the vehicle reaches the first stop (dispatch time plus the
        approach leg).
    """
    previous = sequence[0]
    onboard = load_change[previous]
    if onboard > capacity or start > due[previous]:
        return None
    elapsed = 0.0
    for stop in sequence[1:]:
        elapsed = elapsed + times[previous][stop]
        onboard += load_change[stop]
        if onboard > capacity or start + elapsed > due[stop]:
            return None
        previous = stop
    return elapsed
