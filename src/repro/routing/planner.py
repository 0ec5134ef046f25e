"""Best-route planning for order groups.

Given a set of orders, ``RoutePlanner`` finds the feasible route with
minimal total travel time (the quantity ``T(L)`` that Definition 3 of
the paper prices).  A plan never leaves integer land until it has a
winner: the group's stops are numbered ``2i`` (pickup of member ``i``)
and ``2i + 1`` (its dropoff), one ``RoadNetwork.leg_matrix`` call
returns their stop x stop leg times, and candidates are stop-index
sequences priced off that matrix.  For
the small groups the paper considers (vehicle capacities 2-5, so groups
of 2-5 orders) a depth-first branch-and-bound over the interleavings is
exact and cheap; larger groups fall back to a greedy insertion
construction over the same matrix.  Only the winning sequence is
materialised as a :class:`Route`, from the same matrix entries: a plan
asks the oracle once.

The planner is the single source of feasible routes for the whole
library: the shareability graph, the WATTER dispatcher and the GAS
baseline all call into it, which keeps the constraint semantics in one
place.  ``routing.feasibility.check_route`` stays the public verifier
of a finished route; it no longer runs per candidate.

A plan starts at the group's first pickup: the worker's approach leg
is the fleet's business (``WorkerFleet`` checks it against the planned
route).  Dispatchers ask about the same groups again and again as time
moves on (every pool check, every batch), so exact plans are remembered
per member tuple.  A plan's stop order does not
depend on the start time and its feasibility only tightens as the start
time grows: a remembered answer is reused while every dropoff of the
remembered route is still on time, and an infeasible group stays
infeasible.  Callers :meth:`RoutePlanner.forget` an order once it
leaves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, NamedTuple, Sequence, TYPE_CHECKING

from ..exceptions import InfeasibleGroupError, UnreachableError
from ..model.route import Route, RouteStop, StopKind
from .insertion import cheapest_insertion, new_stop_legs

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order
    from ..network.graph import RoadNetwork


# The exact search visits at most (2k)! / 2^k stop orders for k orders
# (90 for k=3, 2520 for k=4) before pruning; larger groups fall back to
# the greedy-insertion construction.
_EXACT_GROUP_LIMIT = 3


@dataclass(frozen=True)
class PlannedGroup:
    """A feasible route for a group plus the cost the planner minimised."""

    route: Route
    total_travel_time: float


class _Remembered(NamedTuple):
    """An exact plan of one member tuple, as found at ``since``.

    ``planned`` is ``None`` for an infeasible group.  ``reaches`` holds
    the remembered route's travel time to each member's dropoff
    (``Route.sub_route_time``, the fold the search compares); it is
    empty for an infeasible group.
    """

    since: float
    members: tuple["Order", ...]
    planned: PlannedGroup | None
    reaches: tuple[float, ...]

    def answers(self, members: Sequence["Order"], start_time: float) -> bool:
        """Whether a fresh search from ``start_time`` would return ``planned``.

        Deadlines are fixed and legs do not depend on time, so the
        feasible stop orders at a later start are a subset of those at
        ``since``.  If the remembered winner is still among them it is
        still the cheapest and, among equally cheap orders, still the
        lexicographically first; an empty set stays empty.
        """
        if start_time < self.since:
            return False
        for remembered, member in zip(self.members, members):
            if remembered is not member:
                return False
        for reach, member in zip(self.reaches, members):
            if start_time + reach > member.deadline:
                return False
        return True


def _cheapest_stop_order(
    times: Sequence[Sequence[float]],
    load_change: Sequence[int],
    due: Sequence[float],
    capacity: int,
    start_time: float,
) -> tuple[float, list[int]] | None:
    """Exact minimum-travel-time feasible stop order and its cost, or ``None``.

    Depth-first branch-and-bound: a prefix is extended by every unused
    stop in ascending index, which visits complete orders in
    lexicographic order.  A branch is cut when the stop's pickup has not
    been visited, the pickup would overfill the vehicle, the dropoff
    would arrive after its deadline, or the prefix already costs at
    least as much as the incumbent.  Legs are non-negative and adding a
    non-negative float never decreases a sum, so the last cut loses no
    strictly cheaper completion and the first order found at the
    minimal cost is the one returned.
    """
    n = len(load_change)
    used = [False] * n
    order = [0] * n
    best_cost = inf
    best_order: list[int] | None = None

    def extend(last: int, depth: int, elapsed: float, onboard: int) -> None:
        nonlocal best_cost, best_order
        row = times[last]
        for stop in range(n):
            if used[stop]:
                continue
            if stop & 1:
                if not used[stop - 1]:
                    continue
                reach = elapsed + row[stop]
                if reach >= best_cost or start_time + reach > due[stop]:
                    continue
            else:
                if onboard + load_change[stop] > capacity:
                    continue
                reach = elapsed + row[stop]
                if reach >= best_cost:
                    continue
            order[depth] = stop
            if depth == n - 1:
                best_cost = reach
                best_order = order[:]
            else:
                used[stop] = True
                extend(stop, depth + 1, reach, onboard + load_change[stop])
                used[stop] = False

    for first in range(0, n, 2):
        if load_change[first] > capacity:
            continue
        used[first] = True
        order[0] = first
        extend(first, 1, 0.0, load_change[first])
        used[first] = False
    return None if best_order is None else (best_cost, best_order)


class RoutePlanner:
    """Finds minimum-travel-time feasible routes for order groups.

    Parameters
    ----------
    network:
        Road network used to price route legs.
    """

    def __init__(self, network: "RoadNetwork") -> None:
        self._network = network
        self._forget_all()

    def _forget_all(self) -> None:
        # (member ids in the order given, capacity) -> the exact plan.
        # Ids are not sorted: stop indices follow member position, which
        # decides how cost ties break.
        self._memo: dict[tuple[tuple[int, ...], int], _Remembered] = {}
        self._keys_by_order: dict[int, list[tuple[tuple[int, ...], int]]] = {}

    def __getstate__(self) -> dict:
        # The memo is a cache: a checkpoint carries the planner without it.
        state = dict(self.__dict__)
        del state["_memo"], state["_keys_by_order"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._forget_all()

    @property
    def network(self) -> "RoadNetwork":
        """The road network the planner prices routes on."""
        return self._network

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def plan(
        self,
        orders: Sequence["Order"],
        capacity: int,
        start_time: float,
    ) -> PlannedGroup:
        """Return the cheapest feasible route for ``orders``.

        Parameters
        ----------
        orders:
            The group members (1 to capacity orders).
        capacity:
            Vehicle capacity the route must respect.
        start_time:
            Time at which the route would start at its first pickup.

        Raises
        ------
        InfeasibleGroupError
            If no stop ordering satisfies all constraints.
        """
        members = list(orders)
        if not members:
            raise InfeasibleGroupError("cannot plan a route for an empty group")
        if len(members) <= _EXACT_GROUP_LIMIT:
            planned = self._recall(members, capacity, start_time)
        else:
            planned = self._plan(members, capacity, start_time)
        if planned is None:
            raise InfeasibleGroupError(
                f"no feasible route for orders {[o.order_id for o in members]}"
            )
        return planned

    def forget(self, order_ids: Iterable[int]) -> None:
        """Drop every remembered plan of a group with one of ``order_ids``.

        Dispatchers call this when orders leave them, which bounds the
        memo by the orders still waiting.
        """
        memo = self._memo
        for order_id in order_ids:
            for key in self._keys_by_order.pop(order_id, ()):
                memo.pop(key, None)

    def _recall(
        self, members: list["Order"], capacity: int, start_time: float
    ) -> PlannedGroup | None:
        """The exact plan from the memo when it still holds, else a fresh one."""
        key = (tuple(order.order_id for order in members), capacity)
        entry = self._memo.get(key)
        if entry is not None and entry.answers(members, start_time):
            return entry.planned
        planned = self._plan(members, capacity, start_time)
        if entry is None:
            for order in members:
                self._keys_by_order.setdefault(order.order_id, []).append(key)
        reaches: tuple[float, ...] = ()
        if planned is not None:
            route = planned.route
            reaches = tuple(route.sub_route_time(order.order_id) for order in members)
        self._memo[key] = _Remembered(start_time, tuple(members), planned, reaches)
        return planned

    def _plan(
        self, members: list["Order"], capacity: int, start_time: float
    ) -> PlannedGroup | None:
        """Search for the cheapest feasible route; ``None`` if there is none.

        Groups past the exact limit are sorted in place by release time
        and grown by insertion.
        """
        exact = len(members) <= _EXACT_GROUP_LIMIT
        if not exact:
            members.sort(key=lambda order: order.release_time)
        nodes: list[int] = []
        load_change: list[int] = []
        due: list[float] = []
        for order in members:
            nodes += (order.pickup, order.dropoff)
            load_change += (order.riders, -order.riders)
            due += (inf, order.deadline)
        # Dropoffs only become leg *sources* when several orders
        # interleave, so a lone order asks about its pickup's row alone.
        sources = nodes[:1] if len(members) == 1 else nodes
        times = self._network.leg_matrix(sources, nodes)
        if len(members) == 1:
            times.append([0.0, 0.0])  # the dropoff's row: never a leg
        build = _search if exact else _grow_by_insertion
        found = build(times, nodes, load_change, due, capacity, start_time)
        if found is None:
            return None
        cost, sequence = found
        route = Route(
            [
                RouteStop(
                    nodes[stop],
                    members[stop >> 1].order_id,
                    StopKind.DROPOFF if stop & 1 else StopKind.PICKUP,
                )
                for stop in sequence
            ],
            self._network,
            [times[a][b] for a, b in zip(sequence, sequence[1:])],
        )
        return PlannedGroup(route, cost)

    def try_plan(
        self,
        orders: Sequence["Order"],
        capacity: int,
        start_time: float,
    ) -> PlannedGroup | None:
        """Like :meth:`plan` but returns ``None`` instead of raising."""
        try:
            return self.plan(orders, capacity, start_time)
        except InfeasibleGroupError:
            return None

    def can_share(
        self,
        first: "Order",
        second: "Order",
        capacity: int,
        start_time: float,
    ) -> PlannedGroup | None:
        """Cheapest feasible pairwise route, or ``None`` if the pair can't share.

        This is the primitive the temporal shareability graph uses to
        decide whether to connect two orders with an edge.
        """
        if first.riders + second.riders > capacity:
            return None
        return self.try_plan([first, second], capacity, start_time)


def _require_legs(
    times: Sequence[Sequence[float]], nodes: Sequence[int], pickup: int
) -> None:
    """Raise for an unreachable leg among the :func:`new_stop_legs` of ``pickup``."""
    for source, target in new_stop_legs(pickup):
        if times[source][target] == inf:
            raise UnreachableError(nodes[source], nodes[target])


def _search(
    times: list[list[float]],
    nodes: Sequence[int],
    load_change: Sequence[int],
    due: Sequence[float],
    capacity: int,
    start_time: float,
) -> tuple[float, list[int]] | None:
    """Search all stop orders, having checked every leg is priced."""
    if any(inf in row for row in times):
        # Some cell is unreachable: fail if it is a leg the search can use.
        for pickup in range(0, len(nodes), 2):
            _require_legs(times, nodes, pickup)
    return _cheapest_stop_order(times, load_change, due, capacity, start_time)


def _grow_by_insertion(
    times: list[list[float]],
    nodes: Sequence[int],
    load_change: Sequence[int],
    due: Sequence[float],
    capacity: int,
    start_time: float,
) -> tuple[float, list[int]] | None:
    """Insert the members one by one, earliest release first.

    Each member goes where it adds the least travel time to the
    sequence built so far, among the positions that keep it feasible.
    A member's legs are checked when its turn comes, so a group that
    fails early is infeasible whatever the legs of the rest.
    """
    _require_legs(times, nodes, 0)
    sequence = [0, 1]
    cost = times[0][1]
    for pickup in range(2, len(nodes), 2):
        _require_legs(times, nodes, pickup)
        found = cheapest_insertion(
            sequence, cost, pickup, pickup + 1,
            times, load_change, due, capacity, start_time,
        )
        if found is None:
            return None
        sequence, cost = found.sequence, found.cost
    return cost, sequence
