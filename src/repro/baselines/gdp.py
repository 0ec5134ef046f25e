"""GDP baseline [9]: online greedy insertion into worker routes.

GDP answers every order immediately: it scans the fleet, tries to insert
the new order's pickup and dropoff into each worker's *remaining* route
at the cheapest feasible positions, and commits the globally cheapest
insertion.  If no worker admits a feasible insertion the order is
rejected on the spot.

The reproduction tracks, per worker, a schedule of stops with planned
arrival times.  When an insertion is evaluated at time ``t`` the stops
already reached stay fixed, only the remaining suffix is re-planned.
Because the platform responds instantly, the response time of a GDP
order is zero and its "extra time" is entirely detour:
``(scheduled dropoff - release) - shortest trip time``, i.e. everything
the rider experiences beyond an immediate direct ride.  This matches the
role GDP plays in the paper's comparison: the fastest algorithm, but the
one with the longest detours and the lowest service rate under load.

An order is priced off two dense ``leg_matrix`` blocks, whatever the
fleet size: *into* the new stops — (every vehicle position, every
scheduled stop node, the pickup) x (pickup, dropoff) — and *out of*
them — (pickup, dropoff) x (every scheduled stop node), skipped while
no schedule is live.  The legs between stops already on a schedule are
not asked again: each plan carries the cells it was committed with.
The search runs on integers and floats and builds stop objects for the
winner only.  Its arithmetic is pinned, because ``added`` feeds the
fleet's travel time and so every metric bit for bit: a candidate's
clock starts at ``start_time`` and takes its legs left to right, its
cost is ``(last arrival - start_time) - base_cost`` with ``base_cost``
the stored legs summed left to right, and the first cheapest candidate
in (vehicle, pickup position, dropoff position) order wins.
``tests/test_gdp_insertion.py`` holds it to the search it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING

from ..config import SimulationConfig
from ..model.order import Order
from ..model.route import StopKind
from ..model.worker import Worker
from ..simulation.dispatcher import Dispatcher, DispatchResult, ServedOrder
from ..simulation.fleet import WorkerFleet

if TYPE_CHECKING:  # pragma: no cover
    from ..network.graph import RoadNetwork

#: The legs a new pickup / dropoff pair can add, keyed by the node at the
#: other end: ``to_pickup``, ``to_dropoff`` (from a node into the new
#: stop), ``from_pickup``, ``from_dropoff`` (out of it into a stop node).
_NewStopLegs = tuple[dict[int, float], dict[int, float], dict[int, float], dict[int, float]]


@dataclass
class _ScheduledStop:
    """A stop on a worker's live schedule with its planned arrival time."""

    node: int
    order_id: int
    kind: StopKind
    arrival_time: float


@dataclass
class _WorkerPlan:
    """The live schedule of one worker under GDP.

    ``legs[i]`` is the travel time into ``stops[i]`` from the stop
    before it (from ``current_node`` for the first), as committed.
    """

    worker: Worker
    current_node: int
    available_at: float
    stops: list[_ScheduledStop] = field(default_factory=list)
    legs: list[float] = field(default_factory=list)
    orders: dict[int, Order] = field(default_factory=dict)

    def progress(self, now: float) -> None:
        """Advance past the stops whose planned arrival time has passed."""
        while self.stops and self.stops[0].arrival_time <= now:
            stop = self.stops.pop(0)
            self.legs.pop(0)
            self.current_node = stop.node
            self.available_at = stop.arrival_time
            if stop.kind is StopKind.DROPOFF:
                self.orders.pop(stop.order_id, None)


@dataclass(frozen=True)
class _Insertion:
    """The winning insertion of one order into one worker's schedule."""

    plan: _WorkerPlan
    new_stops: list[_ScheduledStop]
    new_legs: list[float]
    added_travel_time: float
    dropoff_time: float


def _cheapest_positions(
    plan: _WorkerPlan, order: Order, start_time: float, new: _NewStopLegs, best_added: float
) -> tuple[float, int, int] | None:
    """Cheapest ``(added, pickup_pos, dropoff_pos)`` strictly under ``best_added``.

    Position ``i`` puts a new stop in front of ``stops[i]``.  Candidates
    sharing a prefix share its partial sums, which are the same floats;
    the first stop to miss its deadline or overfill the vehicle ends
    every candidate that keeps it there.  Only the new riders can
    overfill a committed schedule, so capacity is checked from their
    pickup to their dropoff; that order holds by construction.
    """
    to_pickup, to_dropoff, from_pickup, from_dropoff = new
    stops, legs, orders = plan.stops, plan.legs, plan.orders
    count = len(stops)
    nodes = [stop.node for stop in stops]
    ahead = [plan.current_node, *nodes]  # the node in front of each position
    # Riders getting on (+) or off (-) and the deadline to meet, per stop.
    change = [0] * count
    due = [inf] * count
    onboard = sum(rider.riders for rider in orders.values())
    for index, stop in enumerate(stops):
        rider = orders[stop.order_id]
        if stop.kind is StopKind.PICKUP:
            change[index] = rider.riders
            onboard -= rider.riders
        else:
            change[index] = -rider.riders
            due[index] = rider.deadline
    base_cost = 0.0
    for leg in legs:  # not sum(): it compensates float addition from 3.12 on
        base_cost += leg
    room = plan.worker.capacity - order.riders
    found = None
    reached = start_time
    for pickup_pos in range(count + 1):
        if pickup_pos:
            reached += legs[pickup_pos - 1]
            if reached > due[pickup_pos - 1]:
                break
            onboard += change[pickup_pos - 1]
        if onboard > room:
            continue
        t = reached + to_pickup[ahead[pickup_pos]]
        load = onboard
        for dropoff_pos in range(pickup_pos, count + 1):
            end = t + to_dropoff[ahead[dropoff_pos] if dropoff_pos > pickup_pos else order.pickup]
            if end <= order.deadline:
                for index in range(dropoff_pos, count):
                    end += legs[index] if index > dropoff_pos else from_dropoff[nodes[index]]
                    if end > due[index]:
                        break
                else:
                    added = (end - start_time) - base_cost
                    if added < best_added:
                        best_added = added
                        found = (added, pickup_pos, dropoff_pos)
            if dropoff_pos == count:
                break
            # Ride on: ``stops[dropoff_pos]`` moves in front of the dropoff.
            t += legs[dropoff_pos] if dropoff_pos > pickup_pos else from_pickup[nodes[dropoff_pos]]
            load += change[dropoff_pos]
            if t > due[dropoff_pos] or load > room:
                break
    return found


def _timed_insertion(
    plan: _WorkerPlan, order: Order, start_time: float, new: _NewStopLegs,
    added: float, pickup_pos: int, dropoff_pos: int,
) -> _Insertion:
    """Materialise the winner: its stops, their legs and arrival times."""
    to_pickup, to_dropoff, from_pickup, from_dropoff = new
    stops = [(stop.node, stop.order_id, stop.kind) for stop in plan.stops]
    ahead = [plan.current_node, *(stop.node for stop in plan.stops)]
    legs = list(plan.legs)
    # Dropoff first, so the pickup's position does not shift under it.
    if dropoff_pos < len(stops):
        legs[dropoff_pos] = from_dropoff[stops[dropoff_pos][0]]
    if dropoff_pos > pickup_pos:
        legs[pickup_pos] = from_pickup[stops[pickup_pos][0]]
        legs.insert(dropoff_pos, to_dropoff[ahead[dropoff_pos]])
    else:
        legs.insert(dropoff_pos, to_dropoff[order.pickup])
    stops.insert(dropoff_pos, (order.dropoff, order.order_id, StopKind.DROPOFF))
    legs.insert(pickup_pos, to_pickup[ahead[pickup_pos]])
    stops.insert(pickup_pos, (order.pickup, order.order_id, StopKind.PICKUP))
    timed = []
    t = start_time
    for (node, order_id, kind), leg in zip(stops, legs):
        t += leg
        timed.append(_ScheduledStop(node, order_id, kind, t))
    return _Insertion(plan, timed, legs, added, timed[dropoff_pos + 1].arrival_time)


class GDPDispatcher(Dispatcher):
    """Greedy online insertion (the GDP baseline of the paper)."""

    name = "GDP"

    def __init__(
        self,
        network: "RoadNetwork",
        fleet: WorkerFleet,
        config: SimulationConfig,
    ) -> None:
        self._network = network
        self._fleet = fleet
        self._config = config
        self._plans = [
            _WorkerPlan(worker=worker, current_node=worker.location, available_at=0.0)
            for worker in fleet
        ]
        self._served: list[ServedOrder] = []
        self._scheduled_dropoffs: dict[int, tuple[Order, float, int]] = {}

    @property
    def fleet(self) -> WorkerFleet:
        """The worker fleet (travel time is accounted onto it)."""
        return self._fleet

    # ------------------------------------------------------------------
    # Dispatcher interface
    # ------------------------------------------------------------------
    def submit(self, order: Order, now: float) -> DispatchResult:
        """Serve or reject the order immediately (online response)."""
        for plan in self._plans:
            plan.progress(now)
        best = self._best_insertion(order, now)
        if best is None:
            return DispatchResult(rejected=(order,))
        self._commit(best, order, now)
        return DispatchResult.empty()

    def tick(self, now: float) -> DispatchResult:
        """Emit the outcomes of orders whose dropoff has been reached."""
        for plan in self._plans:
            plan.progress(now)
        return self._emit_completed(now)

    def flush(self, now: float) -> DispatchResult:
        """Emit every remaining scheduled order at the end of the horizon."""
        return self._emit_completed(float("inf"))

    # ------------------------------------------------------------------
    # insertion search
    # ------------------------------------------------------------------
    def _best_insertion(self, order: Order, now: float) -> _Insertion | None:
        ends = (order.pickup, order.dropoff)
        stop_nodes = dict.fromkeys(
            stop.node for plan in self._plans for stop in plan.stops
        )
        sources = list(
            dict.fromkeys(
                (*(plan.current_node for plan in self._plans), *stop_nodes, order.pickup)
            )
        )
        into = self._network.leg_matrix(sources, ends)
        to_pickup = {node: row[0] for node, row in zip(sources, into)}
        to_dropoff = {node: row[1] for node, row in zip(sources, into)}
        from_pickup: dict[int, float] = {}
        from_dropoff: dict[int, float] = {}
        if stop_nodes:
            out_of = self._network.leg_matrix(ends, list(stop_nodes))
            from_pickup, from_dropoff = (dict(zip(stop_nodes, row)) for row in out_of)
        new = (to_pickup, to_dropoff, from_pickup, from_dropoff)
        direct = to_dropoff[order.pickup]
        # One running best, replaced on strict ``<`` only, so the first
        # cheapest insertion wins a tie; starting from ``inf`` refuses an
        # insertion over an unreachable leg that no deadline caught.
        best: tuple[float, int, int] = (inf, 0, 0)
        best_plan: _WorkerPlan | None = None
        for plan in self._plans:
            start_time = max(now, plan.available_at)
            if plan.stops:
                found = _cheapest_positions(plan, order, start_time, new, best[0])
                if found is not None:
                    best, best_plan = found, plan
            elif order.riders <= plan.worker.capacity:
                # An idle vehicle: to the pickup, then to the dropoff.
                t = start_time + to_pickup[plan.current_node]
                t += direct
                added = t - start_time
                if t <= order.deadline and added < best[0]:
                    best, best_plan = (added, 0, 0), plan
        if best_plan is None:
            return None
        start_time = max(now, best_plan.available_at)
        return _timed_insertion(best_plan, order, start_time, new, *best)

    # ------------------------------------------------------------------
    # commit and completion
    # ------------------------------------------------------------------
    def _commit(self, insertion: _Insertion, order: Order, now: float) -> None:
        plan = insertion.plan
        plan.stops = insertion.new_stops
        plan.legs = insertion.new_legs
        plan.orders[order.order_id] = order
        plan.available_at = max(plan.available_at, now)
        self._fleet.add_travel_time(max(insertion.added_travel_time, 0.0))
        self._scheduled_dropoffs[order.order_id] = (
            order,
            insertion.dropoff_time,
            plan.worker.worker_id,
        )
        # Update the recorded dropoff times of the other orders riding the
        # same vehicle: the insertion may have delayed them.
        for stop in insertion.new_stops:
            if stop.kind is StopKind.DROPOFF and stop.order_id != order.order_id:
                entry = self._scheduled_dropoffs.get(stop.order_id)
                if entry is not None:
                    self._scheduled_dropoffs[stop.order_id] = (
                        entry[0],
                        stop.arrival_time,
                        entry[2],
                    )

    def _emit_completed(self, now: float) -> DispatchResult:
        served = []
        for order_id, (order, dropoff_time, worker_id) in list(
            self._scheduled_dropoffs.items()
        ):
            if dropoff_time <= now:
                detour = max(
                    (dropoff_time - order.release_time) - order.shortest_time, 0.0
                )
                served.append(
                    ServedOrder(
                        order=order,
                        response_time=0.0,
                        detour_time=detour,
                        dispatch_time=order.release_time,
                        worker_id=worker_id,
                        group_size=1,
                    )
                )
                del self._scheduled_dropoffs[order_id]
        return DispatchResult(served=tuple(served))
