"""The GDP insertion search as it was before the two-block rewrite.

This is ``repro.baselines.gdp`` at the parent of the PR that moved the
search onto array state and two ``leg_matrix`` blocks per order, kept
verbatim (imports and the class name aside) as the "old" side of
``tests/test_gdp_insertion.py``: every candidate schedule is a fresh
``RouteStop`` / ``_ScheduledStop`` list, every leg a scalar
``RoadNetwork.travel_time`` read primed by ``travel_times_many``.  It
is slow on purpose and must stay free of the production search's code;
the tests require the two to agree exactly, float for float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import SimulationConfig
from repro.model.order import Order
from repro.model.route import RouteStop, StopKind
from repro.model.worker import Worker
from repro.simulation.dispatcher import Dispatcher, DispatchResult, ServedOrder
from repro.simulation.fleet import WorkerFleet

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.graph import RoadNetwork


@dataclass
class _ScheduledStop:
    """A stop on a worker's live schedule with its planned arrival time."""

    node: int
    order_id: int
    kind: StopKind
    arrival_time: float


@dataclass
class _WorkerPlan:
    """The live schedule of one worker under GDP."""

    worker: Worker
    current_node: int
    available_at: float
    stops: list[_ScheduledStop] = field(default_factory=list)
    orders: dict[int, Order] = field(default_factory=dict)

    def progress(self, now: float) -> None:
        """Advance past the stops whose planned arrival time has passed."""
        while self.stops and self.stops[0].arrival_time <= now:
            stop = self.stops.pop(0)
            self.current_node = stop.node
            self.available_at = stop.arrival_time
            if stop.kind is StopKind.DROPOFF:
                self.orders.pop(stop.order_id, None)

    def onboard_riders(self) -> int:
        """Riders currently in the vehicle (picked up, not yet dropped)."""
        pending_pickups = {
            stop.order_id for stop in self.stops if stop.kind is StopKind.PICKUP
        }
        riders = 0
        for order_id, order in self.orders.items():
            if order_id not in pending_pickups:
                riders += order.riders
        return riders

    def scheduled_travel_time(self, now: float, network: "RoadNetwork") -> float:
        """Remaining driving time of the current schedule from ``now``."""
        if not self.stops:
            return 0.0
        total = network.travel_time(self.current_node, self.stops[0].node)
        for previous, current in zip(self.stops, self.stops[1:]):
            total += network.travel_time(previous.node, current.node)
        return total


@dataclass(frozen=True)
class _Insertion:
    """A candidate insertion of one order into one worker's schedule."""

    plan: _WorkerPlan
    new_stops: list[_ScheduledStop]
    added_travel_time: float
    dropoff_time: float


class ReferenceGDPDispatcher(Dispatcher):
    """The parent commit's ``GDPDispatcher``, line for line."""

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
        # One many-to-one batch per insertion target primes every
        # vehicle-position -> pickup and X -> dropoff leg the per-plan
        # searches below will price: on the lazy backend that is two
        # reverse-graph Dijkstras for the whole fleet instead of one
        # forward Dijkstra per vehicle position.
        positions = {plan.current_node for plan in self._plans}
        self._network.travel_times_many(
            positions | {order.pickup}, [order.pickup, order.dropoff]
        )
        best: _Insertion | None = None
        for plan in self._plans:
            candidate = self._cheapest_insertion_for_plan(plan, order, now)
            if candidate is None:
                continue
            if best is None or candidate.added_travel_time < best.added_travel_time:
                best = candidate
        return best

    def _cheapest_insertion_for_plan(
        self, plan: _WorkerPlan, order: Order, now: float
    ) -> _Insertion | None:
        base_stops = plan.stops
        base_cost = plan.scheduled_travel_time(now, self._network)
        start_time = max(now, plan.available_at)
        # Plans with live schedules still batch-prime the legs between
        # their existing stops (the fleet-wide many-to-one prime above
        # already covers the pickup/dropoff legs of empty schedules).
        if base_stops:
            nodes = {plan.current_node, order.pickup, order.dropoff}
            nodes.update(stop.node for stop in base_stops)
            self._network.travel_times_many(nodes, nodes)
        best: _Insertion | None = None
        positions = len(base_stops)
        for pickup_pos in range(positions + 1):
            for dropoff_pos in range(pickup_pos, positions + 1):
                stops = self._build_candidate(base_stops, order, pickup_pos, dropoff_pos)
                timed = self._schedule(stops, plan.current_node, start_time)
                if timed is None:
                    continue
                if not self._respects_constraints(plan, order, timed):
                    continue
                new_cost = timed[-1].arrival_time - start_time
                added = new_cost - base_cost
                dropoff_time = next(
                    stop.arrival_time
                    for stop in timed
                    if stop.order_id == order.order_id
                    and stop.kind is StopKind.DROPOFF
                )
                if best is None or added < best.added_travel_time:
                    best = _Insertion(plan, timed, added, dropoff_time)
        return best

    @staticmethod
    def _build_candidate(
        base_stops: list[_ScheduledStop],
        order: Order,
        pickup_pos: int,
        dropoff_pos: int,
    ) -> list[RouteStop]:
        stops = [RouteStop(stop.node, stop.order_id, stop.kind) for stop in base_stops]
        stops.insert(pickup_pos, RouteStop(order.pickup, order.order_id, StopKind.PICKUP))
        stops.insert(
            dropoff_pos + 1, RouteStop(order.dropoff, order.order_id, StopKind.DROPOFF)
        )
        return stops

    def _schedule(
        self, stops: list[RouteStop], start_node: int, start_time: float
    ) -> list[_ScheduledStop] | None:
        timed = []
        current_node = start_node
        current_time = start_time
        for stop in stops:
            current_time += self._network.travel_time(current_node, stop.node)
            current_node = stop.node
            timed.append(
                _ScheduledStop(stop.node, stop.order_id, stop.kind, current_time)
            )
        return timed

    def _respects_constraints(
        self, plan: _WorkerPlan, new_order: Order, timed: list[_ScheduledStop]
    ) -> bool:
        orders = dict(plan.orders)
        orders[new_order.order_id] = new_order
        picked: set[int] = set(
            order_id
            for order_id in plan.orders
            if all(
                not (s.order_id == order_id and s.kind is StopKind.PICKUP)
                for s in plan.stops
            )
        )
        riders = plan.onboard_riders()
        capacity = plan.worker.capacity
        for stop in timed:
            order = orders.get(stop.order_id)
            if order is None:
                return False
            if stop.kind is StopKind.PICKUP:
                if stop.order_id in picked:
                    return False
                picked.add(stop.order_id)
                riders += order.riders
                if riders > capacity:
                    return False
            else:
                if stop.order_id not in picked:
                    return False
                riders -= order.riders
                if stop.arrival_time > order.deadline:
                    return False
        return True

    # ------------------------------------------------------------------
    # commit and completion
    # ------------------------------------------------------------------
    def _commit(self, insertion: _Insertion, order: Order, now: float) -> None:
        plan = insertion.plan
        plan.stops = insertion.new_stops
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
