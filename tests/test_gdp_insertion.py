"""GDP's two-block insertion search against the search it replaced.

``tests/reference/gdp_insertion.py`` is ``GDPDispatcher`` as it was
before the array-state rewrite: a fresh stop list per candidate, a
scalar ``travel_time`` read per leg.  Both sides here get their own
network and oracle over the same graph and are fed the same orders;
everything observable must agree exactly (``==`` on floats), after
every ``submit`` and over whole runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, replace

import pytest

import repro.experiments.runner as runner
from repro.api import ScenarioSpec, Session
from repro.baselines.gdp import GDPDispatcher
from repro.config import SimulationConfig
from repro.model.order import Order, OrderStatus
from repro.model.route import StopKind
from repro.model.worker import Worker
from repro.network.graph import RoadGraph, RoadNetwork
from repro.network.grid import GridIndex
from repro.simulation.fleet import WorkerFleet
from repro.simulation.spatial import WorkerSpatialIndex
from tests.reference.dict_kernel import DictCHOracle
from tests.reference.gdp_insertion import ReferenceGDPDispatcher

#: Oracle documents the differential runs under.  ``ch-dict`` swaps the
#: pure-Python reference kernel of ``tests/reference/dict_kernel.py``
#: in for the csr oracle (see ``_side``).
ORACLES = {
    "lazy": {"backend": "lazy"},
    "ch-dict": {"backend": "ch"},
    "ch-csr": {"backend": "ch", "kernel": "csr"},
}

#: Few vehicles and loose deadlines, so schedules grow several stops long.
STREAMS = {
    "grid": dict(
        network="grid", grid_rows=7, grid_cols=7, num_orders=70, num_workers=5,
        horizon=1500.0, deadline_scale=2.6, seed=5,
    ),
    "cdc": dict(
        dataset="CDC", num_orders=70, num_workers=6, horizon=1200.0,
        deadline_scale=2.4, seed=9,
    ),
}


def _side(cls, spec: ScenarioSpec, reference_kernel: bool = False):
    """A dispatcher of ``cls`` over its own session: network, oracle, orders.

    Ids are renumbered by position: two sessions draw the same workload
    but fresh ids from the process-wide counters.  ``reference_kernel``
    attaches a :class:`DictCHOracle` in place of the prepared oracle.
    """
    workload = Session().prepare(spec)
    if reference_kernel:
        workload.network.set_oracle(DictCHOracle(workload.network.graph))
    config = spec.config()
    workers = [
        Worker(location=worker.location, capacity=worker.capacity, worker_id=index)
        for index, worker in enumerate(workload.workers)
    ]
    fleet = WorkerFleet(
        workers, workload.network, GridIndex(workload.network, size=config.grid_size)
    )
    orders = [
        replace(order, order_id=index) for index, order in enumerate(workload.orders)
    ]
    return cls(workload.network, fleet, config), orders


def _spy_on_commit(dispatcher) -> list:
    """Record ``(worker id, added travel time, dropoff time)`` per commit."""
    log: list = []
    commit = dispatcher._commit

    def spy(insertion, order, now):
        log.append(
            (
                insertion.plan.worker.worker_id,
                insertion.added_travel_time,
                insertion.dropoff_time,
            )
        )
        commit(insertion, order, now)

    dispatcher._commit = spy
    return log


def _state(dispatcher) -> tuple:
    """Every schedule, stop by stop, and the fleet's accounted driving."""
    schedules = [
        (
            plan.worker.worker_id,
            plan.current_node,
            plan.available_at,
            [(s.node, s.order_id, s.kind, s.arrival_time) for s in plan.stops],
            sorted(plan.orders),
        )
        for plan in dispatcher._plans
    ]
    return schedules, dispatcher.fleet.total_travel_time


def _assert_legs_price_the_schedule(dispatcher) -> None:
    """``legs`` stays parallel to ``stops`` and is what the clock ran on."""
    for plan in dispatcher._plans:
        assert len(plan.legs) == len(plan.stops)
        if len(plan.stops) > 1:
            for before, stop, leg in zip(plan.stops, plan.stops[1:], plan.legs[1:]):
                # Later arrivals were accumulated from an earlier start,
                # so the difference equals the leg only to rounding.
                assert stop.arrival_time - before.arrival_time == pytest.approx(leg)


class TestEverySubmitMatchesTheReference:
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_seeded_order_stream(self, stream, oracle):
        spec = ScenarioSpec.from_dict(
            {**STREAMS[stream], "algorithm": "GDP", "oracle": ORACLES[oracle]}
        )
        reference_kernel = oracle == "ch-dict"
        reference, reference_orders = _side(
            ReferenceGDPDispatcher, spec, reference_kernel
        )
        ours, our_orders = _side(GDPDispatcher, spec, reference_kernel)
        reference_log = _spy_on_commit(reference)
        our_log = _spy_on_commit(ours)
        longest = 0
        verdicts: Counter = Counter()
        for expected_order, order in zip(reference_orders, our_orders):
            now = order.release_time
            expected = reference.submit(expected_order, now)
            actual = ours.submit(order, now)
            assert order.status is expected_order.status
            assert [o.order_id for o in actual.rejected] == [
                o.order_id for o in expected.rejected
            ]
            assert our_log == reference_log
            assert _state(ours) == _state(reference)
            _assert_legs_price_the_schedule(ours)
            verdicts[order.status] += 1
            longest = max(longest, *(len(plan.stops) for plan in ours._plans))
        assert verdicts[OrderStatus.DISPATCHED] and verdicts[OrderStatus.REJECTED]
        assert longest >= 4  # shared rides, not a queue of solo trips
        done, expected_done = ours.flush(1e9), reference.flush(1e9)
        assert [
            (s.order.order_id, s.detour_time, s.worker_id) for s in done.served
        ] == [
            (s.order.order_id, s.detour_time, s.worker_id) for s in expected_done.served
        ]


#: The whole runs the rewrite was sized on.
WHOLE_RUNS = {
    "cdc-500-100-lazy": dict(dataset="CDC", num_orders=500, num_workers=100, seed=7, oracle=ORACLES["lazy"]),
    "cdc-500-100-ch": dict(dataset="CDC", num_orders=500, num_workers=100, seed=7, oracle={"backend": "ch"}),
    "nyc-300-40-lazy": dict(dataset="NYC", num_orders=300, num_workers=40, seed=7, oracle=ORACLES["lazy"]),
    "grid32-80-80-lazy": dict(
        network="grid", grid_rows=32, grid_cols=32, num_orders=80, num_workers=80,
        horizon=1800.0, seed=11, oracle=ORACLES["lazy"],
    ),
    **{
        f"grid8-seed{seed}-lazy": dict(
            network="grid", grid_rows=8, grid_cols=8, num_orders=40, num_workers=8,
            seed=seed, oracle=ORACLES["lazy"],
        )
        for seed in (1, 2, 3)
    },
}


def _run_metrics(spec: ScenarioSpec) -> dict:
    """``SimulationMetrics`` of a fresh session's run, wall clock aside."""
    row = asdict(Session().run(spec).metrics)
    for key in ("running_time_total", "running_time_per_order", "oracle_stats"):
        row.pop(key)
    return row


@pytest.mark.parametrize("name", sorted(WHOLE_RUNS))
def test_whole_run_metrics_match_the_reference(name, monkeypatch):
    spec = ScenarioSpec.from_dict({**WHOLE_RUNS[name], "algorithm": "GDP"})
    ours = _run_metrics(spec)
    monkeypatch.setattr(runner, "GDPDispatcher", ReferenceGDPDispatcher)
    assert ours == _run_metrics(spec)
    assert 0 < ours["served_orders"]


@pytest.mark.parametrize("algorithm", ["GDP", "NonSharing"])
def test_only_a_fleet_search_builds_the_spatial_index(algorithm, monkeypatch):
    """GDP never searches the fleet, so it builds neither the grid nor the
    worker index; NonSharing, which does, shows the trap is live."""
    spec = ScenarioSpec.from_dict({**STREAMS["grid"], "algorithm": algorithm})

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(GridIndex, "__init__", refuse)
    monkeypatch.setattr(WorkerSpatialIndex, "__init__", refuse)
    if algorithm == "GDP":
        assert Session().run(spec).metrics.served_orders > 0
    else:
        with pytest.raises(AssertionError, match="built"):
            Session().run(spec)


# ----------------------------------------------------------------------
# edge cases, each on a hand-built street
# ----------------------------------------------------------------------
def _street(times=(10.0, 20.0, 30.0, 40.0, 50.0)) -> RoadGraph:
    """Nodes 0..n in a row, two-way, block ``i`` taking ``times[i]``."""
    return RoadGraph(
        [(node, float(node), 0.0) for node in range(len(times) + 1)],
        [(node, node + 1, travel_time) for node, travel_time in enumerate(times)],
        bidirectional=True,
    )


def _config() -> SimulationConfig:
    return SimulationConfig(num_orders=1, num_workers=1, grid_size=2)


def _order(order_id, pickup, dropoff, deadline, release=0.0, riders=1) -> Order:
    return Order(
        pickup=pickup, dropoff=dropoff, release_time=release, shortest_time=1.0,
        deadline=deadline, wait_limit=1.0, riders=riders, order_id=order_id,
    )


class _Both:
    """The reference and the production dispatcher, stepped together."""

    def __init__(self, graph: RoadGraph, locations, capacity=4) -> None:
        self.sides = []
        for cls in (ReferenceGDPDispatcher, GDPDispatcher):
            network = RoadNetwork(graph)
            workers = [
                Worker(location=location, capacity=capacity, worker_id=index)
                for index, location in enumerate(locations)
            ]
            fleet = WorkerFleet(workers, network, GridIndex(network, size=2))
            self.sides.append(cls(network, fleet, _config()))
        self.ours = self.sides[1]

    def submit(self, order: Order, now: float) -> OrderStatus:
        statuses = []
        for dispatcher in self.sides:
            copy = replace(order)
            dispatcher.submit(copy, now)
            statuses.append(copy.status)
        assert _state(self.sides[1]) == _state(self.sides[0])
        _assert_legs_price_the_schedule(self.ours)
        assert statuses[0] is statuses[1]
        return statuses[1]

    def stops(self, worker: int = 0) -> list[tuple[int, int, StopKind, float]]:
        return [
            (s.node, s.order_id, s.kind, s.arrival_time)
            for s in self.ours._plans[worker].stops
        ]


P, D = StopKind.PICKUP, StopKind.DROPOFF


class TestEdgeCases:
    def test_more_riders_than_seats_is_rejected(self):
        both = _Both(_street(), locations=(0,), capacity=2)
        assert both.submit(_order(1, 1, 2, 1e6, riders=3), 0.0) is OrderStatus.REJECTED
        assert both.submit(_order(2, 1, 2, 1e6, riders=2), 0.0) is OrderStatus.DISPATCHED

    def test_a_full_vehicle_takes_the_order_after_its_dropoff(self):
        both = _Both(_street(), locations=(0,), capacity=2)
        # Due at 120, delivered at 100: no room for a detour before it.
        assert both.submit(_order(1, 1, 4, 120.0, riders=2), 0.0) is OrderStatus.DISPATCHED
        # On the way 2 -> 3 the vehicle is full: only the tail has room.
        assert both.submit(_order(2, 2, 3, 1e6), 0.0) is OrderStatus.DISPATCHED
        assert [stop[:3] for stop in both.stops()] == [
            (1, 1, P), (4, 1, D), (2, 2, P), (3, 2, D)
        ]
        # A deadline only the shared ride could meet: rejected.
        assert both.submit(_order(3, 2, 3, 70.0), 0.0) is OrderStatus.REJECTED

    def test_a_deadline_met_exactly_is_feasible_one_ulp_later_is_not(self):
        graph = _street(times=(0.1, 0.2, 0.7))
        arrival = (0.0 + 0.1) + 0.2
        assert arrival != 0.3  # the float the clock reaches, not the decimal
        for deadline, status in [
            (arrival, OrderStatus.DISPATCHED),
            (math.nextafter(arrival, 0.0), OrderStatus.REJECTED),
        ]:
            both = _Both(graph, locations=(0,))
            assert both.submit(_order(1, 1, 2, deadline), 0.0) is status
        # The same boundary on a stop already scheduled: order 1 is due
        # the moment it would arrive were order 2 picked up first.
        delayed = ((0.0 + 0.1) + RoadNetwork(graph).travel_time(0, 2)) + 0.7
        for deadline, first_served in [
            (delayed, 2),
            (math.nextafter(delayed, 0.0), 1),
        ]:
            both = _Both(graph, locations=(1,))
            both.submit(_order(1, 2, 3, deadline), 0.0)
            assert both.submit(_order(2, 0, 3, 1e6), 0.0) is OrderStatus.DISPATCHED
            assert both.stops()[0][1] == first_served

    def test_pickup_on_the_vehicles_own_node_is_a_zero_leg(self):
        both = _Both(_street(), locations=(2,))
        assert both.submit(_order(1, 2, 3, 1e6), 5.0) is OrderStatus.DISPATCHED
        assert both.stops() == [(2, 1, P, 5.0), (3, 1, D, 35.0)]
        assert both.ours._plans[0].legs == [0.0, 30.0]

    def test_order_on_nodes_that_are_already_scheduled_stops(self):
        both = _Both(_street(), locations=(0, 5))
        both.submit(_order(1, 1, 3, 1e6), 0.0)
        both.submit(_order(2, 1, 3, 1e6), 0.0)  # both ends duplicate stops
        both.submit(_order(3, 3, 1, 1e6), 0.0)  # and the other way round
        assert len(both.stops(0)) + len(both.stops(1)) == 6

    def test_vehicle_mid_schedule_keeps_legs_aligned_with_stops(self):
        both = _Both(_street(), locations=(0,))
        both.submit(_order(1, 1, 2, 1e6), 0.0)
        both.submit(_order(2, 3, 5, 1e6), 0.0)
        assert both.ours._plans[0].legs == [10.0, 20.0, 30.0, 90.0]
        # At t = 35 the vehicle has passed both stops of order 1.
        both.submit(_order(3, 4, 5, 1e6), 35.0)
        plan = both.ours._plans[0]
        assert plan.current_node == 2 and sorted(plan.orders) == [2, 3]
        assert [stop[:3] for stop in both.stops()] == [
            (3, 2, P), (4, 3, P), (5, 3, D), (5, 2, D)
        ]
        assert plan.legs == [30.0, 40.0, 50.0, 0.0]
        for dispatcher in both.sides:
            dispatcher.tick(1e6)
        assert _state(both.sides[1]) == _state(both.sides[0])
        assert plan.stops == [] and plan.legs == [] and plan.orders == {}


class _CountingNetwork(RoadNetwork):
    """Counts the oracle-facing calls a dispatcher makes."""

    def __init__(self, graph: RoadGraph) -> None:
        super().__init__(graph)
        self.calls: Counter = Counter()

    def leg_matrix(self, sources, targets):
        self.calls["leg_matrix"] += 1
        return super().leg_matrix(sources, targets)

    def travel_time(self, source, target):
        self.calls["travel_time"] += 1
        return super().travel_time(source, target)

    def travel_times_many(self, sources, targets):
        self.calls["travel_times_many"] += 1
        return super().travel_times_many(sources, targets)


def test_an_order_is_two_dense_blocks_and_no_other_oracle_call():
    network = _CountingNetwork(_street())
    workers = [Worker(location=location, capacity=4) for location in (0, 3, 5)]
    fleet = WorkerFleet(workers, network, GridIndex(network, size=2))
    dispatcher = GDPDispatcher(network, fleet, _config())
    dispatcher.submit(_order(1, 1, 2, 1e6), 0.0)
    assert network.calls == {"leg_matrix": 1}  # no schedule is live yet
    for order_id, (pickup, dropoff) in enumerate([(2, 4), (4, 1), (0, 5), (3, 2)], 2):
        network.calls.clear()
        dispatcher.submit(_order(order_id, pickup, dropoff, 1e6), 1.0)
        assert network.calls == {"leg_matrix": 2}
    network.calls.clear()
    dispatcher.tick(50.0)
    dispatcher.flush(1e9)
    assert not network.calls
