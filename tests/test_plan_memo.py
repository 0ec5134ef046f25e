"""The planner's memo of exact plans against a fresh planner.

``RoutePlanner`` remembers the exact plan of each member tuple (no
worker start, at most ``_EXACT_GROUP_LIMIT`` orders) and answers a later
start from it while every dropoff of the remembered route is still on
time.  The tests hold a planner with a memo to a fresh planner at every
start of a non-decreasing sequence: the same stop sequence, the same
cumulative leg times and ``==`` on the cost, with infeasible staying
infeasible.  The instances live on a 3x3 grid of 60 s blocks, so stop
orders tie on cost all the time and the tie-break is under test too.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.datasets.workloads import build_workload
from repro.experiments.runner import make_dispatcher
from repro.model.order import Order
from repro.network.generators import grid_city
from repro.routing.planner import RoutePlanner
from repro.simulation.engine import Simulator
from tests.conftest import make_order

_NETWORK = grid_city(rows=3, cols=3, edge_travel_time=60.0, jitter=0.0, seed=0)
_NODES = _NETWORK.nodes_sorted()


def _outcome(planned):
    if planned is None:
        return None
    route = planned.route
    reaches = [route.time_to_stop(index) for index in range(len(route))]
    return route.stops, reaches, planned.total_travel_time


@st.composite
def _instances(draw):
    orders = []
    for order_id in range(draw(st.integers(1, 3))):
        pickup, dropoff = draw(st.lists(st.sampled_from(_NODES), min_size=2,
                                        max_size=2, unique=True))
        shortest = _NETWORK.travel_time(pickup, dropoff)
        # Slack on a 30 s lattice lands arrivals exactly on deadlines.
        slack = draw(st.integers(0, 16).map(lambda n: 30.0 * n)
                     | st.floats(0.0, 500.0, allow_nan=False))
        orders.append(Order(
            pickup=pickup, dropoff=dropoff, release_time=0.0,
            shortest_time=shortest, deadline=shortest + slack,
            wait_limit=shortest, riders=draw(st.integers(1, 3)),
            order_id=order_id,
        ))
    capacity = draw(st.integers(1, 4))
    starts = sorted(draw(st.lists(
        st.integers(0, 20).map(lambda n: 30.0 * n)
        | st.floats(0.0, 600.0, allow_nan=False),
        min_size=1, max_size=8,
    )))
    return orders, capacity, starts


@given(_instances())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_remembered_plans_match_a_fresh_planner(instance):
    orders, capacity, starts = instance
    remembering = RoutePlanner(_NETWORK)
    infeasible_since = None
    for start in starts:
        got = _outcome(remembering.try_plan(orders, capacity, start))
        assert got == _outcome(RoutePlanner(_NETWORK).try_plan(orders, capacity, start))
        if infeasible_since is not None:
            assert got is None, f"infeasible at {infeasible_since}, feasible at {start}"
        elif got is None:
            infeasible_since = start
    assert len(remembering._memo) == 1
    # An earlier start than the memo's own is planned afresh.
    earliest = starts[0] - 30.0
    assert _outcome(remembering.try_plan(orders, capacity, earliest)) == _outcome(
        RoutePlanner(_NETWORK).try_plan(orders, capacity, earliest)
    )


def test_a_hit_returns_the_remembered_plan():
    planner = RoutePlanner(_NETWORK)
    order = make_order(_NETWORK, 0, 8, deadline_scale=3.0, order_id=1)
    first = planner.plan([order], 4, 0.0)
    assert planner.plan([order], 4, 60.0) is first
    # Past the deadline the remembered route no longer holds.
    assert planner.try_plan([order], 4, order.deadline) is None


def test_member_order_is_part_of_the_key():
    planner = RoutePlanner(_NETWORK)
    first = make_order(_NETWORK, 0, 8, deadline_scale=5.0, order_id=1)
    second = make_order(_NETWORK, 0, 8, deadline_scale=5.0, order_id=2)
    forward = planner.plan([first, second], 4, 0.0)
    backward = planner.plan([second, first], 4, 0.0)
    assert [stop.order_id for stop in forward.route.stops][0] == 1
    assert [stop.order_id for stop in backward.route.stops][0] == 2
    assert len(planner._memo) == 2


def test_greedy_groups_bypass_the_memo():
    planner = RoutePlanner(_NETWORK)
    orders = [
        make_order(_NETWORK, pickup, 8, deadline_scale=9.0, order_id=pickup)
        for pickup in (0, 1, 2, 3)
    ]
    assert planner.try_plan(orders, 4, 0.0) is not None
    assert planner._memo == {}


def test_forget_drops_every_plan_of_the_order():
    planner = RoutePlanner(_NETWORK)
    a, b, c = (
        make_order(_NETWORK, pickup, 8, deadline_scale=5.0, order_id=pickup)
        for pickup in (0, 1, 2)
    )
    for group in ([a], [b], [a, b], [b, c], [c]):
        planner.try_plan(group, 4, 0.0)
    planner.forget([b.order_id])
    assert set(planner._memo) == {((0,), 4), ((2,), 4)}
    planner.forget([a.order_id, c.order_id])
    assert planner._memo == {} and planner._keys_by_order == {}


def test_forget_leaves_the_memo_empty_after_a_run():
    config = SimulationConfig(
        num_orders=40, num_workers=8, horizon=1200.0, deadline_scale=1.6,
        watch_window_scale=0.8, check_period=10.0, grid_size=5, seed=21,
    )
    for algorithm in ("WATTER-online", "GAS", "NonSharing"):
        workload = build_workload("CDC", config)
        dispatcher = make_dispatcher(algorithm, workload, config)
        result = Simulator(workload, dispatcher, config).run()
        planner = dispatcher._planner
        assert result.metrics.served_orders > 0
        assert planner._memo == {}, algorithm
        assert planner._keys_by_order == {}, algorithm
