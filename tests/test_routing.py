"""Unit tests for feasibility checks and route planning."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleGroupError
from repro.model.route import Route, RouteStop, StopKind
from repro.routing.feasibility import (
    FeasibilityReport,
    check_capacity,
    check_deadlines,
    check_route,
    check_sequential,
)
from repro.routing import planner as planner_module
from repro.routing.planner import RoutePlanner
from tests.conftest import make_order


class TestFeasibility:
    def test_report_helpers(self):
        assert FeasibilityReport.ok().feasible
        failure = FeasibilityReport.fail("bad")
        assert not failure.feasible
        assert failure.violations == ("bad",)

    def test_sequential_violation_detected(self, small_network):
        order = make_order(small_network, 0, 2)
        backwards = Route(
            [
                RouteStop(2, order.order_id, StopKind.DROPOFF),
                RouteStop(0, order.order_id, StopKind.PICKUP),
            ],
            small_network,
        )
        assert check_sequential(backwards, [order])

    def test_missing_stop_is_a_violation_not_a_crash(self, small_network):
        order = make_order(small_network, 0, 2)
        other = make_order(small_network, 1, 3)
        route = Route(
            [
                RouteStop(0, order.order_id, StopKind.PICKUP),
                RouteStop(2, order.order_id, StopKind.DROPOFF),
            ],
            small_network,
        )
        assert check_sequential(route, [other])

    def test_deadline_violation_detected(self, small_network):
        order = make_order(small_network, 0, 2, release=0.0)
        route = Route(
            [
                RouteStop(0, order.order_id, StopKind.PICKUP),
                RouteStop(2, order.order_id, StopKind.DROPOFF),
            ],
            small_network,
        )
        late_start = order.deadline  # starting at the deadline must fail
        assert check_deadlines(route, [order], start_time=late_start)

    def test_deadline_includes_approach_time(self, small_network):
        order = make_order(small_network, 0, 2, release=0.0)
        route = Route(
            [
                RouteStop(0, order.order_id, StopKind.PICKUP),
                RouteStop(2, order.order_id, StopKind.DROPOFF),
            ],
            small_network,
        )
        slack = order.max_response_time
        assert not check_deadlines(route, [order], 0.0, approach_time=slack - 1.0)
        assert check_deadlines(route, [order], 0.0, approach_time=slack + 1.0)

    def test_capacity_violation_detected(self, small_network):
        first = make_order(small_network, 0, 2, riders=2)
        second = make_order(small_network, 1, 3, riders=2)
        route = Route(
            [
                RouteStop(0, first.order_id, StopKind.PICKUP),
                RouteStop(1, second.order_id, StopKind.PICKUP),
                RouteStop(2, first.order_id, StopKind.DROPOFF),
                RouteStop(3, second.order_id, StopKind.DROPOFF),
            ],
            small_network,
        )
        assert check_capacity(route, [first, second], capacity=3)
        assert not check_capacity(route, [first, second], capacity=4)

    def test_check_route_aggregates(self, small_network):
        order = make_order(small_network, 0, 2, release=0.0)
        route = Route(
            [
                RouteStop(0, order.order_id, StopKind.PICKUP),
                RouteStop(2, order.order_id, StopKind.DROPOFF),
            ],
            small_network,
        )
        assert check_route(route, [order], capacity=4, start_time=0.0).feasible


class TestRoutePlanner:
    def test_single_order_route_is_direct(self, planner, small_network):
        order = make_order(small_network, 0, 5)
        planned = planner.plan([order], capacity=4, start_time=0.0)
        assert planned.total_travel_time == pytest.approx(
            small_network.travel_time(0, 5)
        )

    def test_empty_group_rejected(self, planner):
        with pytest.raises(InfeasibleGroupError):
            planner.plan([], capacity=4, start_time=0.0)

    def test_pair_route_is_no_worse_than_sequential(self, planner, small_network):
        first = make_order(small_network, 0, 2)
        second = make_order(small_network, 1, 3)
        planned = planner.plan([first, second], capacity=4, start_time=0.0)
        sequential = (
            small_network.travel_time(0, 2)
            + small_network.travel_time(2, 1)
            + small_network.travel_time(1, 3)
        )
        assert planned.total_travel_time <= sequential + 1e-9

    def test_pair_route_respects_deadlines(self, planner, small_network):
        first = make_order(small_network, 0, 2, deadline_scale=1.2)
        second = make_order(small_network, 35, 30, deadline_scale=1.2)
        # Opposite corners with tight deadlines: no shared route is feasible.
        assert planner.try_plan([first, second], capacity=4, start_time=0.0) is None

    def test_capacity_limits_sharing(self, planner, small_network):
        first = make_order(small_network, 0, 2, riders=3)
        second = make_order(small_network, 1, 3, riders=3)
        assert planner.can_share(first, second, capacity=4, start_time=0.0) is None

    def test_can_share_close_orders(self, planner, small_network):
        first = make_order(small_network, 0, 24)
        second = make_order(small_network, 6, 30)
        assert planner.can_share(first, second, capacity=4, start_time=0.0) is not None

    def test_large_group_uses_insertion_fallback(self, small_network, monkeypatch):
        monkeypatch.setattr(planner_module, "_EXACT_GROUP_LIMIT", 2)
        planner = RoutePlanner(small_network)
        orders = [
            make_order(small_network, 0, 24),
            make_order(small_network, 6, 30),
            make_order(small_network, 12, 30, deadline_scale=2.5),
        ]
        planned = planner.try_plan(orders, capacity=6, start_time=0.0)
        assert planned is not None
        assert set(planned.route.order_ids()) == {o.order_id for o in orders}

    def test_planned_route_is_feasible(self, planner, small_network):
        orders = [
            make_order(small_network, 0, 14),
            make_order(small_network, 1, 15),
        ]
        planned = planner.plan(orders, capacity=4, start_time=0.0)
        report = check_route(planned.route, orders, capacity=4, start_time=0.0)
        assert report.feasible
