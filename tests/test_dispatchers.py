"""Integration-style tests for the WATTER dispatcher and the baselines."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.baselines import GASDispatcher, GDPDispatcher, NonSharingDispatcher
from repro.core.strategies import ConstantThresholdProvider
from repro.core.watter import WatterDispatcher
from repro.model.order import Order, OrderStatus
from repro.model.worker import Worker
from repro.network.graph import RoadNetwork
from repro.network.grid import GridIndex
from repro.routing.planner import RoutePlanner
from repro.simulation.fleet import WorkerFleet
from tests.conftest import make_order
from tests.reference.nx_graph import from_networkx


@pytest.fixture
def watter_factory(small_network, fleet_factory, base_config):
    def factory(kind="online", provider=None, locations=(0, 5, 30, 35)):
        planner = RoutePlanner(small_network)
        fleet = fleet_factory(locations=locations)
        if kind == "online":
            return WatterDispatcher.online(planner, fleet, base_config)
        if kind == "timeout":
            return WatterDispatcher.timeout(planner, fleet, base_config)
        if kind == "expect":
            provider = provider or ConstantThresholdProvider(150.0)
            return WatterDispatcher.expect(planner, fleet, base_config, provider)
        raise ValueError(kind)

    return factory


class TestWatterDispatcher:
    def test_factory_names(self, watter_factory):
        assert watter_factory("online").describe() == "WATTER-online"
        assert watter_factory("timeout").describe() == "WATTER-timeout"
        assert watter_factory("expect").describe() == "WATTER-expect"

    def test_submit_pools_the_order(self, watter_factory, small_network):
        dispatcher = watter_factory("online")
        order = make_order(small_network, 6, 30)
        result = dispatcher.submit(order, order.release_time)
        assert not result
        assert order.order_id in dispatcher.pool

    def test_online_tick_serves_single_order(self, watter_factory, small_network):
        dispatcher = watter_factory("online")
        order = make_order(small_network, 6, 30)
        dispatcher.submit(order, 0.0)
        result = dispatcher.tick(10.0)
        assert len(result.served) == 1
        served = result.served[0]
        assert served.order.order_id == order.order_id
        assert served.response_time == pytest.approx(10.0)
        assert served.detour_time == pytest.approx(0.0)
        assert dispatcher.fleet.total_travel_time > 0.0

    def test_online_shares_concurrent_orders(self, watter_factory, small_network):
        dispatcher = watter_factory("online")
        first = make_order(small_network, 0, 24, release=0.0)
        second = make_order(small_network, 6, 30, release=2.0)
        dispatcher.submit(first, 0.0)
        dispatcher.submit(second, 2.0)
        result = dispatcher.tick(10.0)
        assert len(result.served) == 2
        assert {record.group_size for record in result.served} == {2}

    def test_timeout_holds_then_serves(self, watter_factory, small_network):
        dispatcher = watter_factory("timeout")
        first = make_order(small_network, 0, 24, release=0.0)
        second = make_order(small_network, 6, 30, release=2.0)
        dispatcher.submit(first, 0.0)
        dispatcher.submit(second, 2.0)
        early = dispatcher.tick(10.0)
        assert not early.served
        # By t=120 the pair is close enough to its expiration that the
        # timeout strategy releases it (still as a shared group).
        late = dispatcher.tick(120.0)
        assert len(late.served) == 2

    def test_expect_with_generous_threshold_behaves_like_online_for_groups(
        self, watter_factory, small_network
    ):
        dispatcher = watter_factory("expect", provider=ConstantThresholdProvider(1e9))
        first = make_order(small_network, 0, 24, release=0.0)
        second = make_order(small_network, 6, 30, release=2.0)
        dispatcher.submit(first, 0.0)
        dispatcher.submit(second, 2.0)
        result = dispatcher.tick(10.0)
        assert len(result.served) == 2

    def test_expect_with_zero_threshold_holds_groups(
        self, watter_factory, small_network
    ):
        dispatcher = watter_factory("expect", provider=ConstantThresholdProvider(0.0))
        first = make_order(small_network, 0, 24, release=0.0)
        second = make_order(small_network, 6, 30, release=2.0)
        dispatcher.submit(first, 0.0)
        dispatcher.submit(second, 2.0)
        result = dispatcher.tick(10.0)
        assert not result.served

    def test_no_workers_available_holds_orders(self, small_network, base_config):
        from repro.model.worker import Worker
        from repro.network.grid import GridIndex
        from repro.simulation.fleet import WorkerFleet

        # A single worker that is far away AND too small for any pair.
        workers = [Worker(location=35, capacity=2)]
        fleet = WorkerFleet(workers, small_network, GridIndex(small_network, 3))
        planner = RoutePlanner(small_network)
        dispatcher = WatterDispatcher.online(planner, fleet, base_config)
        tight = make_order(small_network, 0, 2, deadline_scale=1.2)
        dispatcher.submit(tight, 0.0)
        result = dispatcher.tick(10.0)
        assert not result.served
        assert tight.order_id in dispatcher.pool

    def test_two_groups_approved_for_one_worker(self, watter_factory, small_network):
        """Both groups pass the pool's probe, which finds the same idle
        worker for each; the first booking takes it and the second group
        goes back to the pool, to be decided later."""
        dispatcher = watter_factory("online", locations=(2,))
        first = make_order(small_network, 0, 5)
        second = make_order(small_network, 5, 0)
        dispatcher.submit(first, 0.0)
        dispatcher.submit(second, 0.0)
        assert dispatcher.pool.best_group(first.order_id) is None
        assert dispatcher.pool.best_group(second.order_id) is None
        probe = dispatcher.fleet.find_worker_for
        approved = []

        def can_serve(group, now):
            approved.append(probe(group, now))
            return approved[-1] is not None

        dispatcher.fleet.can_serve = can_serve
        result = dispatcher.tick(10.0)
        assert len(approved) == 2 and approved[0] is approved[1]
        assert [record.order.order_id for record in result.served] == [first.order_id]
        assert not result.rejected
        assert second.order_id in dispatcher.pool
        assert first.order_id not in dispatcher.pool
        decided = [record.order.order_id for record in result.served]
        for now in (20.0, 300.0):
            later = dispatcher.tick(now)
            decided += [record.order.order_id for record in later.served]
            decided += [order.order_id for order in later.rejected]
        decided += [order.order_id for order in dispatcher.flush(10_000.0).rejected]
        assert sorted(decided) == sorted([first.order_id, second.order_id])

    def test_flush_rejects_everything_left(self, watter_factory, small_network):
        dispatcher = watter_factory("timeout")
        order = make_order(small_network, 0, 24)
        dispatcher.submit(order, 0.0)
        result = dispatcher.flush(10_000.0)
        assert len(result.rejected) == 1
        assert result.rejected[0].order_id == order.order_id


class TestNonSharingDispatcher:
    def test_serves_immediately_when_worker_available(
        self, small_network, fleet_factory, base_config
    ):
        fleet = fleet_factory(locations=(0,))
        dispatcher = NonSharingDispatcher(RoutePlanner(small_network), fleet, base_config)
        order = make_order(small_network, 6, 30)
        result = dispatcher.submit(order, 0.0)
        assert len(result.served) == 1
        assert result.served[0].group_size == 1

    def test_queues_when_no_worker_then_serves(
        self, small_network, fleet_factory, base_config
    ):
        fleet = fleet_factory(locations=(0,))
        dispatcher = NonSharingDispatcher(RoutePlanner(small_network), fleet, base_config)
        first = make_order(small_network, 6, 30, release=0.0)
        second = make_order(small_network, 2, 14, release=1.0)
        assert len(dispatcher.submit(first, 0.0).served) == 1
        queued = dispatcher.submit(second, 1.0)
        assert not queued.served
        finish = fleet.worker(fleet.idle_workers(1e9)[0].worker_id).busy_until
        result = dispatcher.tick(finish + 1.0)
        assert len(result.served) + len(result.rejected) == 1

    def test_expired_orders_rejected(self, small_network, fleet_factory, base_config):
        fleet = fleet_factory(locations=(0,))
        dispatcher = NonSharingDispatcher(RoutePlanner(small_network), fleet, base_config)
        first = make_order(small_network, 6, 30, release=0.0)
        dispatcher.submit(first, 0.0)
        stuck = make_order(small_network, 2, 14, release=1.0, deadline_scale=1.05)
        dispatcher.submit(stuck, 1.0)
        result = dispatcher.tick(stuck.deadline + 1.0)
        assert any(order.order_id == stuck.order_id for order in result.rejected)

    def test_flush_rejects_queue(self, small_network, fleet_factory, base_config):
        fleet = fleet_factory(locations=(0,))
        dispatcher = NonSharingDispatcher(RoutePlanner(small_network), fleet, base_config)
        first = make_order(small_network, 6, 30, release=0.0)
        second = make_order(small_network, 2, 14, release=0.0)
        dispatcher.submit(first, 0.0)
        dispatcher.submit(second, 0.0)
        result = dispatcher.flush(10.0)
        assert len(result.rejected) == 1


class TestGDPDispatcher:
    def test_serves_immediately(self, small_network, fleet_factory, base_config):
        fleet = fleet_factory(locations=(0,))
        dispatcher = GDPDispatcher(small_network, fleet, base_config)
        order = make_order(small_network, 6, 30)
        result = dispatcher.submit(order, 0.0)
        assert not result.rejected
        done = dispatcher.flush(1e9)
        assert len(done.served) == 1
        assert done.served[0].response_time == 0.0

    def test_rejects_infeasible_order(self, small_network, fleet_factory, base_config):
        fleet = fleet_factory(locations=(35,))
        dispatcher = GDPDispatcher(small_network, fleet, base_config)
        # Worker too far away for this tight deadline.
        order = make_order(small_network, 0, 2, deadline_scale=1.1)
        result = dispatcher.submit(order, 0.0)
        assert len(result.rejected) == 1

    def test_inserts_second_order_into_existing_route(
        self, small_network, fleet_factory, base_config
    ):
        fleet = fleet_factory(locations=(0,))
        dispatcher = GDPDispatcher(small_network, fleet, base_config)
        first = make_order(small_network, 6, 30, release=0.0)
        second = make_order(small_network, 12, 24, release=5.0, deadline_scale=3.0)
        assert not dispatcher.submit(first, 0.0).rejected
        assert not dispatcher.submit(second, 5.0).rejected
        done = dispatcher.flush(1e9)
        assert len(done.served) == 2
        assert dispatcher.fleet.total_travel_time > 0.0

    def test_deadlines_respected_under_insertion(
        self, small_network, fleet_factory, base_config
    ):
        fleet = fleet_factory(locations=(0,))
        dispatcher = GDPDispatcher(small_network, fleet, base_config)
        orders = [
            make_order(small_network, 6, 30, release=0.0),
            make_order(small_network, 2, 14, release=1.0),
            make_order(small_network, 3, 15, release=2.0),
        ]
        for order in orders:
            dispatcher.submit(order, order.release_time)
        done = dispatcher.flush(1e9)
        # every served order is dropped before its deadline by construction;
        # verify through the recorded detour accounting
        for record in done.served:
            dropoff_time = (
                record.order.release_time
                + record.detour_time
                + record.order.shortest_time
            )
            assert dropoff_time <= record.order.deadline + 1e-6

    @pytest.mark.parametrize(
        "locations, pickup, dropoff, served_by",
        [
            ((3, 0), 1, 2, 0),  # the vehicle at 3 cannot reach the pickup
            ((3,), 1, 2, None),  # no vehicle can
            ((0,), 3, 1, None),  # the dropoff cannot be reached from the pickup
        ],
        ids=["served-by-the-reachable-vehicle", "pickup-unreachable", "dropoff-unreachable"],
    )
    def test_unreachable_leg_is_infeasible_not_an_error(
        self, base_config, locations, pickup, dropoff, served_by
    ):
        """One-way street 2 -> 3: node 3 is a dead end."""
        graph = nx.DiGraph()
        for node in range(4):
            graph.add_node(node, x=float(node), y=0.0)
        for u, v in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)]:
            graph.add_edge(u, v, travel_time=10.0)
        network = RoadNetwork(from_networkx(graph))
        workers = [Worker(location=location, capacity=4) for location in locations]
        fleet = WorkerFleet(workers, network, GridIndex(network, size=2))
        dispatcher = GDPDispatcher(network, fleet, base_config)
        order = Order(
            pickup=pickup, dropoff=dropoff, release_time=0.0,
            shortest_time=10.0, deadline=100.0, wait_limit=10.0,
        )
        result = dispatcher.submit(order, 0.0)
        if served_by is None:
            assert result.rejected == (order,)
            assert order.status is OrderStatus.REJECTED
        else:
            assert not result.rejected
            assert order.status is OrderStatus.DISPATCHED
            (record,) = dispatcher.flush(1e9).served
            assert record.worker_id == workers[locations.index(served_by)].worker_id


class TestGASDispatcher:
    def test_batches_orders_until_boundary(
        self, small_network, fleet_factory, base_config
    ):
        fleet = fleet_factory(locations=(0, 5))
        dispatcher = GASDispatcher(
            RoutePlanner(small_network), fleet, base_config
        )
        order = make_order(small_network, 6, 30, release=2.0)
        assert not dispatcher.submit(order, 2.0)
        before_boundary = dispatcher.tick(5.0)
        assert not before_boundary.served
        after_boundary = dispatcher.tick(10.0)
        assert len(after_boundary.served) == 1

    @pytest.mark.parametrize("period", [5.0, 10.0, 30.0])
    def test_batch_window_is_one_check_period(
        self, small_network, fleet_factory, base_config, period
    ):
        config = base_config.with_overrides(check_period=period)
        dispatcher = GASDispatcher(
            RoutePlanner(small_network), fleet_factory(locations=(0, 5)), config
        )
        order = make_order(small_network, 6, 30, release=period + 1.0)
        dispatcher.submit(order, period + 1.0)
        assert not dispatcher.tick(2 * period - 0.5).served
        assert len(dispatcher.tick(2 * period).served) == 1

    def test_groups_within_batch(self, small_network, fleet_factory, base_config):
        fleet = fleet_factory(locations=(0,))
        dispatcher = GASDispatcher(
            RoutePlanner(small_network), fleet, base_config
        )
        first = make_order(small_network, 0, 24, release=1.0)
        second = make_order(small_network, 6, 30, release=2.0)
        dispatcher.submit(first, 1.0)
        dispatcher.submit(second, 2.0)
        result = dispatcher.tick(10.0)
        assert len(result.served) == 2
        assert {record.group_size for record in result.served} == {2}

    def test_cross_batch_orders_not_grouped_when_workers_available(
        self, small_network, fleet_factory, base_config
    ):
        fleet = fleet_factory(locations=(0, 1))
        dispatcher = GASDispatcher(
            RoutePlanner(small_network), fleet, base_config
        )
        first = make_order(small_network, 0, 24, release=1.0)
        dispatcher.submit(first, 1.0)
        first_batch = dispatcher.tick(10.0)
        assert len(first_batch.served) == 1
        second = make_order(small_network, 6, 30, release=12.0)
        dispatcher.submit(second, 12.0)
        second_batch = dispatcher.tick(20.0)
        assert len(second_batch.served) == 1
        assert all(record.group_size == 1 for record in first_batch.served)
        assert all(record.group_size == 1 for record in second_batch.served)

    def test_expired_buffered_orders_rejected(
        self, small_network, fleet_factory, base_config
    ):
        from repro.model.worker import Worker
        from repro.network.grid import GridIndex
        from repro.simulation.fleet import WorkerFleet

        # One worker kept busy by a first assignment; the second order expires.
        fleet = WorkerFleet(
            [Worker(location=0, capacity=4)], small_network, GridIndex(small_network, 3)
        )
        dispatcher = GASDispatcher(
            RoutePlanner(small_network), fleet, base_config
        )
        first = make_order(small_network, 6, 30, release=0.0)
        dispatcher.submit(first, 0.0)
        dispatcher.tick(10.0)
        blocked = make_order(small_network, 30, 20, release=11.0, deadline_scale=1.2)
        dispatcher.submit(blocked, 11.0)
        result = dispatcher.tick(blocked.deadline + 20.0)
        assert any(order.order_id == blocked.order_id for order in result.rejected)

    def test_flush_resolves_buffer(self, small_network, fleet_factory, base_config):
        fleet = fleet_factory(locations=(0,))
        dispatcher = GASDispatcher(
            RoutePlanner(small_network), fleet, base_config
        )
        order = make_order(small_network, 6, 30, release=1.0)
        dispatcher.submit(order, 1.0)
        result = dispatcher.flush(5.0)
        assert len(result.served) + len(result.rejected) == 1
