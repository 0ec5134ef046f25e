"""Unit tests for the order pooling management algorithm (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.pool import OrderPool
from repro.core.strategies import APPROACH_RESERVE, OnlineStrategy, TimeoutStrategy
from repro.exceptions import MissingOrderError
from tests.conftest import make_order


@pytest.fixture
def online_pool(planner):
    return OrderPool(planner, OnlineStrategy(), capacity=4, max_group_size=3)


@pytest.fixture
def timeout_pool(planner):
    return OrderPool(
        planner, TimeoutStrategy(check_period=10.0), capacity=4, max_group_size=3
    )


class TestInsertAndBookkeeping:
    def test_insert_pools_the_order(self, online_pool, small_network):
        order = make_order(small_network, 0, 5)
        online_pool.insert(order, 0.0)
        assert len(online_pool) == 1
        assert order.order_id in online_pool

    def test_remove_missing_order_raises(self, online_pool):
        with pytest.raises(MissingOrderError):
            online_pool.remove(12345, 0.0)

    def test_pending_orders_iteration(self, online_pool, small_network):
        orders = [make_order(small_network, 0, 5), make_order(small_network, 1, 6)]
        for order in orders:
            online_pool.insert(order, 0.0)
        pending = {order.order_id for order in online_pool.pending_orders()}
        assert pending == {order.order_id for order in orders}


class TestOnlineStrategyChecks:
    def test_unpaired_order_dispatched_immediately(self, online_pool, small_network):
        order = make_order(small_network, 0, 5)
        online_pool.insert(order, 0.0)
        decisions = online_pool.check(10.0)
        dispatched = [d for d in decisions if d.dispatch]
        assert len(dispatched) == 1
        assert dispatched[0].group is not None
        assert len(dispatched[0].group) == 1
        assert len(online_pool) == 0

    def test_paired_orders_dispatched_together(self, online_pool, small_network):
        first = make_order(small_network, 0, 24)
        second = make_order(small_network, 6, 30)
        online_pool.insert(first, 0.0)
        online_pool.insert(second, 0.0)
        decisions = online_pool.check(5.0)
        dispatched = [d for d in decisions if d.dispatch]
        assert len(dispatched) == 1
        assert dispatched[0].group.order_ids() == {first.order_id, second.order_id}
        assert len(decisions) == 1
        assert len(online_pool) == 0

    def test_can_assign_false_holds_orders(self, online_pool, small_network):
        order = make_order(small_network, 0, 5)
        online_pool.insert(order, 0.0)
        decisions = online_pool.check(10.0, can_assign=lambda group, now: False)
        assert all(d.hold for d in decisions)
        assert len(online_pool) == 1

    def test_every_pooled_order_gets_exactly_one_decision(
        self, online_pool, small_network
    ):
        orders = [
            make_order(small_network, 0, 24),
            make_order(small_network, 6, 30),
            make_order(small_network, 30, 20),
        ]
        for order in orders:
            online_pool.insert(order, 0.0)
        decisions = online_pool.check(5.0)
        decided = [d.order_id for d in decisions]
        dispatched_members = set()
        for decision in decisions:
            if decision.dispatch:
                dispatched_members.update(decision.group.order_ids())
        # every order is either explicitly decided or a member of a dispatched group
        for order in orders:
            assert order.order_id in decided or order.order_id in dispatched_members


class TestTimeoutStrategyChecks:
    def test_orders_wait_before_timeout(self, timeout_pool, small_network):
        first = make_order(small_network, 0, 24)
        second = make_order(small_network, 6, 30)
        timeout_pool.insert(first, 0.0)
        timeout_pool.insert(second, 0.0)
        decisions = timeout_pool.check(10.0)
        assert all(d.hold for d in decisions)
        assert len(timeout_pool) == 2

    def test_group_dispatched_at_watch_window(self, timeout_pool, small_network):
        # A short watch window (eta = 0.3) elapses well before the group's
        # expiration, so the timeout strategy dispatches exactly when the
        # earliest member times out.
        first = make_order(small_network, 0, 24, watch_scale=0.3)
        second = make_order(small_network, 6, 30, watch_scale=0.3)
        timeout_pool.insert(first, 0.0)
        timeout_pool.insert(second, 0.0)
        at_timeout = min(first.timeout_time, second.timeout_time) + 1.0
        decisions = timeout_pool.check(at_timeout)
        assert any(d.dispatch for d in decisions)

    def test_expired_unpaired_order_rejected(self, timeout_pool, small_network):
        order = make_order(small_network, 0, 5)
        timeout_pool.insert(order, 0.0)
        # Deny workers so the near-expiry solo dispatch cannot happen, then
        # let the deadline pass: the order must be rejected.
        decisions = timeout_pool.check(
            order.deadline + 1.0, can_assign=lambda group, now: False
        )
        assert [(d.order_id, d.reject) for d in decisions] == [(order.order_id, True)]
        assert len(timeout_pool) == 0

    def test_unpaired_order_dispatched_alone_near_expiry(
        self, timeout_pool, small_network
    ):
        order = make_order(small_network, 0, 5)
        timeout_pool.insert(order, 0.0)
        shortly_before_expiry = order.release_time + 0.55 * order.max_response_time
        decisions = timeout_pool.check(shortly_before_expiry)
        dispatched = [d for d in decisions if d.dispatch]
        held = [d for d in decisions if d.hold]
        # Either it is already close enough to be sent alone or still held,
        # but it must never be rejected while a feasible solo ride exists.
        assert not any(d.reject for d in decisions)
        assert dispatched or held

    def test_unpaired_order_holds_at_the_margin_and_rides_alone_past_it(
        self, timeout_pool, small_network
    ):
        order = make_order(small_network, 0, 5, watch_scale=2.0)
        timeout_pool.insert(order, 0.0)
        margin = 10.0 + APPROACH_RESERVE * order.shortest_time
        at_margin = order.deadline - order.shortest_time - margin
        assert order.slack_at(at_margin) == margin
        assert all(d.hold for d in timeout_pool.check(at_margin))
        decisions = timeout_pool.check(at_margin + 1.0)
        assert len(decisions) == 1 and decisions[0].dispatch
        assert decisions[0].group.order_ids() == {order.order_id}

    def test_refused_solo_ride_holds_and_asks_once(self, timeout_pool, small_network):
        order = make_order(small_network, 0, 5, watch_scale=0.3)
        timeout_pool.insert(order, 0.0)
        asked = []

        def refuse(group, now):
            asked.append(group.order_ids())
            return False

        decisions = timeout_pool.check(order.timeout_time, can_assign=refuse)
        assert [(d.order_id, d.hold) for d in decisions] == [(order.order_id, True)]
        assert asked == [{order.order_id}]


class TestFlush:
    def test_flush_rejects_everything(self, timeout_pool, small_network):
        orders = [make_order(small_network, 0, 5), make_order(small_network, 1, 6)]
        for order in orders:
            timeout_pool.insert(order, 0.0)
        decisions = timeout_pool.flush(10_000.0)
        assert len(decisions) == 2
        assert all(d.reject for d in decisions)
        assert len(timeout_pool) == 0

    def test_conservation_of_orders(self, online_pool, small_network):
        """Every inserted order is eventually dispatched or rejected, never lost."""
        orders = [
            make_order(small_network, 0, 24, release=0.0),
            make_order(small_network, 6, 30, release=0.0),
            make_order(small_network, 35, 23, release=0.0),
        ]
        for order in orders:
            online_pool.insert(order, order.release_time)
        resolved = []
        for now in (10.0, 400.0, 2000.0):
            for decision in online_pool.check(now):
                if decision.dispatch:
                    resolved.extend(decision.group.order_ids())
                elif decision.reject:
                    resolved.append(decision.order_id)
        for decision in online_pool.flush(10_000.0):
            resolved.append(decision.order_id)
        assert sorted(resolved) == sorted(order.order_id for order in orders)
