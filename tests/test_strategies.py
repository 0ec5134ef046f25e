"""Unit tests for the dispatch decision strategies (Algorithm 2 and variants)."""

from __future__ import annotations


from repro.core.strategies import (
    APPROACH_RESERVE,
    ConstantThresholdProvider,
    OnlineStrategy,
    ThresholdStrategy,
    TimeoutStrategy,
)
from repro.model.group import Group
from repro.model.route import Route, RouteStop, StopKind
from tests.conftest import make_order


def _pair_group(network, deadline_scale=1.8, release=0.0, watch_scale=0.8):
    first = make_order(
        network, 0, 24, release=release, deadline_scale=deadline_scale, watch_scale=watch_scale
    )
    second = make_order(
        network, 6, 30, release=release, deadline_scale=deadline_scale, watch_scale=watch_scale
    )
    stops = [
        RouteStop(first.pickup, first.order_id, StopKind.PICKUP),
        RouteStop(second.pickup, second.order_id, StopKind.PICKUP),
        RouteStop(first.dropoff, first.order_id, StopKind.DROPOFF),
        RouteStop(second.dropoff, second.order_id, StopKind.DROPOFF),
    ]
    return Group(orders=(first, second), route=Route(stops, network))


class TestOnlineStrategy:
    def test_always_dispatches(self, small_network):
        group = _pair_group(small_network)
        strategy = OnlineStrategy()
        assert strategy.should_dispatch(group, 0.0)
        assert strategy.should_dispatch(group, 10_000.0)

    def test_dispatches_unpaired_orders_alone_at_once(self, small_network):
        order = make_order(small_network, 0, 5)
        assert OnlineStrategy().should_dispatch_alone(order, order.release_time)
        assert not TimeoutStrategy().should_dispatch_alone(order, order.release_time)
        assert not ThresholdStrategy(
            ConstantThresholdProvider(10.0)
        ).should_dispatch_alone(order, order.release_time)

    def test_describe(self):
        assert OnlineStrategy().describe() == "WATTER-online"


class TestTimeoutStrategy:
    def test_holds_young_groups(self, small_network):
        group = _pair_group(small_network)
        strategy = TimeoutStrategy(check_period=10.0)
        assert not strategy.should_dispatch(group, 10.0)

    def test_dispatches_at_watch_window(self, small_network):
        group = _pair_group(small_network)
        strategy = TimeoutStrategy(check_period=10.0)
        assert strategy.should_dispatch(group, group.earliest_timeout() + 1.0)

    def test_dispatches_before_expiration(self, small_network):
        group = _pair_group(small_network, deadline_scale=1.3, watch_scale=2.0)
        strategy = TimeoutStrategy(check_period=10.0)
        just_before_expiry = group.expiration_time(0.0) - 1.0
        assert strategy.should_dispatch(group, just_before_expiry)


class TestMargins:
    """Both margins are one check period plus the approach reserve; a group
    at the margin dispatches (``>=``), an order at the margin holds (``<``)."""

    def test_group_expiring_exactly_at_the_margin_dispatches(self, small_network):
        group = _pair_group(small_network, deadline_scale=1.3, watch_scale=2.0)
        reserve = APPROACH_RESERVE * min(order.shortest_time for order in group.orders)
        expiration = group.expiration_time(0.0)
        now = expiration - 10.0 - reserve
        assert (now + 10.0) + reserve == expiration
        assert now - 1.0 < group.earliest_timeout()
        for strategy in (
            TimeoutStrategy(check_period=10.0),
            ThresholdStrategy(ConstantThresholdProvider(0.0), check_period=10.0),
        ):
            assert strategy.should_dispatch(group, now)
            assert not strategy.should_dispatch(group, now - 1.0)

    def test_order_with_slack_exactly_at_the_margin_holds(self, small_network):
        order = make_order(small_network, 0, 5, watch_scale=2.0)
        margin = 10.0 + APPROACH_RESERVE * order.shortest_time
        now = order.deadline - order.shortest_time - margin
        assert order.slack_at(now) == margin
        assert now + 1.0 < order.timeout_time
        for strategy in (
            TimeoutStrategy(check_period=10.0),
            ThresholdStrategy(ConstantThresholdProvider(1e9), check_period=10.0),
        ):
            assert not strategy.should_dispatch_alone(order, now)
            assert strategy.should_dispatch_alone(order, now + 1.0)

    def test_order_past_its_watch_window_rides_alone(self, small_network):
        order = make_order(small_network, 0, 5)
        assert not TimeoutStrategy().should_dispatch_alone(order, order.release_time)
        assert TimeoutStrategy().should_dispatch_alone(order, order.timeout_time)


class TestThresholdStrategy:
    def test_dispatches_good_groups(self, small_network):
        group = _pair_group(small_network)
        generous = ThresholdStrategy(ConstantThresholdProvider(1e9), check_period=10.0)
        assert generous.should_dispatch(group, 10.0)

    def test_holds_bad_groups(self, small_network):
        group = _pair_group(small_network)
        strict = ThresholdStrategy(ConstantThresholdProvider(0.0), check_period=10.0)
        # average extra time is strictly positive here (pair detours), so a
        # zero threshold refuses the dispatch while the group is young.
        assert group.average_extra_time(10.0) > 0.0
        assert not strict.should_dispatch(group, 10.0)

    def test_threshold_boundary_is_inclusive(self, small_network):
        group = _pair_group(small_network)
        now = 10.0
        exact = ThresholdStrategy(
            ConstantThresholdProvider(group.average_extra_time(now)), check_period=10.0
        )
        assert exact.should_dispatch(group, now)

    def test_timeout_overrides_threshold(self, small_network):
        group = _pair_group(small_network)
        strict = ThresholdStrategy(ConstantThresholdProvider(0.0), check_period=10.0)
        assert strict.should_dispatch(group, group.earliest_timeout() + 1.0)

    def test_near_expiry_overrides_threshold(self, small_network):
        group = _pair_group(small_network, deadline_scale=1.3, watch_scale=2.0)
        strict = ThresholdStrategy(ConstantThresholdProvider(0.0), check_period=10.0)
        just_before_expiry = group.expiration_time(0.0) - 1.0
        assert strict.should_dispatch(group, just_before_expiry)

    def test_provider_is_exposed(self):
        provider = ConstantThresholdProvider(5.0)
        assert ThresholdStrategy(provider).provider is provider


class TestConstantThresholdProvider:
    def test_returns_constant(self, small_network):
        provider = ConstantThresholdProvider(123.0)
        order = make_order(small_network, 0, 5)
        assert provider.threshold(order, 0.0) == 123.0
        assert provider.threshold(order, 999.0) == 123.0
