"""Property-based tests (hypothesis) for the core invariants.

The invariants tested here are the ones the paper's correctness argument
rests on:

* planned routes always satisfy the three METRS constraints,
* the shareability graph's best group is always a validated clique and
  never contains expired members,
* the pool never loses or duplicates an order,
* the GMM CDF is a proper CDF and the threshold optimiser stays in
  ``[0, p]``,
* metric accounting identities (served + rejected = total, objective is
  the sum of per-order contributions).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ExtraTimeWeights
from repro.core.gmm import GaussianMixture
from repro.core.pool import OrderPool
from repro.core.shareability import TemporalShareabilityGraph
from repro.core.strategies import OnlineStrategy, TimeoutStrategy
from repro.core.threshold import ThresholdOptimizer
from repro.model.order import Order
from repro.network.generators import grid_city
from repro.routing.feasibility import check_route
from repro.routing.planner import RoutePlanner
from repro.simulation.dispatcher import ServedOrder
from repro.simulation.metrics import MetricsCollector

_NETWORK = grid_city(rows=5, cols=5, edge_travel_time=60.0, jitter=0.0, seed=0)
_PLANNER = RoutePlanner(_NETWORK)
_NODES = _NETWORK.nodes_sorted()

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def orders(draw, release_range=(0.0, 600.0)):
    pickup = draw(st.sampled_from(_NODES))
    dropoff = draw(st.sampled_from([node for node in _NODES if node != pickup]))
    release = draw(
        st.floats(*release_range, allow_nan=False, allow_infinity=False)
    )
    deadline_scale = draw(st.floats(1.2, 2.5))
    watch_scale = draw(st.floats(0.1, 1.0))
    shortest = _NETWORK.travel_time(pickup, dropoff)
    return Order(
        pickup=pickup,
        dropoff=dropoff,
        release_time=release,
        shortest_time=shortest,
        deadline=release + deadline_scale * shortest,
        wait_limit=watch_scale * shortest,
        riders=draw(st.integers(1, 2)),
    )


class TestRoutePlannerProperties:
    @_SETTINGS
    @given(order_list=st.lists(orders(release_range=(0.0, 0.0)), min_size=1, max_size=3))
    def test_planned_routes_satisfy_all_constraints(self, order_list):
        planned = _PLANNER.try_plan(order_list, capacity=6, start_time=0.0)
        if planned is None:
            return
        report = check_route(planned.route, order_list, capacity=6, start_time=0.0)
        assert report.feasible, report.violations

    @_SETTINGS
    @given(order_list=st.lists(orders(release_range=(0.0, 0.0)), min_size=2, max_size=2))
    def test_shared_route_never_cheaper_than_longest_member(self, order_list):
        planned = _PLANNER.try_plan(order_list, capacity=6, start_time=0.0)
        if planned is None:
            return
        longest = max(order.shortest_time for order in order_list)
        assert planned.total_travel_time >= longest - 1e-9

    @_SETTINGS
    @given(order=orders(release_range=(0.0, 0.0)))
    def test_single_order_route_is_exactly_shortest(self, order):
        planned = _PLANNER.try_plan([order], capacity=4, start_time=0.0)
        assert planned is not None
        assert planned.total_travel_time == pytest.approx(order.shortest_time)


class TestShareabilityProperties:
    @_SETTINGS
    @given(order_list=st.lists(orders(release_range=(0.0, 60.0)), min_size=1, max_size=6))
    def test_best_groups_are_validated_cliques(self, order_list):
        graph = TemporalShareabilityGraph(_PLANNER, capacity=4, max_group_size=3)
        for order in order_list:
            graph.insert_order(order, order.release_time)
        now = max(order.release_time for order in order_list)
        for order in order_list:
            group = graph.best_group(order.order_id)
            if group is None:
                continue
            assert len(group) >= 2
            member_ids = sorted(group.order_ids())
            # pairwise adjacency (clique property)
            for i, first in enumerate(member_ids):
                for second in member_ids[i + 1 :]:
                    assert second in graph.neighbours(first)
            # the stored route satisfies the constraints right now
            report = check_route(group.route, group.orders, capacity=4, start_time=now)
            assert report.feasible or group.expiration_time(now) <= now

    @_SETTINGS
    @given(order_list=st.lists(orders(release_range=(0.0, 60.0)), min_size=1, max_size=6))
    def test_removal_leaves_graph_consistent(self, order_list):
        graph = TemporalShareabilityGraph(_PLANNER, capacity=4, max_group_size=3)
        for order in order_list:
            graph.insert_order(order, order.release_time)
        for order in order_list:
            graph.remove_order(order.order_id, 100.0)
        assert len(graph) == 0
        assert graph.number_of_edges() == 0


class TestPoolProperties:
    @_SETTINGS
    @given(
        order_list=st.lists(orders(release_range=(0.0, 300.0)), min_size=1, max_size=8),
        strategy_kind=st.sampled_from(["online", "timeout"]),
    )
    def test_orders_are_conserved(self, order_list, strategy_kind):
        strategy = OnlineStrategy() if strategy_kind == "online" else TimeoutStrategy()
        pool = OrderPool(_PLANNER, strategy, capacity=4, max_group_size=3)
        for order in sorted(order_list, key=lambda o: o.release_time):
            pool.insert(order, order.release_time)
        resolved: list[int] = []
        horizon = max(order.deadline for order in order_list) + 100.0
        now = 0.0
        while now <= horizon:
            for decision in pool.check(now):
                if decision.dispatch:
                    resolved.extend(decision.group.order_ids())
                elif decision.reject:
                    resolved.append(decision.order_id)
            now += 30.0
        for decision in pool.flush(horizon + 1.0):
            resolved.append(decision.order_id)
        assert sorted(resolved) == sorted(order.order_id for order in order_list)
        assert len(resolved) == len(set(resolved))


class TestDistributionProperties:
    @_SETTINGS
    @given(
        samples=st.lists(
            st.floats(0.0, 2000.0, allow_nan=False, allow_infinity=False),
            min_size=10,
            max_size=200,
        ),
        components=st.integers(1, 3),
    )
    def test_cdf_is_monotone_and_bounded(self, samples, components):
        spread = max(samples) - min(samples)
        if spread < 1e-6:
            samples = [value + index * 0.5 for index, value in enumerate(samples)]
        mixture = GaussianMixture(n_components=components, seed=1).fit(samples)
        xs = np.linspace(-100.0, 2500.0, 64)
        cdf = mixture.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert np.all(cdf >= 0.0)
        assert np.all(cdf <= 1.0)

    @_SETTINGS
    @given(
        penalty=st.floats(0.0, 5000.0, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 5),
    )
    def test_threshold_always_within_bounds(self, penalty, seed):
        rng = np.random.default_rng(seed)
        samples = np.abs(rng.normal(200.0, 80.0, size=120))
        optimizer = ThresholdOptimizer(GaussianMixture(2, seed=seed).fit(samples))
        theta = optimizer.optimal_threshold(penalty)
        assert 0.0 <= theta <= max(penalty, 0.0)


class TestMetricsProperties:
    @_SETTINGS
    @given(
        order_list=st.lists(orders(), min_size=1, max_size=10),
        served_mask=st.lists(st.booleans(), min_size=10, max_size=10),
    )
    def test_objective_is_sum_of_contributions(self, order_list, served_mask):
        collector = MetricsCollector(weights=ExtraTimeWeights(), penalty_factor=10.0)
        for order, served in zip(order_list, served_mask):
            if served:
                collector.record_served(
                    ServedOrder(
                        order=order,
                        response_time=5.0,
                        detour_time=7.0,
                        dispatch_time=order.release_time + 5.0,
                        worker_id=0,
                        group_size=1,
                    )
                )
            else:
                collector.record_rejected(order)
        metrics = collector.finalize("alg", "prop", worker_travel_time=0.0, running_time_total=0.0)
        assert metrics.served_orders + metrics.rejected_orders == len(order_list)
        manual = sum(outcome.objective_contribution() for outcome in collector.outcomes)
        assert metrics.total_extra_time == pytest.approx(manual)
        assert 0.0 <= metrics.service_rate <= 1.0
