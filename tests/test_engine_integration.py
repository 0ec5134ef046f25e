"""End-to-end simulation tests: every dispatcher over a small generated workload."""

from __future__ import annotations

import pytest

from repro.api import ScenarioSpec, Session
from repro.datasets.workloads import build_workload
from repro.experiments.runner import ALGORITHMS, make_dispatcher
from repro.exceptions import ConfigurationError
from repro.simulation.engine import Simulator
from tests.conftest import run_on_workload


@pytest.fixture(scope="module")
def small_spec():
    return ScenarioSpec(
        dataset="CDC",
        num_orders=40,
        num_workers=8,
        horizon=1200.0,
        deadline_scale=1.6,
        watch_window_scale=0.8,
        check_period=10.0,
        grid_size=5,
        seed=21,
    )


@pytest.fixture(scope="module")
def small_config(small_spec):
    return small_spec.config()


@pytest.fixture(scope="module")
def small_workload(small_config):
    return build_workload("CDC", small_config)


@pytest.fixture(scope="module")
def expect_provider(small_spec):
    return Session().expect_provider(small_spec)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_accounts_for_every_order(
    algorithm, small_workload, small_config, expect_provider
):
    if algorithm == "WATTER-expect" and expect_provider is None:
        pytest.skip("WATTER-expect needs numpy (GMM threshold fitting)")
    provider = expect_provider if algorithm == "WATTER-expect" else None
    result = run_on_workload(algorithm, small_workload, small_config, provider)
    metrics = result.metrics
    # conservation: every order is either served or rejected, exactly once
    assert metrics.served_orders + metrics.rejected_orders == len(small_workload.orders)
    assert result.collector.order_ids() == {
        order.order_id for order in small_workload.orders
    }
    assert 0.0 <= metrics.service_rate <= 1.0
    assert metrics.total_extra_time >= 0.0
    assert metrics.unified_cost >= 0.0
    assert metrics.running_time_total >= 0.0


@pytest.mark.parametrize("algorithm", ("WATTER-online", "GDP", "NonSharing"))
def test_served_orders_have_sane_accounting(
    algorithm, small_workload, small_config
):
    result = run_on_workload(algorithm, small_workload, small_config)
    for outcome in result.collector.outcomes:
        if not outcome.served:
            assert outcome.penalty >= 0.0
            continue
        assert outcome.response_time >= 0.0
        assert outcome.detour_time >= 0.0
        assert outcome.extra_time == pytest.approx(
            outcome.response_time + outcome.detour_time
        )
        assert outcome.group_size >= 1


def test_sharing_algorithms_form_groups(small_workload, small_config):
    result = run_on_workload("WATTER-timeout", small_workload, small_config)
    assert result.metrics.average_group_size > 1.0


def test_sharing_reduces_worker_travel_per_served_order(small_workload, small_config):
    pooled = run_on_workload("WATTER-timeout", small_workload, small_config)
    solo = run_on_workload("NonSharing", small_workload, small_config)
    if pooled.metrics.served_orders and solo.metrics.served_orders:
        pooled_cost = (
            pooled.metrics.worker_travel_time / pooled.metrics.served_orders
        )
        solo_cost = solo.metrics.worker_travel_time / solo.metrics.served_orders
        assert pooled_cost <= solo_cost * 1.1


def test_simulator_reports_dataset_and_algorithm(small_workload, small_config):
    dispatcher = make_dispatcher("WATTER-online", small_workload, small_config)
    result = Simulator(small_workload, dispatcher, small_config).run()
    assert result.metrics.dataset == "CDC"
    assert result.metrics.algorithm == "WATTER-online"
    assert result.config is small_config


def test_make_dispatcher_rejects_unknown_algorithm(small_workload, small_config):
    with pytest.raises(ConfigurationError):
        make_dispatcher("definitely-not-an-algorithm", small_workload, small_config)


def test_expect_requires_provider(small_workload, small_config):
    with pytest.raises(ConfigurationError):
        make_dispatcher("WATTER-expect", small_workload, small_config)


def test_runs_are_independent(small_workload, small_config):
    """Running the same algorithm twice over one workload gives identical metrics."""
    first = run_on_workload("WATTER-online", small_workload, small_config)
    second = run_on_workload("WATTER-online", small_workload, small_config)
    assert first.metrics.served_orders == second.metrics.served_orders
    assert first.metrics.total_extra_time == pytest.approx(
        second.metrics.total_extra_time
    )
    assert first.metrics.unified_cost == pytest.approx(second.metrics.unified_cost)
