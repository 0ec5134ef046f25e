"""Tests for the experiment harness: configs, sweeps, reporting, worked example."""

from __future__ import annotations

import pytest

from repro.api import ScenarioSpec, Session
from repro.config import SimulationConfig
from repro.exceptions import ConfigurationError, DatasetError
from repro.datasets.workloads import DATASETS
from repro.experiments.config import (
    PARAMETER_GRID,
    default_config,
    worker_counts_scaled,
)
from repro.experiments.reporting import (
    format_comparison_table,
    format_full_sweep_report,
    format_sweep_table,
    series,
)
from repro.experiments.sweeps import AXES, run_sweep
from repro.experiments.worked_example import (
    example_config,
    example_orders,
    example_workload,
    run_worked_example,
)

_FAST = dict(num_orders=30, num_workers=8, horizon=900.0, grid_size=5)
_FAST_SPEC = ScenarioSpec(dataset="CDC", **_FAST)
_FAST_ALGOS = ("WATTER-online", "WATTER-timeout", "NonSharing")


class TestExperimentConfig:
    def test_dataset_defaults_cover_all_datasets(self):
        assert list(DATASETS) == ["NYC", "CDC", "XIA", "LARGE"]
        for name in DATASETS:
            assert default_config(name).num_orders > 0

    def test_large_defaults_mirror_cdc(self):
        large, cdc = default_config("LARGE"), default_config("CDC")
        assert (large.num_orders, large.num_workers) == (cdc.num_orders, cdc.num_workers)
        assert (cdc.num_orders, cdc.num_workers) == (500, 100)

    def test_default_config_uses_table3_values(self):
        config = default_config("CDC")
        assert config.deadline_scale == 1.6
        assert config.max_capacity == 4
        assert config.watch_window_scale == 0.8
        assert config.grid_size == 10

    def test_default_config_overrides(self):
        config = default_config("NYC", num_orders=50)
        assert config.num_orders == 50

    def test_default_config_rejects_unknown_dataset(self):
        with pytest.raises(DatasetError, match="'SF'.*CDC"):
            default_config("SF")

    def test_parameter_grid_matches_table3(self):
        assert PARAMETER_GRID["deadline_scales"] == (1.2, 1.4, 1.6, 1.8)
        assert PARAMETER_GRID["capacities"] == (2, 3, 4, 5)
        assert PARAMETER_GRID["order_fractions"] == (0.50, 0.75, 1.00, 1.25)

    def test_worker_counts_scaled_preserves_ratios(self):
        counts = worker_counts_scaled()
        assert len(counts) == 4
        assert counts[0] < counts[-1]


#: The axis base scenario and, per axis, two values with the exact
#: SimulationConfig fields each must produce over it.
_AXIS_BASE = dict(num_orders=40, num_workers=10, horizon=900.0, grid_size=5)
_AXIS_CASES = [
    ("num_orders", 0.5, {"num_orders": 20}),
    ("num_orders", 0.1, {"num_orders": 10}),
    ("num_workers", 6, {"num_workers": 6}),
    ("num_workers", 0.5, {"num_workers": 1}),
    ("deadline_scale", 1.2, {"deadline_scale": 1.2}),
    ("deadline_scale", 2, {"deadline_scale": 2.0}),
    ("max_capacity", 5, {"max_capacity": 5, "max_group_size": 5}),
    ("max_capacity", 1, {"max_capacity": 2, "max_group_size": 2}),
    ("grid_size", 15, {"grid_size": 15}),
    ("grid_size", 20.0, {"grid_size": 20}),
    ("watch_window_scale", 0.4, {"watch_window_scale": 0.4}),
    ("watch_window_scale", 1, {"watch_window_scale": 1.0}),
    ("time_slot", 5, {"time_slot": 5.0, "check_period": 5.0}),
    ("time_slot", 30.0, {"time_slot": 30.0, "check_period": 30.0}),
    # omega is a training setting, not a SimulationConfig field
    ("loss_weight", 1, {}),
]


class TestAxisTable:
    def test_table_covers_the_figures_and_ablations(self):
        assert set(AXES) == {
            "num_orders",
            "num_workers",
            "deadline_scale",
            "max_capacity",
            "grid_size",
            "watch_window_scale",
            "time_slot",
            "loss_weight",
        }

    @pytest.mark.parametrize("axis, value, fields", _AXIS_CASES)
    def test_axis_maps_value_to_config(self, axis, value, fields):
        spec = ScenarioSpec(dataset="CDC", **_AXIS_BASE)
        expected = default_config("CDC", **_AXIS_BASE).with_overrides(**fields)
        assert AXES[axis].apply(spec, value).config() == expected

    def test_default_values_follow_table3(self):
        assert AXES["deadline_scale"].values == PARAMETER_GRID["deadline_scales"]
        assert AXES["num_workers"].values == worker_counts_scaled()
        assert AXES["time_slot"].values == PARAMETER_GRID["time_slots"]

    def test_loss_weight_axis_trains_the_value_network(self):
        spec = AXES["loss_weight"].apply(ScenarioSpec(dataset="CDC", **_AXIS_BASE), 1)
        assert (spec.use_rl, spec.loss_weight) == (True, 1.0)
        assert AXES["loss_weight"].values == PARAMETER_GRID["loss_weights"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            run_sweep("omega", _FAST_SPEC)


class TestSweeps:
    @pytest.fixture(scope="class")
    def order_sweep(self):
        return run_sweep(
            "num_orders", _FAST_SPEC, values=(0.5, 1.0), algorithms=_FAST_ALGOS
        )

    def test_sweep_covers_all_cells(self, order_sweep):
        assert sum(len(point.results) for point in order_sweep) == 2 * len(_FAST_ALGOS)
        assert [point.value for point in order_sweep] == [0.5, 1.0]
        assert {run.algorithm for run in order_sweep[0].results} == set(_FAST_ALGOS)

    def test_series_lengths(self, order_sweep):
        for algorithm in _FAST_ALGOS:
            line = series(order_sweep, algorithm, "service_rate")
            assert len(line) == 2
            assert all(0.0 <= value <= 1.0 for value in line)

    def test_deadline_sweep_changes_config(self):
        points = run_sweep(
            "deadline_scale",
            _FAST_SPEC,
            values=(1.2, 1.8),
            algorithms=("NonSharing",),
        )
        assert [point.value for point in points] == [1.2, 1.8]
        assert [point.results[0].spec.deadline_scale for point in points] == [1.2, 1.8]
        # a looser deadline can only help the service rate on the same workload
        line = series(points, "NonSharing", "service_rate")
        assert line[1] >= line[0] - 0.1

    def test_loss_weight_sweep_gives_one_point_per_omega(self):
        points = run_sweep(
            "loss_weight", _FAST_SPEC, values=(0.0, 1.0), algorithms=("WATTER-expect",)
        )
        assert [point.value for point in points] == [0.0, 1.0]
        assert [
            (run.spec.use_rl, run.spec.loss_weight)
            for point in points
            for run in point.results
        ] == [(True, 0.0), (True, 1.0)]


class TestReporting:
    @pytest.fixture(scope="class")
    def metrics_list(self):
        return [
            run.metrics
            for run in Session().compare(_FAST_SPEC, algorithms=_FAST_ALGOS)
        ]

    @pytest.fixture(scope="class")
    def one_point_sweep(self):
        return run_sweep(
            "num_orders", _FAST_SPEC, values=(1.0,), algorithms=("NonSharing",)
        )

    def test_comparison_table_contains_all_algorithms(self, metrics_list):
        table = format_comparison_table(metrics_list)
        for metrics in metrics_list:
            assert metrics.algorithm in table

    def test_sweep_table_rendering(self, one_point_sweep):
        table = format_sweep_table(one_point_sweep, "service_rate")
        assert table.splitlines()[0] == "Service Rate vs num_orders (CDC)"
        assert "NonSharing" in table
        full = format_full_sweep_report(one_point_sweep)
        assert "Extra Time" in full and "Unified Cost" in full

    def test_sweep_table_rejects_unknown_metric(self, one_point_sweep):
        with pytest.raises(KeyError):
            format_sweep_table(one_point_sweep, "not_a_metric")


class TestWorkedExample:
    def test_orders_match_table1(self):
        orders = example_orders()
        assert len(orders) == 4
        assert [order.release_time for order in orders] == [5.0, 8.0, 10.0, 12.0]

    def test_workload_has_two_workers(self):
        workload = example_workload()
        assert len(workload.workers) == 2
        assert workload.name == "Example1"

    def test_example_config_is_valid(self):
        assert isinstance(example_config(), SimulationConfig)

    def test_pooling_beats_non_sharing(self):
        """The qualitative claim of Example 1: waiting for the right partner
        reduces the total worker travel time compared to serving riders
        one by one or grouping only inside a batch."""
        result = run_worked_example()
        assert result.pooling <= result.non_sharing
        assert result.pooling <= result.batch
        assert set(result.as_dict()) == {
            "NonSharing",
            "WATTER-online",
            "GAS (batch)",
            "WATTER-timeout (pooling)",
        }
