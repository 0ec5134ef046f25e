"""Unit tests for the synthetic workload generators and CSV I/O."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.config import SimulationConfig
from repro.datasets.io import (
    orders_from_csv,
    orders_to_csv,
    raw_trips_to_orders,
    workers_from_csv,
    workers_to_csv,
)
from repro.datasets.synthetic import CityModel, DemandHotspot, PeakPeriod
from repro.datasets.workloads import DATASETS, build_workload, city_by_name
from repro.exceptions import ConfigurationError, DatasetError
from repro.network.generators import grid_city, large_city
from tests.reference.nx_graph import to_networkx


@pytest.fixture
def tiny_config():
    return SimulationConfig(
        num_orders=40,
        num_workers=6,
        horizon=1800.0,
        deadline_scale=1.6,
        watch_window_scale=0.8,
        seed=11,
    )


class TestCityModel:
    def test_requires_hotspots(self):
        network = grid_city(rows=4, cols=4, seed=0)
        with pytest.raises(DatasetError):
            CityModel(
                name="bad",
                network=network,
                pickup_hotspots=[],
                dropoff_hotspots=[DemandHotspot(0, 0, 1.0)],
            )

    def test_uniform_fraction_bounds(self):
        network = grid_city(rows=4, cols=4, seed=0)
        with pytest.raises(DatasetError):
            CityModel(
                name="bad",
                network=network,
                pickup_hotspots=[DemandHotspot(0, 0, 1.0)],
                dropoff_hotspots=[DemandHotspot(0, 0, 1.0)],
                uniform_fraction=1.5,
            )

    def test_arrival_rate_multiplier(self):
        network = grid_city(rows=4, cols=4, seed=0)
        city = CityModel(
            name="peaky",
            network=network,
            pickup_hotspots=[DemandHotspot(0, 0, 1.0)],
            dropoff_hotspots=[DemandHotspot(3, 3, 1.0)],
            peak_periods=[PeakPeriod(start=100.0, end=200.0, intensity=3.0)],
        )
        assert city.arrival_rate_multiplier(50.0) == 1.0
        assert city.arrival_rate_multiplier(150.0) == 3.0
        assert city.arrival_rate_multiplier(250.0) == 1.0


class TestWorkloadGeneration:
    @pytest.mark.parametrize("dataset", ("NYC", "CDC", "XIA"))
    def test_presets_generate(self, dataset, tiny_config):
        workload = build_workload(dataset, tiny_config)
        assert workload.name == dataset
        assert len(workload.orders) > 0
        assert len(workload.workers) == tiny_config.num_workers

    def test_orders_sorted_by_release(self, tiny_config):
        workload = build_workload("CDC", tiny_config)
        releases = [order.release_time for order in workload.orders]
        assert releases == sorted(releases)

    def test_order_invariants(self, tiny_config):
        workload = build_workload("CDC", tiny_config)
        for order in workload.orders:
            assert order.pickup != order.dropoff
            assert order.shortest_time > 0
            assert order.deadline == pytest.approx(
                order.release_time + tiny_config.deadline_scale * order.shortest_time
            )
            assert order.wait_limit == pytest.approx(
                tiny_config.watch_window_scale * order.shortest_time
            )
            assert 0.0 <= order.release_time <= tiny_config.horizon

    def test_worker_invariants(self, tiny_config):
        workload = build_workload("XIA", tiny_config)
        for worker in workload.workers:
            assert 2 <= worker.capacity <= tiny_config.max_capacity
            assert worker.location in workload.network

    def test_generation_is_deterministic(self, tiny_config):
        first = build_workload("CDC", tiny_config)
        second = build_workload("CDC", tiny_config)
        assert [(o.pickup, o.dropoff, o.release_time) for o in first.orders] == [
            (o.pickup, o.dropoff, o.release_time) for o in second.orders
        ]

    def test_different_seeds_differ(self, tiny_config):
        other = tiny_config.with_overrides(seed=99)
        first = build_workload("CDC", tiny_config)
        second = build_workload("CDC", other)
        assert [(o.pickup, o.dropoff) for o in first.orders] != [
            (o.pickup, o.dropoff) for o in second.orders
        ]

    def test_city_by_name_rejects_unknown(self):
        with pytest.raises(DatasetError):
            city_by_name("LONDON")

    def test_nyc_demand_is_more_concentrated_than_xia(self, tiny_config):
        from repro.network.grid import GridIndex

        config = tiny_config.with_overrides(num_orders=150)
        nyc = build_workload("NYC", config)
        xia = build_workload("XIA", config)

        def top_cell_share(workload):
            """Fraction of pickups falling in the busiest 20% of grid cells."""
            grid = GridIndex(workload.network, size=5)
            counts = sorted(
                grid.density([order.pickup for order in workload.orders]), reverse=True
            )
            top = counts[: max(grid.num_cells // 5, 1)]
            return sum(top) / max(sum(counts), 1)

        assert top_cell_share(nyc) > top_cell_share(xia)


_ORDER_HEADER = "order_id,pickup,dropoff,release_time,shortest_time,deadline,wait_limit,riders"


class TestCsvRoundTrip:
    def test_orders_round_trip(self, tiny_config, tmp_path):
        workload = build_workload("CDC", tiny_config)
        path = tmp_path / "orders.csv"
        orders_to_csv(workload.orders, path)
        loaded = orders_from_csv(path)
        assert len(loaded) == len(workload.orders)
        original = {(o.order_id, o.pickup, o.dropoff) for o in workload.orders}
        restored = {(o.order_id, o.pickup, o.dropoff) for o in loaded}
        assert original == restored

    def test_workers_round_trip(self, tiny_config, tmp_path):
        workload = build_workload("CDC", tiny_config)
        path = tmp_path / "workers.csv"
        workers_to_csv(workload.workers, path)
        loaded = workers_from_csv(path)
        assert {(w.worker_id, w.location, w.capacity) for w in loaded} == {
            (w.worker_id, w.location, w.capacity) for w in workload.workers
        }

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DatasetError):
            orders_from_csv(path)
        with pytest.raises(DatasetError):
            workers_from_csv(path)

    @pytest.mark.parametrize(
        "reader, header, rows, where",
        [
            (orders_from_csv, _ORDER_HEADER, ["1,2,3,abc,1,2,3,1"], "row 1, column 'release_time'"),
            (orders_from_csv, _ORDER_HEADER, ["1,2,3,0,1,2,3,1", "1,2"], "row 2, column 'dropoff'"),
            (orders_from_csv, _ORDER_HEADER, ["1,2,3,nan,1,2,3,1"], "row 1, column 'release_time'"),
            (orders_from_csv, _ORDER_HEADER, ["1,2,3,0,1,inf,3,1"], "row 1, column 'deadline'"),
            (workers_from_csv, "worker_id,location,capacity", ["0,5,4", "1,x,4"], "row 2, column 'location'"),
        ],
        ids=["unparsable", "short-row", "nan", "inf", "worker-cell"],
    )
    def test_malformed_cell_names_row_and_column(self, reader, header, rows, where, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DatasetError, match=where) as excinfo:
            reader(path)
        assert str(path) in str(excinfo.value)

    def test_raw_trips_to_orders(self, tiny_config):
        network = grid_city(rows=4, cols=4, jitter=0.0, seed=0)
        rows = [
            {"pickup_x": 0.1, "pickup_y": 0.1, "dropoff_x": 3.0, "dropoff_y": 3.0,
             "release_time": 5.0},
            {"pickup_x": 1.0, "pickup_y": 1.0, "dropoff_x": 1.0, "dropoff_y": 1.0,
             "release_time": 9.0},  # degenerate: same node -> skipped
        ]
        orders = raw_trips_to_orders(rows, network, tiny_config)
        assert len(orders) == 1
        assert orders[0].release_time == 5.0
        assert orders[0].shortest_time > 0


class TestLargeCity:
    def test_shape_and_arterials(self):
        network = large_city(rows=16, cols=16, jitter=0.0, arterial_period=4)
        graph = to_networkx(network.graph)
        assert graph.number_of_nodes() == 256
        # Eastward edges on an arterial row are cheaper than a normal row.
        arterial = graph[0][1]["travel_time"]
        side_street = graph[16][17]["travel_time"]
        assert arterial == pytest.approx(0.5 * side_street)
        # Strongly connected: build_network inserts both directions.
        assert nx.is_strongly_connected(graph)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            large_city(rows=1, cols=5)
        with pytest.raises(ConfigurationError):
            large_city(rows=4, cols=4, arterial_period=1)
        with pytest.raises(ConfigurationError):
            large_city(rows=4, cols=4, arterial_factor=0.0)

    def test_large_dataset_registered(self):
        assert "LARGE" in DATASETS
        with pytest.raises(DatasetError, match="LARGE-SYNTHETIC"):
            city_by_name("LARGE-SYNTHETIC")
        with pytest.raises(Exception) as excinfo:
            city_by_name("nowhere")
        assert "LARGE" in str(excinfo.value)



class TestLocalTripDemand:
    def _city(self):
        network = grid_city(rows=10, cols=10, edge_travel_time=60.0, seed=14)
        return CityModel(
            name="local",
            network=network,
            pickup_hotspots=[DemandHotspot(x=5.0, y=5.0, spread=3.0)],
            dropoff_hotspots=[DemandHotspot(x=5.0, y=5.0, spread=3.0)],
            uniform_fraction=0.2,
            min_trip_time=120.0,
            local_trip_spread=3.0,
        )

    def test_orders_carry_exact_shortest_times(self):
        city = self._city()
        config = SimulationConfig(num_orders=15, num_workers=3, seed=21)
        workload = city.generate(config)
        assert workload.orders
        for order in workload.orders:
            want = nx.dijkstra_path_length(
                to_networkx(city.network.graph),
                order.pickup,
                order.dropoff,
                weight="travel_time",
            )
            assert order.shortest_time == want
            assert order.shortest_time >= city.min_trip_time

    def test_generation_is_deterministic(self):
        config = SimulationConfig(num_orders=10, num_workers=2, seed=22)
        first = self._city().generate(config)
        second = self._city().generate(config)
        assert [
            (o.pickup, o.dropoff, o.release_time) for o in first.orders
        ] == [(o.pickup, o.dropoff, o.release_time) for o in second.orders]

    def test_spread_must_be_positive(self):
        network = grid_city(rows=4, cols=4, seed=0)
        with pytest.raises(Exception):
            CityModel(
                name="bad",
                network=network,
                pickup_hotspots=[DemandHotspot(x=1.0, y=1.0, spread=1.0)],
                dropoff_hotspots=[DemandHotspot(x=1.0, y=1.0, spread=1.0)],
                local_trip_spread=0.0,
            )
