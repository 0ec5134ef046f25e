"""Unit tests for the spatio-temporal MDP state featurisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import StateEncoder
from repro.network.grid import GridIndex
from tests.conftest import make_order


@pytest.fixture
def encoder(small_network):
    grid = GridIndex(small_network, size=3)
    return StateEncoder(grid, time_slot=10.0, horizon=1800.0)


class TestStateEncoder:
    def test_dimension_formula(self, encoder):
        cells = encoder.grid.num_cells
        assert encoder.dimension == 2 * cells + 2 + 3 * cells

    def test_vector_has_declared_dimension(self, encoder, small_network):
        order = make_order(small_network, 0, 35)
        state = encoder.encode(order, now=50.0)
        assert state.vector.shape == (encoder.dimension,)
        assert state.dimension == encoder.dimension

    def test_location_one_hots(self, encoder, small_network):
        order = make_order(small_network, 0, 35)
        state = encoder.encode(order, now=0.0)
        cells = encoder.grid.num_cells
        pickup_hot = state.vector[:cells]
        dropoff_hot = state.vector[cells : 2 * cells]
        assert pickup_hot.sum() == 1.0
        assert dropoff_hot.sum() == 1.0
        assert pickup_hot[state.pickup_cell] == 1.0
        assert dropoff_hot[state.dropoff_cell] == 1.0

    def test_waited_slots_progresses(self, encoder, small_network):
        order = make_order(small_network, 0, 35, release=100.0)
        early = encoder.encode(order, now=100.0)
        later = encoder.encode(order, now=180.0)
        assert early.waited_slots == 0
        assert later.waited_slots == 8

    def test_demand_and_supply_are_normalised(self, encoder, small_network):
        order = make_order(small_network, 0, 35)
        state = encoder.encode(
            order,
            now=0.0,
            waiting_pickups=[0, 1, 2, 35],
            waiting_dropoffs=[3, 4],
            idle_worker_locations=[5, 6, 7],
        )
        cells = encoder.grid.num_cells
        demand_pickup = state.vector[2 * cells + 2 : 3 * cells + 2]
        demand_dropoff = state.vector[3 * cells + 2 : 4 * cells + 2]
        supply = state.vector[4 * cells + 2 :]
        assert demand_pickup.sum() == pytest.approx(1.0)
        assert demand_dropoff.sum() == pytest.approx(1.0)
        assert supply.sum() == pytest.approx(1.0)

    def test_empty_environment_gives_zero_densities(self, encoder, small_network):
        order = make_order(small_network, 0, 35)
        state = encoder.encode(order, now=0.0)
        cells = encoder.grid.num_cells
        assert state.vector[2 * cells + 2 :].sum() == 0.0

    def test_time_features_in_unit_range(self, encoder, small_network):
        order = make_order(small_network, 0, 35, release=900.0)
        state = encoder.encode(order, now=1700.0)
        cells = encoder.grid.num_cells
        time_features = state.vector[2 * cells : 2 * cells + 2]
        assert 0.0 <= time_features[0] <= 1.0
        assert 0.0 <= time_features[1] <= 1.0

    def test_encode_batch_shape(self, encoder, small_network):
        orders = [make_order(small_network, 0, 35), make_order(small_network, 1, 30)]
        matrix = encoder.encode_batch(orders, now=0.0)
        assert matrix.shape == (2, encoder.dimension)

    def test_encode_batch_empty(self, encoder):
        assert encoder.encode_batch([], now=0.0).shape == (0, encoder.dimension)

    def test_different_pickups_differ(self, encoder, small_network):
        first = make_order(small_network, 0, 35)
        second = make_order(small_network, 35, 0)
        a = encoder.encode(first, now=0.0).vector
        b = encoder.encode(second, now=0.0).vector
        assert not np.array_equal(a, b)
