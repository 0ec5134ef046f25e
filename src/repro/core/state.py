"""Spatio-temporal MDP state featurisation (Section VI-A).

Each pooled order is an MDP agent whose state combines:

* **basic features** — the region (grid cell) of the pickup and dropoff
  locations as one-hot vectors ``s_L``, plus the release time slot and
  the waiting duration in slots as a two-dimensional vector ``s_T``,
* **environmental features** — the current demand distribution ``s_O``
  (counts of waiting orders' pickups and dropoffs per cell) and supply
  distribution ``s_W`` (counts of idle workers per cell), both
  normalised so the network does not have to learn the fleet size.

``StateEncoder`` turns an (order, pool snapshot, fleet snapshot, time)
tuple into a flat numpy vector; its ``dimension`` is what the value
network's input layer is sized to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TYPE_CHECKING

import numpy as np

from ..network.grid import GridIndex

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order


@dataclass(frozen=True)
class SpatioTemporalState:
    """A featurised MDP state plus the raw indices used to build it."""

    vector: np.ndarray
    pickup_cell: int
    dropoff_cell: int
    time_slot: int
    waited_slots: int

    @property
    def dimension(self) -> int:
        """Length of the feature vector."""
        return int(self.vector.shape[0])


class StateEncoder:
    """Builds the state vectors ``s_t = [s_L, s_T, s_O, s_W]``.

    Parameters
    ----------
    grid:
        Spatial grid index over the road network (the paper's n x n
        region partition).
    time_slot:
        Width of a decision time slot ``delta_t`` in seconds.
    horizon:
        Length of the simulated period, used to normalise the time slot
        index into ``[0, 1]``.
    """

    def __init__(self, grid: GridIndex, time_slot: float, horizon: float) -> None:
        self._grid = grid
        self._time_slot = time_slot
        self._horizon = max(horizon, time_slot)

    @property
    def grid(self) -> GridIndex:
        """The spatial grid index used for region features."""
        return self._grid

    @property
    def dimension(self) -> int:
        """Feature dimension: 2 one-hots + 2 scalars + 3 densities."""
        cells = self._grid.num_cells
        return 2 * cells + 2 + 3 * cells

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(
        self,
        order: "Order",
        now: float,
        waiting_pickups: Iterable[int] = (),
        waiting_dropoffs: Iterable[int] = (),
        idle_worker_locations: Iterable[int] = (),
    ) -> SpatioTemporalState:
        """Featurise one order's state at time ``now``.

        Parameters
        ----------
        order:
            The agent's order.
        now:
            Current timestamp.
        waiting_pickups, waiting_dropoffs:
            Pickup / dropoff nodes of all orders currently waiting in the
            pool (the demand distribution ``s_O``).
        idle_worker_locations:
            Locations of currently idle workers (the supply
            distribution ``s_W``).
        """
        cells = self._grid.num_cells
        pickup_cell = self._grid.cell_of(order.pickup)
        dropoff_cell = self._grid.cell_of(order.dropoff)

        location_features = np.zeros(2 * cells)
        location_features[pickup_cell] = 1.0
        location_features[cells + dropoff_cell] = 1.0

        time_slot_index = int(order.release_time // self._time_slot)
        waited_slots = max(int((now - order.release_time) // self._time_slot), 0)
        max_slots = max(int(self._horizon // self._time_slot), 1)
        time_features = np.array(
            [time_slot_index / max_slots, waited_slots / max_slots]
        )

        demand_pickup = self._normalised_density(waiting_pickups)
        demand_dropoff = self._normalised_density(waiting_dropoffs)
        supply = self._normalised_density(idle_worker_locations)

        vector = np.concatenate(
            [location_features, time_features, demand_pickup, demand_dropoff, supply]
        )
        return SpatioTemporalState(
            vector=vector,
            pickup_cell=pickup_cell,
            dropoff_cell=dropoff_cell,
            time_slot=time_slot_index,
            waited_slots=waited_slots,
        )

    def encode_batch(
        self,
        orders: Sequence["Order"],
        now: float,
        waiting_pickups: Iterable[int] = (),
        waiting_dropoffs: Iterable[int] = (),
        idle_worker_locations: Iterable[int] = (),
    ) -> np.ndarray:
        """Stack the encodings of several orders into a matrix."""
        pickups = list(waiting_pickups)
        dropoffs = list(waiting_dropoffs)
        workers = list(idle_worker_locations)
        states = [
            self.encode(order, now, pickups, dropoffs, workers).vector
            for order in orders
        ]
        if not states:
            return np.empty((0, self.dimension))
        return np.vstack(states)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _normalised_density(self, nodes: Iterable[int]) -> np.ndarray:
        counts = np.asarray(self._grid.density(nodes), dtype=float)
        total = counts.sum()
        if total > 0:
            counts = counts / total
        return counts
