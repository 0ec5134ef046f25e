"""Spatial grid index over a road network.

The paper partitions the city into ``n x n`` cells (Section VII-A,
"grid index construction") and uses the cell index both to speed up
worker / rider searches and as the location component of the MDP state
(Section VI-A).  :class:`GridIndex` provides exactly those two services:

* ``cell_of(node)`` — the flat cell index of a node, and
* ``neighbourhood(cell, rings)`` — cells within a Chebyshev radius, used
  to find nearby idle workers without scanning the whole fleet.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from ..exceptions import ConfigurationError, UnknownNodeError
from .graph import RoadNetwork


class GridIndex:
    """Partition of a road network's bounding box into square cells.

    Parameters
    ----------
    network:
        The road network whose nodes are indexed.
    size:
        Number of cells along each axis (the paper's default is 10).
    """

    def __init__(self, network: RoadNetwork, size: int = 10) -> None:
        if size <= 0:
            raise ConfigurationError("grid size must be positive")
        self._network = network
        self._size = size
        min_x, min_y, max_x, max_y = network.bounding_box()
        # Guard against degenerate (single-point) networks: use a unit span.
        self._min_x = min_x
        self._min_y = min_y
        self._span_x = (max_x - min_x) or 1.0
        self._span_y = (max_y - min_y) or 1.0
        self._node_cell: dict[int, int] = {}
        self._cell_nodes: dict[int, list[int]] = defaultdict(list)
        for node in network.nodes():
            x, y = network.coordinates(node)
            cell = self._cell_for_xy(x, y)
            self._node_cell[node] = cell
            self._cell_nodes[cell].append(node)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of cells along one axis."""
        return self._size

    @property
    def num_cells(self) -> int:
        """Total number of cells (``size * size``)."""
        return self._size * self._size

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cell_of(self, node_id: int) -> int:
        """Flat cell index of a node."""
        try:
            return self._node_cell[node_id]
        except KeyError as exc:
            raise UnknownNodeError(node_id) from exc

    def cell_of_xy(self, x: float, y: float) -> int:
        """Flat cell index of an arbitrary coordinate (clamped to bounds)."""
        return self._cell_for_xy(x, y)

    def nodes_in_cell(self, cell: int) -> list[int]:
        """Node ids located in a cell (possibly empty)."""
        return list(self._cell_nodes.get(cell, ()))

    def cell_coordinates(self, cell: int) -> tuple[int, int]:
        """Return the ``(row, column)`` of a flat cell index."""
        if not 0 <= cell < self.num_cells:
            raise ConfigurationError(f"cell {cell} outside grid of size {self._size}")
        return divmod(cell, self._size)

    def ring(self, cell: int, radius: int) -> Iterator[int]:
        """Yield the cells at exactly Chebyshev distance ``radius``.

        This is the single source of the grid's ring geometry; the
        worker spatial index and :meth:`neighbourhood` both build on it.
        """
        row, col = self.cell_coordinates(cell)
        size = self._size
        if radius == 0:
            yield cell
            return
        for dr in range(-radius, radius + 1):
            r = row + dr
            if not 0 <= r < size:
                continue
            if abs(dr) == radius:
                # Top and bottom edges of the ring: full rows.
                for dc in range(-radius, radius + 1):
                    c = col + dc
                    if 0 <= c < size:
                        yield r * size + c
            else:
                # Left and right edges only.
                for dc in (-radius, radius):
                    c = col + dc
                    if 0 <= c < size:
                        yield r * size + c

    def neighbourhood(self, cell: int, rings: int = 1) -> Iterator[int]:
        """Yield the cells within ``rings`` Chebyshev distance of ``cell``.

        The cell itself is yielded first, then the surrounding rings, so
        a caller scanning for the nearest worker can stop early.
        """
        for radius in range(rings + 1):
            yield from self.ring(cell, radius)

    def density(self, nodes: Iterable[int]) -> list[int]:
        """Histogram of how many of ``nodes`` fall in each cell.

        Used for the demand / supply distribution vectors of the MDP
        state (Section VI-A).
        """
        counts = [0] * self.num_cells
        for node in nodes:
            counts[self.cell_of(node)] += 1
        return counts

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cell_for_xy(self, x: float, y: float) -> int:
        col = int((x - self._min_x) / self._span_x * self._size)
        row = int((y - self._min_y) / self._span_y * self._size)
        col = min(max(col, 0), self._size - 1)
        row = min(max(row, 0), self._size - 1)
        return row * self._size + col
