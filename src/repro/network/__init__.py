"""Road-network substrate: graphs, shortest paths, spatial indexing."""

from .graph import RoadNetwork, build_network
from .grid import GridIndex
from .generators import (
    grid_city,
    manhattan_like_city,
    radial_city,
    example_network,
)
from .oracle import (
    CHOracle,
    DistanceOracle,
    LazyDijkstraOracle,
    OracleStats,
    configure_oracle,
    create_oracle,
)

__all__ = [
    "RoadNetwork",
    "build_network",
    "GridIndex",
    "grid_city",
    "manhattan_like_city",
    "radial_city",
    "example_network",
    "CHOracle",
    "DistanceOracle",
    "LazyDijkstraOracle",
    "OracleStats",
    "configure_oracle",
    "create_oracle",
]
