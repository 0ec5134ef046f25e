"""Synthetic road-network generators.

The paper evaluates on the road networks of New York City, Chengdu and
Xi'an.  Those map extracts are not bundled here, so the generators below
produce synthetic networks with the structural properties the WATTER
algorithms care about:

* ``grid_city`` — a rectangular lattice with per-edge travel times, the
  workhorse for the CDC/XIA-like workloads,
* ``manhattan_like_city`` — a tall, narrow lattice with a fast "avenue"
  axis, mimicking the elongated, dense Manhattan street grid used by the
  NYC workload,
* ``radial_city`` — ring-and-spoke topology useful for robustness tests,
* ``large_city`` — a city-scale lattice (10^5+ nodes) with a fast
  arterial sub-grid, built in O(V+E) for the ``LARGE`` dataset preset,
* ``example_network`` — the exact 6-node / 7-edge network of Figure 1
  and Example 1, used to validate the strategies end-to-end.
"""

from __future__ import annotations

import math
import random

from ..exceptions import ConfigurationError
from .graph import RoadNetwork, build_network


def grid_city(
    rows: int = 20,
    cols: int = 20,
    edge_travel_time: float = 60.0,
    jitter: float = 0.2,
    seed: int = 0,
) -> RoadNetwork:
    """A ``rows x cols`` lattice with jittered per-edge travel times.

    Parameters
    ----------
    rows, cols:
        Lattice dimensions.
    edge_travel_time:
        Mean travel time (seconds) of one block.
    jitter:
        Relative uniform jitter applied to each edge's travel time, so
        shortest paths are not all exactly grid-aligned.
    seed:
        Seed for the jitter.
    """
    if rows < 2 or cols < 2:
        raise ConfigurationError("grid_city needs at least a 2x2 lattice")
    if not 0 <= jitter < 1:
        raise ConfigurationError("jitter must lie in [0, 1)")
    rng = random.Random(seed)
    nodes = []
    edges = []
    for r in range(rows):
        for c in range(cols):
            nodes.append((r * cols + c, float(c), float(r)))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1, _jittered(edge_travel_time, jitter, rng)))
            if r + 1 < rows:
                edges.append((node, node + cols, _jittered(edge_travel_time, jitter, rng)))
    return build_network(nodes, edges)


def manhattan_like_city(
    rows: int = 40,
    cols: int = 8,
    avenue_travel_time: float = 45.0,
    street_travel_time: float = 75.0,
    jitter: float = 0.15,
    seed: int = 0,
) -> RoadNetwork:
    """An elongated lattice with fast north-south "avenues".

    The NYC yellow-taxi demand the paper uses is concentrated in the
    long, narrow Manhattan grid where travelling along an avenue is
    faster than crossing streets.  The generator reproduces both the
    aspect ratio and the travel-time anisotropy.
    """
    if rows < 2 or cols < 2:
        raise ConfigurationError("manhattan_like_city needs at least a 2x2 lattice")
    rng = random.Random(seed)
    nodes = []
    edges = []
    for r in range(rows):
        for c in range(cols):
            nodes.append((r * cols + c, float(c), float(r)))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append(
                    (node, node + 1, _jittered(street_travel_time, jitter, rng))
                )
            if r + 1 < rows:
                edges.append(
                    (node, node + cols, _jittered(avenue_travel_time, jitter, rng))
                )
    return build_network(nodes, edges)


def radial_city(
    rings: int = 5,
    spokes: int = 8,
    ring_travel_time: float = 90.0,
    spoke_travel_time: float = 60.0,
    seed: int = 0,
) -> RoadNetwork:
    """A ring-and-spoke city centred on a single hub node.

    Node 0 is the centre; node ``1 + ring*spokes + spoke`` lies on the
    given ring/spoke.  Useful for stress-testing routing on non-lattice
    topologies.
    """
    if rings < 1 or spokes < 3:
        raise ConfigurationError("radial_city needs >=1 ring and >=3 spokes")
    rng = random.Random(seed)
    nodes = [(0, 0.0, 0.0)]
    edges = []
    for ring in range(rings):
        radius = float(ring + 1)
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            node_id = 1 + ring * spokes + spoke
            nodes.append((node_id, radius * math.cos(angle), radius * math.sin(angle)))
            # connect along the ring
            next_id = 1 + ring * spokes + (spoke + 1) % spokes
            edges.append((node_id, next_id, _jittered(ring_travel_time, 0.1, rng)))
            # connect inward (to previous ring or to the hub)
            inner_id = 0 if ring == 0 else 1 + (ring - 1) * spokes + spoke
            edges.append((inner_id, node_id, _jittered(spoke_travel_time, 0.1, rng)))
    return build_network(nodes, edges)


def large_city(
    rows: int = 320,
    cols: int = 320,
    edge_travel_time: float = 60.0,
    arterial_period: int = 8,
    arterial_factor: float = 0.5,
    jitter: float = 0.2,
    seed: int = 0,
) -> RoadNetwork:
    """A city-scale lattice with a faster arterial sub-grid.

    The default 320x320 shape gives 102 400 nodes / ~408k directed
    edges; the ``lazy`` backend serves it without preprocessing.  Every
    ``arterial_period``-th row and column is an arterial whose edges
    cost ``arterial_factor`` of a normal block, so shortest paths
    concentrate on a sparse fast sub-grid the way they do on real road
    hierarchies.

    Construction is one pass over nodes and one over edges — O(V+E)
    time and memory, no pairwise or quadratic work — so the generator
    stays usable at 10^6 nodes.
    """
    if rows < 2 or cols < 2:
        raise ConfigurationError("large_city needs at least a 2x2 lattice")
    if not 0 <= jitter < 1:
        raise ConfigurationError("jitter must lie in [0, 1)")
    if arterial_period < 2:
        raise ConfigurationError("arterial_period must be at least 2")
    if not 0 < arterial_factor <= 1:
        raise ConfigurationError("arterial_factor must lie in (0, 1]")
    rng = random.Random(seed)
    nodes = []
    edges = []
    for r in range(rows):
        for c in range(cols):
            nodes.append((r * cols + c, float(c), float(r)))
    for r in range(rows):
        on_arterial_row = r % arterial_period == 0
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                # Eastward edges run along row r: fast on arterial rows.
                base = edge_travel_time * (
                    arterial_factor if on_arterial_row else 1.0
                )
                edges.append((node, node + 1, _jittered(base, jitter, rng)))
            if r + 1 < rows:
                # Southward edges run along column c.
                base = edge_travel_time * (
                    arterial_factor if c % arterial_period == 0 else 1.0
                )
                edges.append((node, node + cols, _jittered(base, jitter, rng)))
    return build_network(nodes, edges)


def example_network() -> RoadNetwork:
    """The 6-node, 7-edge road network of Figure 1 / Example 1.

    Nodes are labelled ``a..f`` mapped to ids 0..5; every edge takes one
    minute (60 seconds), matching the example's unit travel times.
    """
    labels = {name: idx for idx, name in enumerate("abcdef")}
    coordinates = {
        "a": (0.0, 1.0),
        "b": (1.0, 2.0),
        "c": (1.0, 0.0),
        "d": (2.0, 1.0),
        "e": (3.0, 2.0),
        "f": (3.0, 0.0),
    }
    edge_names = [
        ("a", "b"),
        ("a", "c"),
        ("b", "d"),
        ("c", "d"),
        ("d", "e"),
        ("d", "f"),
        ("e", "f"),
    ]
    nodes = [(labels[name], x, y) for name, (x, y) in coordinates.items()]
    edges = [(labels[u], labels[v], 60.0) for u, v in edge_names]
    return build_network(nodes, edges)


def example_node(label: str) -> int:
    """Map an Example 1 node label (``'a'``..``'f'``) to its node id."""
    if label not in "abcdef" or len(label) != 1:
        raise ConfigurationError(f"unknown example node label {label!r}")
    return "abcdef".index(label)


def _jittered(value: float, jitter: float, rng: random.Random) -> float:
    if jitter == 0:
        return value
    return value * (1.0 + rng.uniform(-jitter, jitter))
