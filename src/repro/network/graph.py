"""Road network graph with travel-time shortest-path queries.

The WATTER algorithms only ever ask two questions of the road network:

* ``cost(a, b)`` — the shortest travel time between two locations
  (Definition 3 uses it to price every leg of a route), and
* node coordinates — used by the spatial grid index and the MDP state
  featurisation.

``RoadNetwork`` wraps a :class:`networkx.DiGraph` and delegates every
shortest-path question to a pluggable
:class:`~repro.network.oracle.DistanceOracle`.  The default backend is
:class:`~repro.network.oracle.LazyDijkstraOracle` — run one Dijkstra per
unseen source and cache the distance map (LRU-bounded) — which matches
the access pattern of small workloads.  The ``ch`` (contraction
hierarchy) backend swaps in via ``SimulationConfig.oracle`` or the CLI
without any dispatcher code changing.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, TYPE_CHECKING

import networkx as nx

from ..exceptions import NetworkError, UnknownNodeError, UnreachableError
from .oracle.base import OracleStats
from .oracle.lazy import LazyDijkstraOracle
from .oracle.spec import OracleSpec

if TYPE_CHECKING:  # pragma: no cover
    from .oracle.base import DistanceOracle


class RoadNetwork:
    """A directed, travel-time-weighted road network.

    Parameters
    ----------
    graph:
        A ``networkx.DiGraph`` whose edges carry a ``travel_time``
        attribute (seconds) and whose nodes carry ``x``/``y``
        coordinates.  Undirected graphs are accepted and converted.
    oracle:
        Distance oracle answering shortest-path queries.  Defaults to
        the oracle the all-defaults :class:`OracleSpec` asks for: a
        :class:`LazyDijkstraOracle` with its default LRU bound.
    """

    def __init__(
        self,
        graph: nx.Graph,
        oracle: "DistanceOracle | None" = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise NetworkError("a road network needs at least one node")
        directed = graph.to_directed() if not graph.is_directed() else graph
        for u, v, data in directed.edges(data=True):
            if "travel_time" not in data:
                raise NetworkError(
                    f"edge ({u!r}, {v!r}) is missing the 'travel_time' attribute"
                )
            if data["travel_time"] < 0:
                raise NetworkError(
                    f"edge ({u!r}, {v!r}) has negative travel time"
                )
        for node, data in directed.nodes(data=True):
            if "x" not in data or "y" not in data:
                raise NetworkError(f"node {node!r} is missing x/y coordinates")
        self._graph = directed
        self._nearest_index: "_NearestNodeIndex | None" = None
        if oracle is None:
            # Exactly what ``configure_oracle`` builds for the all-defaults
            # spec: a default-configured run keeps this oracle and the
            # cache workload generation warmed in it.
            oracle = LazyDijkstraOracle(directed)
            oracle.built_from = OracleSpec()
        self._oracle: "DistanceOracle" = oracle

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (treat as read-only)."""
        return self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._graph

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._graph.nodes)

    def number_of_edges(self) -> int:
        """Number of directed edges."""
        return self._graph.number_of_edges()

    def coordinates(self, node_id: int) -> tuple[float, float]:
        """Return the ``(x, y)`` coordinates of a node."""
        self._require_node(node_id)
        data = self._graph.nodes[node_id]
        return float(data["x"]), float(data["y"])

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all nodes."""
        xs = [float(d["x"]) for _, d in self._graph.nodes(data=True)]
        ys = [float(d["y"]) for _, d in self._graph.nodes(data=True)]
        return min(xs), min(ys), max(xs), max(ys)

    # ------------------------------------------------------------------
    # distance-oracle management
    # ------------------------------------------------------------------
    @property
    def oracle(self) -> "DistanceOracle":
        """The distance oracle currently answering shortest-path queries."""
        return self._oracle

    def set_oracle(self, oracle: "DistanceOracle") -> None:
        """Swap in a different distance oracle (must wrap this graph)."""
        if oracle.graph is not self._graph:
            raise NetworkError(
                "the oracle was built over a different graph; build it over "
                "RoadNetwork.graph"
            )
        self._oracle = oracle

    # ------------------------------------------------------------------
    # shortest paths
    # ------------------------------------------------------------------
    def travel_time(self, source: int, target: int) -> float:
        """Shortest travel time (seconds) from ``source`` to ``target``.

        Raises
        ------
        UnknownNodeError
            If either endpoint is not part of the network.
        UnreachableError
            If the target cannot be reached from the source.
        """
        self._require_node(source)
        self._require_node(target)
        if source == target:
            return 0.0
        return self._oracle.travel_time(source, target)

    def travel_times_to(self, target: int) -> dict[int, float]:
        """All shortest travel times *to* ``target``, as a dict view.

        ``source -> d(source, target)`` for every source that can reach
        the target, in sorted-id order: the :meth:`leg_matrix` column of
        every node against ``target``.
        """
        sources = self.nodes_sorted()
        column = self.leg_matrix(sources, [target])
        return {
            source: seconds
            for source, (seconds,) in zip(sources, column)
            if seconds != math.inf
        }

    def travel_times_many(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> dict[tuple[int, int], float]:
        """Batched travel times over the ``sources x targets`` product.

        Returns ``(source, target) -> seconds``; unreachable pairs are
        absent from the result.  A pair-keyed view of one
        :meth:`leg_matrix` call over the distinct sources and targets,
        kept for callers that want a dict; dispatch itself asks through
        :meth:`leg_matrix`.
        """
        source_list = list(dict.fromkeys(sources))
        target_list = list(dict.fromkeys(targets))
        rows = self.leg_matrix(source_list, target_list)
        return {
            (source, target): seconds
            for source, row in zip(source_list, rows)
            for target, seconds in zip(target_list, row)
            if seconds != math.inf
        }

    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """Dense travel times: ``result[i][j]`` is ``sources[i]`` to ``targets[j]``.

        Rows and columns follow argument order (duplicates allowed).  A
        cell is ``0.0`` where source is target, ``math.inf`` where the
        target is unreachable, and otherwise exactly what
        :meth:`travel_time` answers for the pair after the call — one
        oracle hop for every leg a route plan can use.
        """
        graph = self._graph
        for node in set(sources).union(targets):
            if node not in graph:
                raise UnknownNodeError(node)
        return self._oracle.leg_matrix(sources, targets)

    def shortest_path(self, source: int, target: int) -> list[int]:
        """Return the node sequence of a shortest path.

        Oracles answer distances only, so this is a plain Dijkstra on
        the underlying graph whatever the backend.
        """
        self._require_node(source)
        self._require_node(target)
        try:
            return nx.dijkstra_path(
                self._graph, source, target, weight="travel_time"
            )
        except nx.NetworkXNoPath as exc:
            raise UnreachableError(source, target) from exc

    def is_reachable(self, source: int, target: int) -> bool:
        """Whether a path exists from ``source`` to ``target``."""
        self._require_node(source)
        self._require_node(target)
        if source == target:
            return True
        return self._oracle.is_reachable(source, target)

    def clear_cache(self) -> None:
        """Drop the oracle's cached shortest-path state."""
        self._oracle.clear()

    def oracle_stats(self) -> OracleStats:
        """Query/cache counters of the active oracle backend."""
        return self._oracle.stats()

    # ------------------------------------------------------------------
    # sampling helpers
    # ------------------------------------------------------------------
    def nodes_sorted(self) -> list[int]:
        """Node ids in a deterministic order (for reproducible sampling)."""
        return sorted(self._graph.nodes)

    def nearest_node(self, x: float, y: float) -> int:
        """Node id whose coordinates are closest (Euclidean) to ``(x, y)``.

        Answered from a lazily built bucket-grid index (O(V) once, then
        ~O(1) per query on evenly spread networks) instead of a linear
        scan, so demand sampling on a 10^5-node city does not turn into
        a quadratic pass.  Ties resolve exactly like the old scan: the
        first node in graph iteration order wins.
        """
        if self._nearest_index is None:
            self._nearest_index = _NearestNodeIndex(self._graph)
        return self._nearest_index.query(x, y)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_node(self, node_id: int) -> None:
        if node_id not in self._graph:
            raise UnknownNodeError(node_id)


class _NearestNodeIndex:
    """Bucket grid answering nearest-node queries in expanding rings.

    Nodes are binned into ~sqrt(V) x sqrt(V) square cells over the
    bounding box; a query scans its own cell first and widens the
    Chebyshev ring until no unscanned cell can hold a closer — or
    equally close but earlier — node.  Candidates are ranked by
    ``(squared distance, graph insertion rank)``, which reproduces the
    strict-improvement linear scan bit for bit: among equidistant
    nodes the one seen first in graph iteration order wins.
    """

    def __init__(self, graph: nx.DiGraph) -> None:
        entries = [
            (rank, node, float(data["x"]), float(data["y"]))
            for rank, (node, data) in enumerate(graph.nodes(data=True))
        ]
        xs = [entry[2] for entry in entries]
        ys = [entry[3] for entry in entries]
        self._min_x = min(xs)
        self._min_y = min(ys)
        span_x = (max(xs) - self._min_x) or 1.0
        span_y = (max(ys) - self._min_y) or 1.0
        self._size = max(1, int(math.isqrt(len(entries))))
        self._cell_w = span_x / self._size
        self._cell_h = span_y / self._size
        self._buckets: dict[tuple[int, int], list[tuple[int, int, float, float]]]
        self._buckets = {}
        for entry in entries:
            self._buckets.setdefault(self._cell_of(entry[2], entry[3]), []).append(
                entry
            )

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        col = min(max(int((x - self._min_x) / self._cell_w), 0), self._size - 1)
        row = min(max(int((y - self._min_y) / self._cell_h), 0), self._size - 1)
        return row, col

    def query(self, x: float, y: float) -> int:
        row, col = self._cell_of(x, y)
        size = self._size
        cell_min = min(self._cell_w, self._cell_h)
        best: tuple[float, int, int] | None = None  # (dist2, rank, node)
        for radius in range(2 * size + 1):
            if best is not None:
                # Every node in an unscanned cell is at least
                # ``(radius - 1) * cell_min`` away (the query point can
                # sit anywhere inside its own cell, hence the -1).  The
                # strict comparison keeps scanning while an exact tie
                # with a lower rank is still geometrically possible.
                reach = (radius - 1) * cell_min
                if reach > 0 and reach * reach > best[0]:
                    break
            lo_r, hi_r = row - radius, row + radius
            for r in range(max(lo_r, 0), min(hi_r, size - 1) + 1):
                if r in (lo_r, hi_r):
                    cols = range(max(col - radius, 0), min(col + radius, size - 1) + 1)
                else:
                    cols = (c for c in (col - radius, col + radius) if 0 <= c < size)
                for c in cols:
                    for rank, node, nx_, ny_ in self._buckets.get((r, c), ()):
                        dx = nx_ - x
                        dy = ny_ - y
                        candidate = (dx * dx + dy * dy, rank, node)
                        if best is None or candidate < best:
                            best = candidate
        assert best is not None  # RoadNetwork rejects empty graphs
        return best[2]


def build_network(
    nodes: Iterable[tuple[int, float, float]],
    edges: Iterable[tuple[int, int, float]],
    bidirectional: bool = True,
) -> RoadNetwork:
    """Construct a :class:`RoadNetwork` from plain tuples.

    Parameters
    ----------
    nodes:
        ``(node_id, x, y)`` triples.
    edges:
        ``(u, v, travel_time)`` triples.
    bidirectional:
        When true (default) every edge is inserted in both directions,
        which matches the paper's undirected example network.
    """
    graph = nx.DiGraph()
    for node_id, x, y in nodes:
        graph.add_node(node_id, x=float(x), y=float(y))
    for u, v, travel_time in edges:
        graph.add_edge(u, v, travel_time=float(travel_time))
        if bidirectional:
            graph.add_edge(v, u, travel_time=float(travel_time))
    return RoadNetwork(graph)
