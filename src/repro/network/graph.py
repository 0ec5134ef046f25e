"""Road network graph with travel-time shortest-path queries.

The WATTER algorithms only ever ask two questions of the road network:

* ``cost(a, b)`` — the shortest travel time between two locations
  (Definition 3 uses it to price every leg of a route), and
* node coordinates — used by the spatial grid index and the MDP state
  featurisation.

The graph itself is a :class:`RoadGraph`: node coordinates and weighted
out-edges, frozen when :func:`build_network` builds it, with the
sorted-index adjacency lists every search runs on built once and
shared by the oracles, the spatial index and the graph's own
point-to-point Dijkstra.  ``RoadNetwork`` wraps it and delegates every
shortest-path question to a pluggable
:class:`~repro.network.oracle.DistanceOracle`.  The default backend is
:class:`~repro.network.oracle.LazyDijkstraOracle` — run one Dijkstra per
unseen source and cache the distance map (LRU-bounded) — which matches
the access pattern of small workloads.  The ``ch`` (contraction
hierarchy) backend swaps in via ``SimulationConfig.oracle`` or the CLI
without any dispatcher code changing.

Each oracle query runs under the oracle's one ``lock``, so runs and
workload generation sharing one network (the serve layer's pooled
sessions) take turns at the oracle instead of racing on its caches.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Iterator, Sequence, TYPE_CHECKING

from ..exceptions import NetworkError, UnknownNodeError, UnreachableError
from .oracle.base import OracleStats
from .oracle.lazy import LazyDijkstraOracle
from .oracle.spec import OracleSpec

if TYPE_CHECKING:  # pragma: no cover
    from .oracle.base import DistanceOracle

#: ``(neighbour index, travel time)`` lists, one per node index.
Adjacency = list[list[tuple[int, float]]]


class RoadGraph:
    """An immutable directed road graph: node coordinates and weighted edges.

    Nodes iterate in insertion order and :meth:`indexed_edges` by tail
    in insertion order, then by first insertion of the head: the orders
    of a ``networkx.DiGraph`` fed the same calls.  Searches work over
    node *indices* (``nodes_sorted[i]``, inverse ``index``):
    ``successors[i]`` / ``predecessors[i]`` hold ``(neighbour index,
    travel time)`` out- / in-edges in edge order, shared by every
    reader and mutated by none.
    """

    __slots__ = ("_coordinates", "nodes_sorted", "index", "successors", "predecessors")

    def __init__(
        self,
        nodes: Iterable[tuple[int, float, float]],
        edges: Iterable[tuple[int, int, float]],
        bidirectional: bool = False,
    ) -> None:
        # A repeated node or edge keeps its first position and its last
        # value, as ``DiGraph.add_node`` / ``add_edge`` do: so does ``dict``.
        self._coordinates = {node: (float(x), float(y)) for node, x, y in nodes}
        if not self._coordinates:
            raise NetworkError("a road network needs at least one node")
        self.nodes_sorted: list[int] = sorted(self._coordinates)
        self.index = {node: i for i, node in enumerate(self.nodes_sorted)}
        heads: Adjacency = [[] for _ in self.nodes_sorted]
        for u, v, travel_time in edges:
            if u not in self.index or v not in self.index:
                raise NetworkError(f"edge ({u!r}, {v!r}) names a node with no x/y")
            try:
                weight = float(travel_time)
            except (TypeError, ValueError):
                raise NetworkError(f"edge ({u!r}, {v!r}) has no travel time") from None
            if not weight >= 0.0:
                raise NetworkError(f"edge ({u!r}, {v!r}) has negative travel time")
            tail, head = self.index[u], self.index[v]
            heads[tail].append((head, weight))
            if bidirectional:
                heads[head].append((tail, weight))
        self.successors: Adjacency = [list(dict(row).items()) for row in heads]
        del heads
        self.predecessors: Adjacency = [[] for _ in self.successors]
        for tail, head, weight in self.indexed_edges():
            self.predecessors[head].append((tail, weight))

    def __len__(self) -> int:
        return len(self.nodes_sorted)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coordinates)

    def coordinates(self, node_id: int) -> tuple[float, float]:
        """The ``(x, y)`` coordinates of a node."""
        return self._coordinates[node_id]

    def indexed_edges(self) -> Iterator[tuple[int, int, float]]:
        """``(tail index, head index, travel time)`` per edge, in edge order."""
        index, successors = self.index, self.successors
        for node in self._coordinates:
            tail = index[node]
            for head, weight in successors[tail]:
                yield tail, head, weight

    def shortest_path(self, source: int, target: int) -> tuple[float, list[int]] | None:
        """Travel time and node sequence of a shortest path, ``None`` if unreachable.

        A point-to-point Dijkstra stopping when ``target`` settles, with
        networkx's relaxation rule, ``(distance, push counter, node)``
        heap key and strict-improvement parent updates: the path and
        the float of ``nx.dijkstra_path`` / ``dijkstra_path_length``.
        """
        index, successors = self.index, self.successors
        start, goal = index[source], index[target]
        settled: dict[int, float] = {}
        seen = {start: 0.0}
        parent: dict[int, int] = {}
        pushes = count(1)
        fringe: list[tuple[float, int, int]] = [(0.0, 0, start)]
        while fringe:
            reach, _, node = heappop(fringe)
            if node in settled:
                continue
            settled[node] = reach
            if node == goal:
                break
            for head, cost in successors[node]:
                through = reach + cost
                if head not in settled and (head not in seen or through < seen[head]):
                    seen[head] = through
                    parent[head] = node
                    heappush(fringe, (through, next(pushes), head))
        if goal not in settled:
            return None
        path = [goal]
        while path[-1] != start:
            path.append(parent[path[-1]])
        nodes = self.nodes_sorted
        return settled[goal], [nodes[node] for node in reversed(path)]


class RoadNetwork:
    """A directed, travel-time-weighted road network.

    Parameters
    ----------
    graph:
        The :class:`RoadGraph` (edge weights are travel times in
        seconds); :func:`build_network` builds both from plain tuples.
    oracle:
        Distance oracle answering shortest-path queries.  Defaults to
        the oracle the all-defaults :class:`OracleSpec` asks for: a
        :class:`LazyDijkstraOracle` with its default LRU bound.
    """

    def __init__(
        self,
        graph: RoadGraph,
        oracle: "DistanceOracle | None" = None,
    ) -> None:
        if not isinstance(graph, RoadGraph):
            raise NetworkError(
                f"a road network wraps a RoadGraph, not {type(graph).__name__}; "
                "build one with build_network"
            )
        self._graph = graph
        self._index = graph.index
        self._nearest_index: "_NearestNodeIndex | None" = None
        if oracle is None:
            # Exactly what ``configure_oracle`` builds for the all-defaults
            # spec: a default-configured run keeps this oracle and the
            # cache workload generation warmed in it.
            oracle = LazyDijkstraOracle(graph)
            oracle.built_from = OracleSpec()
        self._oracle: "DistanceOracle" = oracle

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoadGraph:
        """The underlying directed graph (immutable)."""
        return self._graph

    def __len__(self) -> int:
        return len(self._graph)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._graph)

    def number_of_edges(self) -> int:
        """Number of directed edges."""
        return sum(map(len, self._graph.successors))

    def coordinates(self, node_id: int) -> tuple[float, float]:
        """Return the ``(x, y)`` coordinates of a node."""
        self._require_node(node_id)
        return self._graph.coordinates(node_id)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all nodes."""
        xs, ys = zip(*map(self._graph.coordinates, self._graph))
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
        oracle = self._oracle
        with oracle.lock:
            return oracle.travel_time(source, target)

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
        index = self._index
        for node in set(sources).union(targets):
            if node not in index:
                raise UnknownNodeError(node)
        oracle = self._oracle
        with oracle.lock:
            return oracle.leg_matrix(sources, targets)

    def shortest_path(self, source: int, target: int) -> list[int]:
        """Return the node sequence of a shortest path.

        Oracles answer distances only, so this is the graph's own
        Dijkstra (:meth:`RoadGraph.shortest_path`) whatever the backend.
        """
        self._require_node(source)
        self._require_node(target)
        found = self._graph.shortest_path(source, target)
        if found is None:
            raise UnreachableError(source, target)
        return found[1]

    def is_reachable(self, source: int, target: int) -> bool:
        """Whether a path exists from ``source`` to ``target``."""
        self._require_node(source)
        self._require_node(target)
        if source == target:
            return True
        oracle = self._oracle
        with oracle.lock:
            return oracle.is_reachable(source, target)

    def clear_cache(self) -> None:
        """Drop the oracle's cached shortest-path state."""
        oracle = self._oracle
        with oracle.lock:
            oracle.clear()

    def oracle_stats(self) -> OracleStats:
        """Query/cache counters of the active oracle backend."""
        oracle = self._oracle
        with oracle.lock:
            return oracle.stats()

    # ------------------------------------------------------------------
    # sampling helpers
    # ------------------------------------------------------------------
    def nodes_sorted(self) -> list[int]:
        """Node ids in a deterministic order (for reproducible sampling)."""
        return list(self._graph.nodes_sorted)

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
        if node_id not in self._index:
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

    def __init__(self, graph: RoadGraph) -> None:
        entries = [
            (rank, node, *graph.coordinates(node))
            for rank, node in enumerate(graph)
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

    Raises
    ------
    NetworkError
        If there are no nodes, an edge names a node with no
        coordinates, or a travel time is missing or negative.
    """
    return RoadNetwork(RoadGraph(nodes, edges, bidirectional))
