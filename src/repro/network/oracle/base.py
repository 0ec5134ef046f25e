"""Distance-oracle abstraction for shortest travel-time queries.

Every algorithm in the reproduction bottoms out in "how long does it
take to drive from node a to node b?".  The answer can be produced in
several ways with very different cost profiles:

* run Dijkstra on demand and cache the result (cheap setup, expensive
  cold queries),
* precompute a contraction hierarchy and answer point-to-point queries
  with tiny searches (expensive setup, very cheap queries).

:class:`DistanceOracle` is the interface that hides this choice from the
routing, pooling and dispatching layers.  Backends register themselves
in :mod:`repro.network.oracle.registry` and are selected through
``ScenarioSpec.oracle.backend`` (or the ``--oracle`` CLI flag)
without touching any dispatcher code.  A
:class:`~repro.network.graph.RoadNetwork` is given its oracle when it
is built and keeps it for life.

An oracle answers two questions: a scalar leg (``travel_time``) and a
dense block of legs (``leg_matrix``), whose cells are by definition the
scalar answers.  ``warm`` does a block's work without answering it.  A
backend must implement ``travel_time`` and ``clear``; the default block
is scalar reads.  The pair-keyed and
all-to-one dict views are :class:`~repro.network.graph.RoadNetwork`'s,
a few lines over ``leg_matrix``.

All oracles answer in *seconds of travel time* on the directed graph
they were built over, raise :class:`~repro.exceptions.UnreachableError`
for disconnected pairs, and keep uniform query/cache counters so the
metrics layer can report how the hot path behaved.

Queries memoise into caches that mutate on reads, so an oracle is not
safe under concurrent calls by itself.  It owns one ``lock`` instead,
and :class:`~repro.network.graph.RoadNetwork` — the way every
dispatcher, planner, fleet and workload generator reaches an oracle —
answers each query under it.

Every oracle numbers the nodes by sorted id (the graph's index).  The
full-map searches of ``lazy`` run :func:`_dijkstra` over the graph's
shared adjacency lists and get back a *row*: one packed ``array('d')``
whose cell ``i`` is the distance of the ``i``-th node, ``inf`` where the
search did not reach.  A row has no settle order; its floats are the
ones any label-setting search (networkx's included) computes.
"""

from __future__ import annotations

import abc
import threading
from array import array
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from math import inf
from typing import Any, Mapping, Sequence, TYPE_CHECKING

from ...exceptions import UnreachableError

if TYPE_CHECKING:  # pragma: no cover
    from ..graph import RoadGraph


#: Version of the flat oracle-stats schema produced by
#: :meth:`OracleStats.as_dict` (surfaced as ``SimulationMetrics.
#: oracle_stats``, the compare table and the serve layer's
#: ``/metrics``).  The schema is: the common core keys every backend
#: fills (``schema_version``, ``backend``, ``queries``,
#: ``batched_queries``, ``cache_hits``, ``cache_misses``, ``hit_rate``,
#: ``sssp_runs``, ``reverse_sssp_runs``, ``pp_searches``,
#: ``evictions``, ``precompute_seconds``) plus backend extras
#: namespaced as ``"<backend>.<key>"`` (e.g. ``ch.bucket_scans``,
#: ``lazy.forward_cached_sources``) so two backends can never collide and a
#: reader can tell core from backend-specific at a glance.  Bump this
#: whenever a core key changes meaning or shape (2: the constant
#: ``kernel`` key is gone; 3: ``queries`` / ``batched_queries`` count
#: ``leg_matrix`` cells, the pair-keyed block query being gone).
STATS_SCHEMA_VERSION = 3

#: ``OracleStats.extras`` keys that are monotone counters, subtracted by
#: snapshot deltas like the uniform counters.  Everything else in extras
#: is a gauge or a structural constant and is reported as-is.
COUNTER_EXTRAS = frozenset({"upward_settles", "bucket_scans"})

#: The uniform ``OracleStats`` fields that are monotone counters.
COUNTER_FIELDS = (
    "queries", "batched_queries", "cache_hits", "cache_misses",
    "sssp_runs", "reverse_sssp_runs", "pp_searches", "evictions",
)


@dataclass(frozen=True)
class OracleStats:
    """Uniform query counters every backend maintains.

    Attributes
    ----------
    backend:
        Registry name of the backend that produced the numbers.
    queries:
        Answers served: one per scalar ``travel_time`` read and one per
        ``leg_matrix`` cell (duplicates, the diagonal and unreachable
        cells included; a cell the block reads as a scalar counts once).
    batched_queries:
        ``leg_matrix`` cells asked for.
    cache_hits / cache_misses:
        Whether an answer came from precomputed/cached state or had to
        run graph search work.
    sssp_runs:
        Full single-source Dijkstra executions (setup and refresh work
        included).
    reverse_sssp_runs:
        Dijkstra executions on the *reversed* graph — the many-to-one
        batching primitive (one reverse run from a target answers every
        source at once).
    pp_searches:
        Goal-directed point-to-point searches (A*/bidirectional runs).
    evictions:
        Cache entries dropped by an LRU bound.
    precompute_seconds:
        Wall-clock time spent building auxiliary structures.
    """

    backend: str = "?"
    queries: int = 0
    batched_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sssp_runs: int = 0
    reverse_sssp_runs: int = 0
    pp_searches: int = 0
    evictions: int = 0
    precompute_seconds: float = 0.0
    extras: Mapping[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered without new graph-search work."""
        total = self.cache_hits + self.cache_misses
        return (self.cache_hits / total) if total else 0.0

    def __sub__(self, earlier: "OracleStats") -> "OracleStats":
        """Counter delta between two snapshots (for per-run accounting).

        Extras listed in :data:`COUNTER_EXTRAS` are deltas like the
        uniform counters; the remaining extras are gauges (cache
        occupancies) or structural constants (shortcut counts) whose
        latest snapshot is the meaningful per-run value.
        """
        extras = dict(self.extras)
        for key in COUNTER_EXTRAS.intersection(extras):
            extras[key] = extras[key] - earlier.extras.get(key, 0.0)
        deltas: dict[str, Any] = {
            name: getattr(self, name) - getattr(earlier, name)
            for name in COUNTER_FIELDS
        }
        return replace(self, **deltas, extras=extras)

    def counters(self) -> dict[str, float]:
        """The monotone counters of :meth:`as_dict`, keyed as there.

        What a total over several snapshots may add: gauges, structural
        constants, ``hit_rate`` and the schema version are left out.
        """
        counters: dict[str, float] = {
            name: getattr(self, name) for name in COUNTER_FIELDS
        }
        for key in COUNTER_EXTRAS.intersection(self.extras):
            counters[f"{self.backend}.{key}"] = self.extras[key]
        return counters

    def as_dict(self) -> dict[str, float | str]:
        """Flat dictionary view: the versioned oracle-stats schema.

        Core keys are uniform across every backend; backend extras are
        namespaced as ``"<backend>.<key>"`` (see
        :data:`STATS_SCHEMA_VERSION` for the full contract).
        """
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "backend": self.backend,
            "queries": self.queries,
            "batched_queries": self.batched_queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "sssp_runs": self.sssp_runs,
            "reverse_sssp_runs": self.reverse_sssp_runs,
            "pp_searches": self.pp_searches,
            "evictions": self.evictions,
            "precompute_seconds": self.precompute_seconds,
            **{f"{self.backend}.{key}": value for key, value in self.extras.items()},
        }


class DistanceOracle(abc.ABC):
    """Answers shortest travel-time queries over a directed road graph.

    Parameters
    ----------
    graph:
        The :class:`~repro.network.graph.RoadGraph` to answer for; it
        is immutable, so cached answers never go stale.
    """

    #: Registry name; subclasses override.
    name: str = "oracle"

    def __init__(self, graph: "RoadGraph") -> None:
        self._graph = graph
        # A distance row's cell ``i`` belongs to ``_nodes[i]``.
        self._nodes = graph.nodes_sorted
        self._index = graph.index
        self._queries = 0
        self._batched_queries = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._sssp_runs = 0
        self._reverse_sssp_runs = 0
        self._pp_searches = 0
        self._evictions = 0
        self._precompute_seconds = 0.0
        #: The one lock this oracle's queries serialise on; taken by the
        #: owning :class:`~repro.network.graph.RoadNetwork`, never here.
        self.lock = threading.Lock()

    @property
    def graph(self) -> "RoadGraph":
        """The graph the oracle answers for."""
        return self._graph

    # ------------------------------------------------------------------
    # query interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def travel_time(self, source: int, target: int) -> float:
        """Shortest travel time (seconds) from ``source`` to ``target``.

        Raises :class:`UnreachableError` when no path exists.  Both
        endpoints are assumed to be valid nodes (the owning
        :class:`~repro.network.graph.RoadNetwork` validates ids).
        """

    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        """Dense travel times: ``result[i][j]`` is ``sources[i]`` to ``targets[j]``.

        The one block query: every batch dispatch asks (route legs,
        worker approaches, pickup gaps) is a call to this.  Rows and
        columns follow argument order and duplicates get their own row
        or column.  A cell is ``0.0`` where source is target,
        ``math.inf`` where the target cannot be reached, and otherwise
        *by definition* the float scalar :meth:`travel_time` answers for
        that pair once the call returns — so a caller may price a route
        off the matrix and off scalar reads interchangeably.  No cell
        raises :class:`UnreachableError`; a caller that must fail on an
        unreachable leg checks the cells it uses.

        This default is one scalar read per off-diagonal cell.  Backends
        override it when they can read the cells off their cached state
        directly.
        """
        self._batched_queries += len(sources) * len(targets)
        travel_time = self.travel_time
        rows: list[list[float]] = []
        for source in sources:
            row: list[float] = []
            for target in targets:
                if source == target:
                    self._queries += 1
                    row.append(0.0)
                    continue
                try:
                    row.append(travel_time(source, target))
                except UnreachableError:
                    row.append(inf)
            rows.append(row)
        return rows

    def warm(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Do the work a :meth:`leg_matrix` block over the same arguments
        would, for a caller that reads the cells later.

        This default runs the block and drops it: a backend whose later
        reads come from what the block fills (``ch``'s pair cache) needs
        exactly that.  ``lazy`` runs the searches alone.
        """
        self.leg_matrix(sources, targets)

    def is_reachable(self, source: int, target: int) -> bool:
        """Whether a path exists from ``source`` to ``target``."""
        try:
            self.travel_time(source, target)
        except UnreachableError:
            return False
        return True

    # ------------------------------------------------------------------
    # cache management and instrumentation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def clear(self) -> None:
        """Drop cached state (precomputed tables are rebuilt lazily)."""

    def stats(self) -> OracleStats:
        """Snapshot of the uniform counters plus backend extras."""
        return OracleStats(
            backend=self.name,
            queries=self._queries,
            batched_queries=self._batched_queries,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            sssp_runs=self._sssp_runs,
            reverse_sssp_runs=self._reverse_sssp_runs,
            pp_searches=self._pp_searches,
            evictions=self._evictions,
            precompute_seconds=self._precompute_seconds,
            extras=self._extra_stats(),
        )

    def _extra_stats(self) -> dict[str, float]:
        return {}

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _dijkstra_from(self, source: int) -> array:
        """One single-source Dijkstra in travel-time space (counted).

        Returns the row ``d(source, node)`` over node indices, ``inf``
        where ``node`` cannot be reached.
        """
        self._sssp_runs += 1
        return _dijkstra(self._graph.successors, self._index[source])

    def _dijkstra_to(self, target: int) -> array:
        """One Dijkstra against the edges: the row ``d(node, target)``.

        This is the reverse-SSSP batching primitive — a single run
        answers every many-to-one distance towards ``target``.
        """
        self._reverse_sssp_runs += 1
        return _dijkstra(self._graph.predecessors, self._index[target])


def _dijkstra(adjacency: list[list[tuple[int, float]]], source: int) -> array:
    """Distances from node index ``source``, packed as a row over indices.

    A label-setting search: every node ends at the minimum, over paths,
    of the left-to-right sum of the path's weights, so the floats do not
    depend on the heap's tie-breaking.  ``inf`` marks an unreached node.
    """
    dist = [inf] * len(adjacency)
    dist[source] = 0.0
    fringe: list[tuple[float, int]] = [(0.0, source)]
    while fringe:
        reach, node = heappop(fringe)
        # Each push strictly lowers a node's distance, so only the entry
        # that carries the final distance gets past this test.
        if reach > dist[node]:
            continue
        for head, cost in adjacency[node]:
            through = reach + cost
            if through < dist[head]:
                dist[head] = through
                heappush(fringe, (through, head))
    return array("d", dist)
