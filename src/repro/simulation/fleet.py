"""Worker fleet management.

``WorkerFleet`` owns the vehicles of a simulation run and answers the
only questions the dispatchers ask of them:

* which workers are idle right now,
* which idle worker is the best (nearest feasible) one for a group, and
* book an assignment: mark the worker busy for the approach leg plus the
  group's route and account the driven travel time (the worker-cost part
  of the Unified Cost metric).

The grid-backed :class:`~repro.simulation.spatial.WorkerSpatialIndex`
restricts nearest-worker searches to expanding rings of cells around the
group's first pickup, mirroring the paper's use of a grid index "to
speed up workers and riders search" (Section VII-A); each ring is priced
with one many-to-one oracle batch (a single reverse-graph search on the
lazy backend).  The index holds idle workers only: ``assign`` takes the
worker out and pushes its finish time on a heap, ``release_finished``
pops what is due and puts the worker back at its route's end node.  The
search stops at the first ring whose travel-time lower bound already
exceeds the best worker found or already misses the group's deadline.

A search that finds nobody stays fruitless until a worker becomes idle:
the rings depend on the idle workers only, a booking only shrinks that
set, and a later ``now`` only makes the deadline test stricter.  Such
misses are remembered by what the search reads of a group (first
pickup, riders, each member's sub-route time and deadline) and
forgotten when a release puts workers back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import inf
from typing import Callable, Collection, Iterator, Sequence, TYPE_CHECKING

from ..exceptions import ConfigurationError
from ..model.worker import Worker
from ..network.grid import GridIndex
from .spatial import WorkerSpatialIndex

if TYPE_CHECKING:  # pragma: no cover
    from ..model.group import Group
    from ..network.graph import RoadNetwork


@dataclass(frozen=True)
class Assignment:
    """A booked (group, worker) pair with its timing breakdown."""

    worker_id: int
    approach_time: float
    route_time: float
    start_time: float
    finish_time: float


class WorkerFleet:
    """The set of vehicles plus their availability bookkeeping.

    Parameters
    ----------
    workers:
        Vehicles participating in the simulation.
    network:
        Road network for approach-time queries.
    grid:
        The grid the spatial index buckets workers by, or its number of
        cells along each axis for a grid over the network's bounding
        box.  Neither the grid nor the index is built before the first
        search, booking or release reads the index, so a dispatcher
        that never searches the fleet (GDP) pays for neither.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        network: "RoadNetwork",
        grid: GridIndex | int = 10,
    ) -> None:
        if not workers:
            raise ConfigurationError("a fleet needs at least one worker")
        self._workers = {worker.worker_id: worker for worker in workers}
        # Position in the given sequence; ties in approach time resolve
        # to the earliest worker, matching the historical scan order.
        self._order_index = {
            worker.worker_id: position for position, worker in enumerate(workers)
        }
        self._network = network
        self._grid = grid
        # Busy workers as (busy_until, fleet position, worker), soonest
        # first; the position keeps equal finish times from comparing
        # workers.  ``release_finished`` looks at the top only.
        self._release_heap = [
            (worker.busy_until, position, worker)
            for position, worker in enumerate(workers)
            if not worker.is_idle
        ]
        heapify(self._release_heap)
        self._total_travel_time = 0.0
        # Memo of the last nearest-worker search: (group, now, worker).
        # ``can_serve`` and the immediately following ``assign`` used to
        # run the same search twice per dispatch decision; any change to
        # the idle pool invalidates the memo.
        self._find_memo: tuple["Group", float, Worker | None] | None = None
        # Searches that found nobody: what the search reads of the group
        # -> the earliest ``now`` it came back empty at.
        self._misses: dict[tuple, float] = {}

    def __getstate__(self) -> dict:
        # The misses are a cache: a checkpoint carries the fleet without them.
        state = dict(self.__dict__)
        del state["_misses"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._misses = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[Worker]:
        return iter(self._workers.values())

    def worker(self, worker_id: int) -> Worker:
        """Look a worker up by id."""
        return self._workers[worker_id]

    @property
    def total_travel_time(self) -> float:
        """Total driven time (approach + route legs) booked so far."""
        return self._total_travel_time

    @property
    def spatial_index(self) -> WorkerSpatialIndex:
        """The index of idle workers the nearest-worker search reads."""
        return self._spatial

    @cached_property
    def _spatial(self) -> WorkerSpatialIndex:
        """The idle-worker index, built (with its grid) on first use.

        It holds every idle worker at its location, which is what the
        bookings and releases before the first use would have left in
        it, so building it late changes no search.
        """
        grid = self._grid
        if not isinstance(grid, GridIndex):
            grid = GridIndex(self._network, size=grid)
        spatial = WorkerSpatialIndex(self._network, grid)
        for worker in self._workers.values():
            if worker.is_idle:
                spatial.insert(worker.worker_id, worker.location)
        return spatial

    def idle_workers(self, now: float) -> list[Worker]:
        """Workers available for a new assignment at ``now``."""
        self.release_finished(now)
        return [worker for worker in self._workers.values() if worker.is_idle]

    def idle_locations(self, now: float) -> list[int]:
        """Locations of idle workers (the supply vector of the MDP state)."""
        return [worker.location for worker in self.idle_workers(now)]

    def prime_approaches(self, pickups: Collection[int], now: float) -> None:
        """Warm every idle worker's approach leg to each of ``pickups``.

        One :meth:`RoadNetwork.warm_legs` call, distinct idle locations
        against ``pickups`` (one reverse-graph search per pickup on the
        lazy backend, and no matrix), so the nearest-worker searches of
        a batch that follow answer from warm caches.  The caller picks
        the pickups.
        """
        idle_locations = set(self.idle_locations(now))
        if idle_locations and pickups:
            self._network.warm_legs(list(idle_locations), list(pickups))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def release_finished(self, now: float) -> int:
        """Return workers whose routes have finished to the idle pool."""
        heap = self._release_heap
        released = 0
        while heap and heap[0][0] <= now:
            worker = heappop(heap)[2]
            if worker.release_if_done(now):
                released += 1
                self._spatial.insert(worker.worker_id, worker.location)
        if released:
            self._find_memo = None
            self._misses.clear()
        return released

    def find_worker_for(self, group: "Group", now: float) -> Worker | None:
        """Nearest idle worker that can feasibly serve ``group`` from ``now``.

        Feasibility accounts for the approach leg: the worker must reach
        the route's first stop and then complete each member's sub-route
        before that member's deadline.  Capacity must cover the group's
        total riders.

        The result is memoised per ``(group, now)`` until the idle pool
        changes, so a ``can_serve`` probe followed by the booking's own
        lookup costs one search, not two.  A search that found nobody is
        not repeated, for any group with the same pickup, riders and
        member limits, at the same or a later ``now`` until a release.
        """
        self.release_finished(now)
        memo = self._find_memo
        if memo is not None and memo[0] is group and memo[1] == now:
            return memo[2]
        route = group.route
        miss_key = (
            route.start_node,
            group.total_riders(),
            tuple(
                (route.sub_route_time(order.order_id), order.deadline)
                for order in group.orders
            ),
        )
        missed_at = self._misses.get(miss_key)
        if missed_at is not None and missed_at <= now:
            worker = None
        else:
            worker = self._find_by_rings(group, now)
            if worker is None:
                self._misses[miss_key] = now
        self._find_memo = (group, now, worker)
        return worker

    def can_serve(self, group: "Group", now: float) -> bool:
        """Whether any idle worker could serve the group right now.

        Runs (and memoises) the full nearest-worker search, so the
        dispatcher's follow-up ``find_worker_for`` reuses the winner.
        """
        return self.find_worker_for(group, now) is not None

    def assign(self, worker: Worker, group: "Group", now: float) -> Assignment:
        """Book ``group`` onto ``worker`` starting at ``now``.

        The worker becomes busy for the approach leg plus the route and
        ends up idle at the route's final stop.
        """
        approach = self._network.travel_time(worker.location, group.route.start_node)
        route_time = group.route.total_travel_time
        finish = now + approach + route_time
        worker.assign(end_location=group.route.end_node, finish_time=finish)
        heappush(
            self._release_heap, (finish, self._order_index[worker.worker_id], worker)
        )
        self._spatial.remove(worker.worker_id)
        self._find_memo = None
        self._total_travel_time += approach + route_time
        return Assignment(
            worker_id=worker.worker_id,
            approach_time=approach,
            route_time=route_time,
            start_time=now,
            finish_time=finish,
        )

    def add_travel_time(self, amount: float) -> None:
        """Account extra driven time booked outside :meth:`assign`.

        Baselines that manage their own route schedules (GDP) use this
        so the Unified Cost still reflects all driven time.
        """
        if amount < 0:
            raise ConfigurationError("cannot add negative travel time")
        self._total_travel_time += amount

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _find_by_rings(self, group: "Group", now: float) -> Worker | None:
        """Ring-expanding nearest-worker search over the idle-worker index.

        Lateness only grows with the approach time, so the nearest
        worker with enough seats is feasible or nobody at its distance
        or beyond is: each ring tests its nearest candidate alone, and a
        ring whose lower bound is already late ends the search.
        """
        riders = group.total_riders()
        start_node = group.route.start_node
        too_late = self._lateness_test(group, now)
        workers = self._workers
        order_index = self._order_index
        best_worker: Worker | None = None
        best_key = (inf, inf)

        def cut(bound: float) -> bool:
            # Every worker from this ring on is at least ``bound`` away:
            # farther than the incumbent, or too late for the group.
            return bound > best_key[0] or too_late(bound)

        for _bound, worker_ids in self._spatial.rings(start_node, cut):
            candidates = [
                worker
                for worker in map(workers.__getitem__, worker_ids)
                if worker.capacity >= riders
            ]
            if not candidates:
                continue
            # One many-to-one oracle block per ring: every candidate's
            # approach leg against the single pickup node, each cell the
            # float :meth:`assign` books.
            approaches = self._network.leg_matrix(
                [worker.location for worker in candidates], [start_node]
            )
            nearest: Worker | None = None
            nearest_key = best_key
            for worker, (approach,) in zip(candidates, approaches):
                if approach == inf:
                    continue
                key = (approach, order_index[worker.worker_id])
                if key < nearest_key:
                    nearest, nearest_key = worker, key
            if nearest is not None and not too_late(nearest_key[0]):
                best_worker, best_key = nearest, nearest_key
        return best_worker

    @staticmethod
    def _lateness_test(group: "Group", now: float) -> Callable[[float], bool]:
        """``approach -> bool``: would some member's deadline be missed?

        Float addition rounds monotonically, so the answer never flips
        back to false as ``approach`` grows; the ring search uses it both
        on a ring's lower bound and on the winning worker.
        """
        route = group.route
        limits = [
            (route.sub_route_time(order.order_id), order.deadline)
            for order in group.orders
        ]

        def too_late(approach: float) -> bool:
            for sub_route_time, deadline in limits:
                if now + approach + sub_route_time > deadline:
                    return True
            return False

        return too_late
