"""The ring search against the full-fleet scan, and the release heap.

``ScanningWorkerFleet`` (``tests/reference/fleet_scan.py``) scans every
worker and tests every candidate's deadlines one by one; it is the
reference.  The ring
search reads an index of idle workers only, tests one worker per ring
and stops at the first ring the group's deadline rules out.  These
tests hold the two to the same worker on every search:

* under churn — interleaved searches, bookings and releases over mixed
  capacities, group sizes and deadlines, with approach-time ties and a
  worker parked where it cannot reach anything,
* at the floating-point boundary of the deadline test, both where it
  cuts a ring and where it accepts the winner,

and pin down the release heap that moves workers back into the index.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.config import ExtraTimeWeights
from repro.model.group import Group
from repro.model.worker import Worker
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.network.grid import GridIndex
from repro.routing.planner import RoutePlanner
from repro.simulation.fleet import WorkerFleet

from tests.conftest import make_order
from tests.reference.fleet_scan import ScanningWorkerFleet

_ROWS = _COLS = 8
#: A node with one inbound edge and none out: a worker parked here
#: reaches no pickup, and no order starts or ends here.
_SINK = _ROWS * _COLS


def _city(seed: int, jitter: float) -> RoadNetwork:
    """An 8x8 grid plus the sink.  Without jitter every block is exactly
    60 s, so approach times tie all over the fleet."""
    grid = grid_city(rows=_ROWS, cols=_COLS, seed=seed, jitter=jitter)
    graph = nx.DiGraph(grid.graph)
    graph.add_node(_SINK, x=3.5, y=3.5)
    graph.add_edge(27, _SINK, travel_time=30.0)
    return RoadNetwork(graph)


def _group(network, planner, trips, now=0.0):
    """A planned group over ``(pickup, dropoff, riders)`` trips.

    Deadlines are loose enough for any stop order; the tests overwrite
    them afterwards to place the search where they want it.
    """
    orders = [
        make_order(
            network, pickup, dropoff, release=now, deadline_scale=50.0, riders=riders
        )
        for pickup, dropoff, riders in trips
    ]
    planned = planner.try_plan(orders, 4, now)
    assert planned is not None
    return Group(
        orders=tuple(orders),
        route=planned.route,
        created_at=now,
        weights=ExtraTimeWeights(),
    )


def _set_slack(group, now, slack):
    """Deadlines a worker ``slack`` seconds away meets exactly, to the
    ulp: the sum is taken in the order the fleet takes it."""
    for order in group.orders:
        order.deadline = now + slack + group.route.sub_route_time(order.order_id)


def _fleets(workers, network, grid):
    """A ring-search fleet over ``workers`` and a scanning one over clones."""
    clones = [worker.clone() for worker in workers]
    return (
        WorkerFleet(workers, network, grid),
        ScanningWorkerFleet(clones, network, grid),
    )


def _assert_index_holds_the_idle(fleet, grid, now):
    index = fleet.spatial_index
    idle = fleet.idle_workers(now)
    assert len(index) == len(idle)
    for worker in idle:
        assert worker.worker_id in index.workers_in_cell(grid.cell_of(worker.location))


class _RingSpy:
    """Records, per search, the rings the index served and whether the
    caller's ``cut`` ended it."""

    def __init__(self, index):
        self.searches: list[dict] = []
        original = index.rings

        def rings(node, cut):
            record = {"rings": [], "cut": False}
            self.searches.append(record)

            def spied_cut(bound):
                record["cut"] = cut(bound)
                return record["cut"]

            for bound, worker_ids in original(node, spied_cut):
                record["rings"].append(worker_ids)
                yield bound, worker_ids

        index.rings = rings


class TestChurn:
    @pytest.mark.parametrize(
        "seed, jitter", [(0, 0.0), (1, 0.0), (2, 0.25), (3, 0.25)]
    )
    def test_ring_search_follows_the_scan_through_bookings_and_releases(
        self, seed, jitter
    ):
        network = _city(seed, jitter)
        planner = RoutePlanner(network)
        rng = random.Random(seed)
        nodes = [node for node in network.nodes_sorted() if node != _SINK]
        # Ids run against fleet order, so a tie broken by id instead of
        # by position would show.
        workers = [
            Worker(
                location=rng.choice(nodes),
                capacity=rng.randint(1, 4),
                worker_id=99 - position,
            )
            for position in range(12)
        ]
        workers.append(Worker(location=_SINK, capacity=4, worker_id=100))
        grid = GridIndex(network, size=5)
        fleet_rings, fleet_scan = _fleets(workers, network, grid)
        spy = _RingSpy(fleet_rings.spatial_index)
        outcomes = {"cut at once": 0, "cut midway": 0, "found": 0, "found last": 0}
        now = 0.0
        for _step in range(160):
            now += rng.uniform(0.0, 60.0)
            if rng.random() < 0.3:
                released = fleet_rings.release_finished(now)
                assert released == fleet_scan.release_finished(now)
            trips = [
                (*rng.sample(nodes, 2), riders)
                for riders in rng.choice(
                    [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (1, 2, 1)]
                )
            ]
            group = _group(network, planner, trips, now)
            # Out of reach even from the pickup itself; reachable from a
            # few blocks away; or from anywhere on the map.
            slack = rng.choice(
                [-1.0, 0.0, rng.uniform(0.0, 400.0), rng.choice([120.0, 240.0]), 1e6]
            )
            _set_slack(group, now, slack)
            searches_before = len(spy.searches)
            found = fleet_rings.find_worker_for(group, now)
            expected = fleet_scan.find_worker_for(group, now)
            if expected is None:
                assert found is None
            else:
                assert found is fleet_rings.worker(expected.worker_id)
            if len(spy.searches) > searches_before:
                search = spy.searches[-1]
                if found is not None:
                    outcomes["found"] += 1
                    # No ring was cut and the winner sat in the last one.
                    outcomes["found last"] += (
                        not search["cut"] and found.worker_id in search["rings"][-1]
                    )
                elif search["cut"]:
                    outcomes["cut at once"] += not search["rings"]
                    outcomes["cut midway"] += bool(search["rings"])
            if found is not None and rng.random() < 0.8:
                booked = fleet_rings.assign(found, group, now)
                assert booked == fleet_scan.assign(expected, group, now)
            _assert_index_holds_the_idle(fleet_rings, grid, now)
        assert fleet_rings.total_travel_time == fleet_scan.total_travel_time
        assert fleet_rings.worker(100).is_idle  # the sink worker never served
        assert all(count > 0 for count in outcomes.values()), outcomes

    def test_only_a_worker_in_the_last_ring_has_the_seats(self):
        network = _city(0, 0.0)
        planner = RoutePlanner(network)
        workers = [Worker(location=node, capacity=1) for node in (0, 1, 9, 18, 36)]
        workers.append(Worker(location=63, capacity=4))
        fleet_rings, fleet_scan = _fleets(workers, network, GridIndex(network, size=4))
        spy = _RingSpy(fleet_rings.spatial_index)
        group = _group(network, planner, [(0, 10, 2), (1, 11, 1)])
        found = fleet_rings.find_worker_for(group, 0.0)
        assert found is workers[-1]
        assert fleet_scan.find_worker_for(group, 0.0).worker_id == found.worker_id
        (search,) = spy.searches
        # Every ring of a 4x4 grid seen from a corner, none cut.
        assert len(search["rings"]) == 4 and not search["cut"]
        assert search["rings"][-1] == [found.worker_id]


class TestMissMemo:
    """A search that found nobody is not repeated until the idle set changes.

    Fresh ``Group`` objects over a few fixed routes are probed at
    advancing ``now`` (so the per-group memo never answers), interleaved
    with bookings and releases; the scan, run afresh on every probe, is
    the reference.
    """

    @pytest.mark.parametrize("seed, jitter", [(0, 0.0), (1, 0.0), (2, 0.25)])
    def test_remembered_misses_match_a_fresh_scan(self, seed, jitter):
        network = _city(seed, jitter)
        planner = RoutePlanner(network)
        rng = random.Random(seed)
        nodes = [node for node in network.nodes_sorted() if node != _SINK]
        workers = [
            Worker(location=rng.choice(nodes), capacity=rng.randint(1, 4))
            for _ in range(6)
        ]
        fleet, reference = _fleets(workers, network, GridIndex(network, size=4))
        templates = []
        for _ in range(8):
            trips = [
                (*rng.sample(nodes, 2), riders)
                for riders in rng.choice([(1,), (3,), (1, 1), (2, 2)])
            ]
            group = _group(network, planner, trips)
            _set_slack(group, 0.0, rng.choice([0.0, 60.0, 200.0, 400.0, 1e6]))
            templates.append(group)
        searches = []
        search = fleet._find_by_rings
        fleet._find_by_rings = lambda group, now: searches.append(now) or search(
            group, now
        )
        probes = misses = 0
        now = 0.0
        for _ in range(300):
            now += rng.uniform(0.0, 5.0)
            if rng.random() < 0.1:
                assert fleet.release_finished(now) == reference.release_finished(now)
            template = rng.choice(templates)
            group = Group(
                orders=template.orders,
                route=template.route,
                created_at=now,
                weights=ExtraTimeWeights(),
            )
            found = fleet.find_worker_for(group, now)
            reference.release_finished(now)
            expected = reference._find_by_scan(group, now)
            probes += 1
            if expected is None:
                assert found is None
                misses += 1
                continue
            assert found is fleet.worker(expected.worker_id)
            if rng.random() < 0.3:
                booked = fleet.assign(found, group, now)
                assert booked == reference.assign(expected, group, now)
        assert 0 < misses < probes
        # Some misses were answered without a search.
        assert len(searches) < probes


class TestDeadlineBoundary:
    """``now + approach + sub == deadline`` serves; one ulp later does not."""

    NOW = 0.1

    def _setup(self, jitter):
        network = _city(5, jitter)
        planner = RoutePlanner(network)
        # One worker, three rings out from the pickup at node 0.
        workers = [Worker(location=36, capacity=4)]
        fleet_rings, fleet_scan = _fleets(workers, network, GridIndex(network, size=7))
        group = _group(network, planner, [(0, 10, 1), (1, 3, 1)], self.NOW)
        return network, fleet_rings, fleet_scan, group

    @pytest.mark.parametrize("jitter", [0.0, 0.25])
    def test_winner_on_the_deadline(self, jitter):
        network, fleet_rings, fleet_scan, group = self._setup(jitter)
        approach = network.travel_time(36, 0)
        _set_slack(group, self.NOW, approach)
        assert fleet_rings.find_worker_for(group, self.NOW) is fleet_rings.worker(
            fleet_scan.find_worker_for(group, self.NOW).worker_id
        )
        # One member one ulp tighter: the same worker now arrives late.
        for late in group.orders:
            _set_slack(group, self.NOW, approach)
            late.deadline = math.nextafter(late.deadline, -math.inf)
            fleet_rings._find_memo = fleet_scan._find_memo = None
            assert fleet_scan.find_worker_for(group, self.NOW) is None
            assert fleet_rings.find_worker_for(group, self.NOW) is None

    @pytest.mark.parametrize("jitter", [0.0, 0.25])
    def test_ring_bound_on_the_deadline(self, jitter):
        _network, fleet_rings, fleet_scan, group = self._setup(jitter)
        index = fleet_rings.spatial_index
        (bound, worker_ids), = list(index.rings(0))
        assert bound > 0.0 and len(worker_ids) == 1
        # The worker's ring is reachable in time by its lower bound, to
        # the ulp: the ring is read (its worker is farther than the
        # bound and fails the same test a moment later).
        _set_slack(group, self.NOW, bound)
        yielded = index.candidates_yielded
        assert fleet_rings.find_worker_for(group, self.NOW) is None
        assert fleet_scan.find_worker_for(group, self.NOW) is None
        assert index.candidates_yielded == yielded + 1
        # One ulp tighter and the bound itself is late: the ring is cut.
        group.orders[0].deadline = math.nextafter(group.orders[0].deadline, -math.inf)
        fleet_rings._find_memo = None
        yielded = index.candidates_yielded
        assert fleet_rings.find_worker_for(group, self.NOW) is None
        assert index.candidates_yielded == yielded


class TestOneApproach:
    def test_a_worker_the_search_accepts_is_on_time_at_the_booked_approach(self):
        """The ring search and ``assign`` price one approach, to the bit.

        On ``lazy`` a forward row and a reverse row may differ in the
        last bit.  Worker 14's forward row is cached, two far workers
        put the ring's block in the reverse direction, and the deadline
        is met exactly at the reverse-row approach: one ulp short of the
        forward-row approach a scalar read, and so ``assign``, returns.
        """
        network = grid_city(8, 8, seed=1)
        network.travel_time(14, 63)  # 14's forward row
        group = _group(network, RoutePlanner(network), [(0, 2, 1)])
        reverse = nx.single_source_dijkstra_path_length(
            network.graph.reverse(copy=False), 0, weight="travel_time"
        )[14]
        assert reverse < network.travel_time(14, 0), "the last-bit gap is gone"
        _set_slack(group, 0.0, reverse)
        workers = [Worker(location=node, capacity=4) for node in (14, 15, 22)]
        # One cell: every worker in the pickup's one ring.
        fleet = WorkerFleet(workers, network, GridIndex(network, size=1))
        worker = fleet.find_worker_for(group, 0.0)
        if worker is not None:
            booked = fleet.assign(worker, group, 0.0)
            for order in group.orders:
                arrival = 0.0 + booked.approach_time + group.route.sub_route_time(
                    order.order_id
                )
                assert arrival <= order.deadline
        assert worker is None


class TestReleaseHeap:
    def test_worker_busy_at_construction_is_released_on_time(self):
        network = _city(0, 0.0)
        busy = Worker(location=5, capacity=4)
        busy.assign(end_location=9, finish_time=100.0)
        idle = Worker(location=20, capacity=4)
        fleet = WorkerFleet([busy, idle], network, GridIndex(network, size=4))
        index = fleet.spatial_index
        assert busy.worker_id not in index and idle.worker_id in index
        assert fleet.idle_workers(99.0) == [idle]
        assert fleet.release_finished(100.0) == 1
        assert fleet.idle_workers(100.0) == [busy, idle]
        cell = GridIndex(network, size=4).cell_of(9)
        assert busy.worker_id in index.workers_in_cell(cell)

    def test_nothing_due_touches_no_worker(self, monkeypatch):
        network = _city(0, 0.0)
        workers = [Worker(location=node, capacity=4) for node in (0, 7, 56, 63)]
        for worker, finish in zip(workers, (50.0, 60.0, 70.0, 80.0)):
            worker.assign(end_location=27, finish_time=finish)
        fleet = WorkerFleet(workers, network, GridIndex(network, size=4))
        touched = []
        original = Worker.release_if_done
        monkeypatch.setattr(
            Worker,
            "release_if_done",
            lambda self, now: touched.append(self) or original(self, now),
        )
        assert fleet.release_finished(49.0) == 0
        assert touched == []
        assert fleet.release_finished(65.0) == 2
        assert touched == workers[:2]

    def test_workers_finishing_together_are_both_released(self):
        network = _city(0, 0.0)
        planner = RoutePlanner(network)
        workers = [Worker(location=0, capacity=4), Worker(location=0, capacity=4)]
        fleet = WorkerFleet(workers, network, GridIndex(network, size=4))
        finishes = []
        for _ in workers:
            group = _group(network, planner, [(1, 10, 1)])
            worker = fleet.find_worker_for(group, 0.0)
            finishes.append(fleet.assign(worker, group, 0.0).finish_time)
        assert finishes[0] == finishes[1]
        assert len(fleet.spatial_index) == 0
        assert fleet.release_finished(finishes[0]) == 2
        assert len(fleet.spatial_index) == 2
        assert fleet.idle_workers(finishes[0]) == workers
