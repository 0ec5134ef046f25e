"""Tests for the worker spatial index and the fleet's pruned search.

Covers:

* bucket maintenance (insert / re-insert / remove) and the idle-only
  policy ``WorkerFleet.assign`` / ``release_finished`` keep it to,
* soundness of the ring lower bounds (never above the true travel
  time) and monotonicity of the ring expansion,
* exact equivalence of the ring-expanding ``find_worker_for`` with the
  full-fleet scan it replaces, across random fleets and assignments,
* the ``(group, now)`` search memo that lets ``can_serve`` and the
  following ``assign`` share one search.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ExtraTimeWeights
from repro.model.group import Group
from repro.model.worker import Worker
from repro.network.generators import grid_city
from repro.network.grid import GridIndex
from repro.routing.planner import RoutePlanner
from repro.simulation.fleet import WorkerFleet
from repro.simulation.spatial import WorkerSpatialIndex

from tests.conftest import make_order
from tests.reference.fleet_scan import ScanningWorkerFleet


def _network(rows=8, cols=8, seed=5):
    return grid_city(rows=rows, cols=cols, seed=seed, jitter=0.25)


def _singleton_group(network, order):
    planner = RoutePlanner(network)
    planned = planner.try_plan([order], 4, order.release_time)
    assert planned is not None
    return Group(
        orders=(order,),
        route=planned.route,
        created_at=order.release_time,
        weights=ExtraTimeWeights(),
    )


class TestIndexMaintenance:
    def test_insert_move_remove(self):
        network = _network()
        grid = GridIndex(network, size=4)
        index = WorkerSpatialIndex(network, grid)
        index.insert(7, 0)
        assert 7 in index and len(index) == 1
        assert 7 in index.workers_in_cell(grid.cell_of(0))
        index.insert(7, 63)  # re-indexing moves the worker
        assert 7 not in index.workers_in_cell(grid.cell_of(0))
        assert 7 in index.workers_in_cell(grid.cell_of(63))
        index.remove(7)
        assert 7 not in index and len(index) == 0
        index.remove(7)  # absent removal is a no-op

    def test_fleet_updates_index_on_assign_and_release(self):
        network = _network()
        workers = [Worker(location=0, capacity=4), Worker(location=63, capacity=4)]
        fleet = WorkerFleet(workers, network, GridIndex(network, size=4))
        index = fleet.spatial_index
        assert len(index) == 2
        order = make_order(network, pickup=1, dropoff=10)
        group = _singleton_group(network, order)
        worker = fleet.find_worker_for(group, 0.0)
        assert worker is workers[0]
        grid = GridIndex(network, size=4)
        start_cell = grid.cell_of(0)
        end_cell = grid.cell_of(group.route.end_node)
        assignment = fleet.assign(worker, group, 0.0)
        # The index holds idle workers only: a busy one is in no bucket.
        assert worker.worker_id not in index and len(index) == 1
        assert worker.worker_id not in index.workers_in_cell(start_cell)
        assert worker.worker_id not in index.workers_in_cell(end_cell)
        # Not before its route has finished ...
        assert fleet.release_finished(assignment.finish_time - 1.0) == 0
        assert worker.worker_id not in index and len(index) == 1
        # ... and from then on at the route's end node.
        assert fleet.release_finished(assignment.finish_time) == 1
        assert worker.is_idle
        assert worker.worker_id in index and len(index) == 2
        assert worker.worker_id in index.workers_in_cell(end_cell)


class TestRingSoundness:
    def test_rings_yield_every_worker_once_with_monotone_bounds(self):
        network = _network()
        grid = GridIndex(network, size=5)
        index = WorkerSpatialIndex(network, grid)
        rng = random.Random(9)
        nodes = sorted(network.nodes())
        locations = {wid: rng.choice(nodes) for wid in range(30)}
        for wid, node in locations.items():
            index.insert(wid, node)
        query = nodes[len(nodes) // 2]
        seen: list[int] = []
        previous_bound = -1.0
        for bound, worker_ids in index.rings(query):
            assert bound >= previous_bound
            previous_bound = bound
            seen.extend(worker_ids)
        assert sorted(seen) == sorted(locations)

    def test_ring_bound_never_exceeds_true_travel_time(self):
        """The ring bound must lower-bound every member's approach time."""
        network = _network()
        grid = GridIndex(network, size=5)
        index = WorkerSpatialIndex(network, grid)
        rng = random.Random(11)
        nodes = sorted(network.nodes())
        locations = {wid: rng.choice(nodes) for wid in range(25)}
        for wid, node in locations.items():
            index.insert(wid, node)
        for query in rng.sample(nodes, 5):
            for bound, worker_ids in index.rings(query):
                for wid in worker_ids:
                    actual = network.travel_time(locations[wid], query)
                    assert bound <= actual + 1e-9, (wid, bound, actual)


class TestSearchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ring_search_matches_full_scan(self, seed):
        network = _network(rows=10, cols=10, seed=seed)
        rng = random.Random(seed)
        nodes = sorted(network.nodes())
        locations = [rng.choice(nodes) for _ in range(24)]
        capacities = [rng.choice([1, 2, 4]) for _ in range(24)]
        workers_a = [
            Worker(location=loc, capacity=cap, worker_id=wid)
            for wid, (loc, cap) in enumerate(zip(locations, capacities))
        ]
        workers_b = [worker.clone() for worker in workers_a]
        fleet_rings = WorkerFleet(workers_a, network, GridIndex(network, size=6))
        fleet_scan = ScanningWorkerFleet(workers_b, network, GridIndex(network, size=6))
        now = 0.0
        for step in range(30):
            pickup, dropoff = rng.sample(nodes, 2)
            try:
                order = make_order(
                    network, pickup, dropoff, release=now, riders=rng.choice([1, 2])
                )
            except Exception:
                continue
            group = _singleton_group(network, order)
            found_rings = fleet_rings.find_worker_for(group, now)
            found_scan = fleet_scan.find_worker_for(group, now)
            if found_rings is None:
                assert found_scan is None
            else:
                assert found_scan is not None
                assert found_rings.worker_id == found_scan.worker_id
                if rng.random() < 0.6:
                    fleet_rings.assign(found_rings, group, now)
                    fleet_scan.assign(
                        fleet_scan.worker(found_scan.worker_id), group, now
                    )
            now += rng.uniform(0.0, 120.0)
        assert fleet_rings.total_travel_time == fleet_scan.total_travel_time

    def test_ring_search_prunes_candidates(self):
        """On a big network the ring search must not examine the whole fleet."""
        network = _network(rows=16, cols=16, seed=3)
        rng = random.Random(3)
        nodes = sorted(network.nodes())
        workers = [
            Worker(location=rng.choice(nodes), capacity=4, worker_id=wid)
            for wid in range(64)
        ]
        fleet = WorkerFleet(workers, network, GridIndex(network, size=8))
        index = fleet.spatial_index
        searches = 0
        for _ in range(20):
            pickup, dropoff = rng.sample(nodes, 2)
            order = make_order(network, pickup, dropoff)
            group = _singleton_group(network, order)
            fleet.find_worker_for(group, 0.0)
            searches += 1
        assert index.candidates_yielded < searches * len(fleet)


class TestFindMemo:
    def test_can_serve_then_assign_searches_once(self, monkeypatch):
        network = _network()
        workers = [Worker(location=0, capacity=4), Worker(location=63, capacity=4)]
        fleet = WorkerFleet(workers, network, GridIndex(network, size=4))
        order = make_order(network, pickup=1, dropoff=10)
        group = _singleton_group(network, order)
        calls = {"count": 0}
        original = WorkerFleet._find_by_rings

        def counting(self, group, now):
            calls["count"] += 1
            return original(self, group, now)

        monkeypatch.setattr(WorkerFleet, "_find_by_rings", counting)
        assert fleet.can_serve(group, 0.0)
        worker = fleet.find_worker_for(group, 0.0)
        assert worker is not None
        assert calls["count"] == 1
        # Booking invalidates the memo: the same probe searches again.
        fleet.assign(worker, group, 0.0)
        fleet.can_serve(group, 0.0)
        assert calls["count"] == 2

    def test_memo_invalidated_by_release(self):
        network = _network()
        worker = Worker(location=0, capacity=4)
        fleet = WorkerFleet([worker], network, GridIndex(network, size=4))
        order = make_order(network, pickup=1, dropoff=10)
        group = _singleton_group(network, order)
        found = fleet.find_worker_for(group, 0.0)
        assert found is worker
        assignment = fleet.assign(found, group, 0.0)
        assert fleet.find_worker_for(group, 0.0) is None
        # Once the route finishes the released worker must be found for
        # a fresh feasible group — the stale None memo may not survive.
        later = assignment.finish_time + 1.0
        fresh = _singleton_group(
            network, make_order(network, pickup=11, dropoff=20, release=later)
        )
        assert fleet.find_worker_for(fresh, later) is worker

    def test_distinct_groups_are_not_conflated(self, order_factory, small_network):
        workers = [Worker(location=0, capacity=4), Worker(location=35, capacity=4)]
        fleet = WorkerFleet(workers, small_network, GridIndex(small_network, size=3))
        group_a = _singleton_group(small_network, order_factory(1, 10))
        group_b = _singleton_group(small_network, order_factory(34, 20))
        first = fleet.find_worker_for(group_a, 0.0)
        second = fleet.find_worker_for(group_b, 0.0)
        assert first is workers[0]
        assert second is workers[1]
