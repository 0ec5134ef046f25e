"""Concurrent-read safety of the structures served runs share.

Concurrent runs of a resident service query one pooled oracle from
several threads at once.  The contraction-hierarchy backend
memoises reverse-PHAST arrival maps, target buckets and point-to-point
results on query — ``OrderedDict`` state that used to corrupt under
concurrent mutation — and the worker spatial index bumps its benchmark
counters inside the ring generator.  These tests hammer both from many
threads and require (a) no exception or torn state and (b) answers
identical to a single-threaded reference.
"""

from __future__ import annotations

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.network.grid import GridIndex
from repro.network.oracle import CHOracle, create_oracle
from repro.simulation.spatial import WorkerSpatialIndex

_NUM_THREADS = 8
_ROUNDS_PER_THREAD = 6


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=8, cols=8, seed=5, jitter=0.25)


@pytest.fixture(scope="module")
def ch_oracle(city):
    return CHOracle(city.graph)


def _maps_close(got, want, rel=1e-9):
    """Same keys, values equal within CH's documented ulp assembly slack.

    A pair answered through the point-to-point search and the same pair
    answered through a bucket scan / arrival sweep associate their
    shortcut-weight additions differently, so which value a cache holds
    depends on query *history* — that is true single-threaded too and
    is not a concurrency defect.  Keys (reachability) must be exact.
    """
    if set(got) != set(want):
        return False
    return all(math.isclose(got[k], want[k], rel_tol=rel) for k in want)


def test_ch_oracle_concurrent_queries_match_serial(city, ch_oracle):
    """Hammer every query shape from threads; answers must match serial."""
    nodes = city.nodes_sorted()
    rng = random.Random(31)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
    targets = [rng.choice(nodes) for _ in range(12)]
    sources = [rng.choice(nodes) for _ in range(16)]

    reference_oracle = CHOracle(city.graph)
    reference = RoadNetwork(city.graph, oracle=reference_oracle)
    reference_pairs = {
        pair: reference_oracle.travel_time(*pair) for pair in pairs
    }
    reference_arrivals = {
        target: reference.travel_times_to(target) for target in targets
    }
    reference_sweeps = {
        target: reference_oracle.reverse_sweep(
            reference_oracle.reverse_seed_map(target)
        ).tolist()
        for target in targets
    }
    reference_many = reference.travel_times_many(sources, targets)
    # The dict views of the shared oracle, each one ``leg_matrix`` call.
    network = RoadNetwork(city.graph, oracle=ch_oracle)

    errors: list[BaseException] = []

    def hammer(worker_id: int) -> None:
        # Each thread interleaves the three query shapes in its own
        # order so cache hits, misses and evictions race for real.
        local = random.Random(worker_id)
        try:
            for _ in range(_ROUNDS_PER_THREAD):
                for pair in local.sample(pairs, 20):
                    assert math.isclose(
                        ch_oracle.travel_time(*pair),
                        reference_pairs[pair],
                        rel_tol=1e-9,
                    )
                target = local.choice(targets)
                # Reverse-PHAST sweeps are computed one way only, so
                # these must be exact, not merely close.
                sweep = ch_oracle.reverse_sweep(ch_oracle.reverse_seed_map(target))
                assert sweep.tolist() == reference_sweeps[target]
                # An all-to-one map reads the pair cache first, so which
                # of two ulp-apart sums it holds is history, as above.
                assert _maps_close(
                    network.travel_times_to(target), reference_arrivals[target]
                )
                assert _maps_close(
                    network.travel_times_many(sources, targets),
                    reference_many,
                )
        except BaseException as exc:  # noqa: BLE001 - collected for the report
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=_NUM_THREADS) as executor:
        list(executor.map(hammer, range(_NUM_THREADS)))
    assert not errors, errors
    # The caches came through the stampede structurally intact: every
    # entry still answers, and the LRU bounds still hold.
    extras = ch_oracle.stats().extras
    assert extras["label_cached_sources"] <= ch_oracle.bucket_cache_size
    assert extras["bucket_cached_targets"] <= ch_oracle.bucket_cache_size
    for pair, expected in reference_pairs.items():
        assert math.isclose(
            ch_oracle.travel_time(*pair), expected, rel_tol=1e-9
        )


def test_spatial_index_concurrent_rings_match_serial(city):
    """Concurrent ring searches see identical rings and exact counters."""
    grid = GridIndex(city, size=4)
    index = WorkerSpatialIndex(city, grid)
    nodes = city.nodes_sorted()
    rng = random.Random(13)
    for worker_id in range(40):
        index.insert(worker_id, rng.choice(nodes))
    query_nodes = [rng.choice(nodes) for _ in range(10)]
    reference = {node: list(index.rings(node)) for node in query_nodes}
    searches_before = index.searches
    yielded_before = index.candidates_yielded

    barrier = threading.Barrier(_NUM_THREADS)

    def hammer(worker_id: int) -> tuple[bool, list[int]]:
        local = random.Random(worker_id)
        barrier.wait()  # maximise overlap between the generators
        ok = True
        queried: list[int] = []
        for _ in range(_ROUNDS_PER_THREAD):
            node = local.choice(query_nodes)
            queried.append(node)
            ok = ok and list(index.rings(node)) == reference[node]
        return ok, queried

    with ThreadPoolExecutor(max_workers=_NUM_THREADS) as executor:
        results = list(executor.map(hammer, range(_NUM_THREADS)))
    assert all(ok for ok, _ in results)
    # Counter updates are locked, so none of the concurrent increments
    # were lost (exact equality, not just monotonicity).
    total_searches = _NUM_THREADS * _ROUNDS_PER_THREAD
    assert index.searches == searches_before + total_searches
    per_query_yield = {
        node: sum(len(ids) for _, ids in reference[node])
        for node in query_nodes
    }
    expected_yield = sum(
        per_query_yield[node] for _, queried in results for node in queried
    )
    assert index.candidates_yielded == yielded_before + expected_yield


def test_spatial_index_cold_ring_geometry_built_under_contention(city):
    """Threads racing the first search from a cell agree with a serial index.

    The per-cell ring geometry is memoised on first use without a lock;
    every thread that builds it builds the same value, so whichever
    write lands the rings served are the serial ones.
    """
    grid = GridIndex(city, size=4)
    nodes = city.nodes_sorted()
    rng = random.Random(17)
    placements = [(worker_id, rng.choice(nodes)) for worker_id in range(40)]
    serial = WorkerSpatialIndex(city, grid)
    for worker_id, node in placements:
        serial.insert(worker_id, node)
    reference = {node: list(serial.rings(node)) for node in nodes}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(_ROUNDS_PER_THREAD):
            index = WorkerSpatialIndex(city, grid)  # cold: no geometry yet
            for worker_id, node in placements:
                index.insert(worker_id, node)
            barrier = threading.Barrier(_NUM_THREADS)

            def hammer(_thread: int) -> bool:
                barrier.wait(timeout=30)
                return all(list(index.rings(node)) == reference[node] for node in nodes)

            with ThreadPoolExecutor(max_workers=_NUM_THREADS) as executor:
                assert all(executor.map(hammer, range(_NUM_THREADS), timeout=60))
            assert index.searches == _NUM_THREADS * len(nodes)
    finally:
        sys.setswitchinterval(interval)


def test_session_concurrent_prepare_builds_oracle_once():
    """The Session facade's memoisation is a real critical section.

    Eight threads racing ``prepare`` on one spec must converge on one
    network, one workload object and exactly one oracle build — the
    invariant the serving layer's session pool leans on when concurrent
    requests land on the same pooled session.
    """
    from repro.api import ScenarioSpec, Session

    spec = ScenarioSpec(
        network="grid", grid_rows=5, grid_cols=5, num_orders=16,
        num_workers=4, horizon=300.0, seed=11, algorithm="GDP",
        oracle={"backend": "ch"},
    )
    session = Session()
    barrier = threading.Barrier(_NUM_THREADS)

    def prepare(_worker_id: int):
        barrier.wait()  # maximise overlap on the cold session
        return session.prepare(spec)

    with ThreadPoolExecutor(max_workers=_NUM_THREADS) as executor:
        workloads = list(executor.map(prepare, range(_NUM_THREADS)))
    first = workloads[0]
    assert all(workload is first for workload in workloads)
    assert session.oracle_builds == 1


def test_plans_through_batched_views_are_serial_and_one_hop_each():
    _two_planners_share_a_network("lazy", batched=True)


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "direct"])
def test_plans_on_a_shared_ch_oracle(batched):
    _two_planners_share_a_network("ch", batched)


def _two_planners_share_a_network(backend: str, batched: bool) -> None:
    """Two runs planning on one pooled network, one hop per plan.

    A plan's whole oracle traffic is one ``leg_matrix`` call, which a
    :class:`SharedNetworkView` takes under the pooled network's lock —
    the shared LRU maps are never read or mutated outside it.  ``ch``
    guards its pair cache with its own query lock, so its ``leg_matrix``
    must also survive two planners sharing the network with no view
    in between.  Uniform edges make every leg an exact float sum
    whichever map or label prices it, so the served plans must equal a
    serial planner's on its own network.
    """
    from repro.model.order import Order
    from repro.routing.planner import RoutePlanner
    from repro.serve import SharedNetworkView

    def uniform_city():
        return grid_city(rows=7, cols=7, edge_travel_time=60.0, jitter=0.0, seed=0)

    pooled = uniform_city()
    pooled.set_oracle(create_oracle(backend, pooled.graph))
    nodes = pooled.nodes_sorted()
    rng = random.Random(77)
    groups = []
    for index in range(120):
        members = [
            Order(
                pickup=rng.choice(nodes), dropoff=rng.choice(nodes),
                release_time=0.0, shortest_time=1.0,
                deadline=rng.choice([400.0, 900.0, 1e9]), wait_limit=1.0,
                riders=1, order_id=10 * index + member,
            )
            for member in range(rng.randint(1, 3))
        ]
        groups.append(members)

    def outcome(planner, members):
        planned = planner.try_plan(members, 4, 0.0)
        return None if planned is None else (planned.route.stops, planned.total_travel_time)

    serial = RoutePlanner(uniform_city())
    expected = [outcome(serial, group) for group in groups]
    assert any(expected) and not all(expected)

    lock = threading.Lock()
    views = [SharedNetworkView(pooled, lock) for _ in range(2)]
    barrier = threading.Barrier(2)

    def run(half: int):
        planner = RoutePlanner(views[half] if batched else pooled)
        barrier.wait(timeout=30)
        return [outcome(planner, group) for group in groups[half::2]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as executor:
            evens, odds = executor.map(run, range(2), timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert evens == expected[0::2] and odds == expected[1::2]
    half = len(groups) // 2 if batched else 0
    assert [view.queries for view in views] == [half, half]
