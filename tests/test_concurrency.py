"""Thread safety of the one thing concurrent runs share: the oracle.

Concurrent runs of a resident service, and workload generation on the
same pooled session, query one pooled oracle from several threads at
once.  Both backends memoise on query (``lazy``'s distance rows,
``ch``'s pair / label / arrival caches), so the rule is one lock per
oracle, taken by :class:`~repro.network.graph.RoadNetwork` around every
oracle-touching call.  These tests hammer a shared network from many
threads and require (a) answers identical to a single-threaded
reference, (b) no lost counter update, and (c) never two threads inside
the oracle at once — also when a served run overlaps a prepare.
"""

from __future__ import annotations

import functools
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import ORACLE_BACKENDS, create_oracle

_NUM_THREADS = 8
_ROUNDS_PER_THREAD = 6


@pytest.fixture(scope="module")
def city():
    # Uniform edges: every path sum is exact, so a ``lazy`` answer is
    # the same float whether a forward or a reverse search priced it.
    return grid_city(rows=8, cols=8, edge_travel_time=60.0, jitter=0.0, seed=5)


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


def _calls(worker_id: int, nodes, pairs, sources, targets):
    """One thread's deterministic mix of every oracle-touching call."""
    local = random.Random(worker_id)
    calls = []
    for round_index in range(_ROUNDS_PER_THREAD):
        for pair in local.sample(pairs, 20):
            calls.append(("travel_time", pair))
        calls.append(("is_reachable", tuple(local.sample(nodes, 2))))
        target = local.choice(targets)
        calls.append(("travel_times_to", (target,)))
        calls.append(("travel_times_many", (sources, targets)))
        calls.append(("leg_matrix", (local.sample(sources, 5), targets)))
        calls.append(("oracle_stats", ()))
        if worker_id == 0 and round_index % 2:
            # Evict everything under the others' feet.
            calls.append(("clear_cache", ()))
    return calls


def _answer(network: RoadNetwork, call):
    """A call's answer: floats as a dict (for ``_maps_close``), else as is."""
    name, args = call
    result = getattr(network, name)(*args)
    if name == "leg_matrix":
        return {(i, j): cell for i, row in enumerate(result) for j, cell in enumerate(row)}
    if name == "travel_time":
        return {(): result}
    return None if name in ("oracle_stats", "clear_cache") else result


@pytest.mark.parametrize("backend", list(ORACLE_BACKENDS))
def test_network_concurrent_queries_match_serial(city, backend):
    """Hammer every oracle-touching call from threads; answers, counters
    and cache bounds must come out as a serial replay's."""
    nodes = city.nodes_sorted()
    rng = random.Random(31)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
    targets = [rng.choice(nodes) for _ in range(12)]
    sources = [rng.choice(nodes) for _ in range(16)]
    plans = [_calls(worker, nodes, pairs, sources, targets) for worker in range(_NUM_THREADS)]

    def fresh_network() -> RoadNetwork:
        return RoadNetwork(city.graph, oracle=create_oracle(backend, city.graph))

    # ``lazy``'s answers are exact on uniform edges; ``ch``'s are
    # within its ulp slack.
    same = (lambda got, want: got == want) if backend == "lazy" else _maps_close
    reference = fresh_network()
    expected = [[_answer(reference, call) for call in plan] for plan in plans]
    serial_queries = reference.oracle_stats().queries

    shared = fresh_network()
    barrier = threading.Barrier(_NUM_THREADS)

    def hammer(worker_id: int) -> list:
        barrier.wait(timeout=30)
        return [_answer(shared, call) for call in plans[worker_id]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=_NUM_THREADS) as executor:
            answers = list(executor.map(hammer, range(_NUM_THREADS), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got_plan, want_plan in zip(answers, expected):
        for got, want in zip(got_plan, want_plan):
            if isinstance(want, dict):
                assert same(got, want)
            else:
                assert got == want
    # Every answer counted exactly once: no increment was lost to a race.
    assert shared.oracle_stats().queries == serial_queries
    if backend == "ch":
        extras = shared.oracle_stats().extras
        assert extras["label_cached_sources"] <= shared.oracle.bucket_cache_size
        assert extras["bucket_cached_targets"] <= shared.oracle.bucket_cache_size


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


@pytest.mark.parametrize("backend", list(ORACLE_BACKENDS))
def test_plans_on_one_pooled_network(backend):
    """Two planners on one pooled network plan as a serial planner does.

    A plan's whole oracle traffic is one ``leg_matrix`` call, taken
    under the pooled oracle's lock, so the shared caches are never read
    or mutated by two planners at once.  Uniform edges make every leg an
    exact float sum whichever row or label prices it, so the plans must
    equal a serial planner's on its own network, and the pooled oracle
    must have answered exactly the serial planner's cells.
    """
    from repro.model.order import Order
    from repro.routing.planner import RoutePlanner

    def uniform_city():
        graph = grid_city(
            rows=7, cols=7, edge_travel_time=60.0, jitter=0.0, seed=0
        ).graph
        return RoadNetwork(graph, create_oracle(backend, graph))

    pooled = uniform_city()
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

    serial_city = uniform_city()
    serial = RoutePlanner(serial_city)
    expected = [outcome(serial, group) for group in groups]
    assert any(expected) and not all(expected)

    barrier = threading.Barrier(2)

    def run(half: int):
        planner = RoutePlanner(pooled)
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
    assert pooled.oracle_stats().queries == serial_city.oracle_stats().queries


class _OverlapProbe:
    """Counts oracle calls entered while another thread is inside the oracle.

    Wraps oracle methods at class level.  A thread re-entering the
    oracle it is already inside (``is_reachable`` reads
    ``travel_time``) is not an overlap.  Each call yields the GIL once
    inside, so any other thread that is free to enter does.  ``calls``
    records ``(thread, method name)`` of every outermost call, in entry
    order.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._depth: dict[int, int] = {}
        self.overlaps = 0
        self.calls: list[tuple[int, str]] = []

    def wrap(self, method):
        probe = self

        @functools.wraps(method)
        def entered(oracle, *args):
            me = threading.get_ident()
            with probe._guard:
                if any(depth for thread, depth in probe._depth.items() if thread != me):
                    probe.overlaps += 1
                depth = probe._depth.get(me, 0)
                if depth == 0:
                    probe.calls.append((me, method.__name__))
                probe._depth[me] = depth + 1
            try:
                time.sleep(0)
                return method(oracle, *args)
            finally:
                with probe._guard:
                    probe._depth[me] -= 1

        return entered


def _run_beside_prepares(monkeypatch, algorithm: str, block: str) -> _OverlapProbe:
    """One long served run of ``algorithm`` on a pooled ``lazy`` grid and,
    once the run has asked its first ``block``, three prepares of new
    workload shapes on the same session; returns the probe after all
    finished.

    The probe also checks that workload generation on another thread
    really ran while the long run was between two of its blocks.
    """
    from repro.api import ScenarioSpec
    from repro.network.oracle.lazy import LazyDijkstraOracle
    from repro.serve import COMPLETED, ScenarioService

    probe = _OverlapProbe()
    for name in ("travel_time", "leg_matrix", "warm", "is_reachable", "clear", "stats"):
        monkeypatch.setattr(
            LazyDijkstraOracle, name, probe.wrap(getattr(LazyDijkstraOracle, name))
        )
    base = ScenarioSpec(
        network="grid", grid_rows=12, grid_cols=12, num_orders=600,
        num_workers=30, horizon=6000.0, seed=4, algorithm=algorithm,
        oracle={"backend": "lazy"},
    )
    # New order counts: each is a workload the pooled session has not
    # generated yet, so its prepare queries the pooled oracle.
    shapes = [
        base.with_overrides(algorithm="WATTER-online", num_orders=count)
        for count in (60, 70, 80)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ScenarioService(max_runs=2) as service:
            long_run = service.submit_spec(base)
            # Only a run asks by blocks: once one is in, it is simulating.
            deadline = time.monotonic() + 60
            while not any(name == block for _, name in probe.calls):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            records = [service.submit_spec(spec) for spec in shapes]
            records = [
                service.wait(record.run_id, timeout=240)
                for record in [long_run, *records]
            ]
    finally:
        sys.setswitchinterval(interval)
    assert all(record.status == COMPLETED for record in records)
    run_thread = next(thread for thread, name in probe.calls if name == block)
    blocks = [
        index
        for index, (thread, name) in enumerate(probe.calls)
        if thread == run_thread and name == block
    ]
    assert any(
        thread != run_thread and name == "is_reachable"
        for thread, name in probe.calls[blocks[0] : blocks[-1]]
    )
    return probe


def test_served_run_and_a_prepare_never_share_the_oracle_at_once(monkeypatch):
    """A prepare of a new workload shape overlapping a served run on one
    pooled ``lazy`` session: generation (``is_reachable`` /
    ``travel_time``) and the run (``leg_matrix`` blocks) interleave, but
    never with two threads inside the oracle at once."""
    probe = _run_beside_prepares(monkeypatch, "GDP", "leg_matrix")
    assert probe.overlaps == 0


def test_primed_approaches_never_share_the_oracle_with_a_prepare(monkeypatch):
    """GAS primes each batch's approach legs through
    ``RoadNetwork.warm_legs``: its ``warm`` calls interleave with a
    prepare on another thread, never overlapping it either."""
    probe = _run_beside_prepares(monkeypatch, "GAS", "warm")
    assert probe.overlaps == 0
