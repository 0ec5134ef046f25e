"""Serial/parallel dispatch equivalence and the engine's primitives.

The sharded dispatch engine's contract is strong: a parallel run makes
*exactly* the dispatch decisions a serial run makes — same assignment
winners, same tie-breaks, same served/rejected sets, same costs — for
any shard count, any execution mode and any oracle backend, because
the shards only precompute travel times while the decision loop stays
the unchanged serial algorithm.  These tests hold every simulation
metric (except wall-clock and oracle counters, which legitimately
differ) fixed across shard counts 1/2/7 on all four backends, in both
thread and process modes, including a fleet smaller than the shard
count.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.datasets.workloads import build_workload
from repro.exceptions import ConfigurationError
from repro.network.oracle import OracleSpec, available_backends
from repro.simulation.parallel import (
    DISPATCH_MODES,
    ParallelDispatchEngine,
    merge_shard_results,
    partition_shards,
)
from tests.conftest import run_on_workload

BACKENDS = ("lazy", "landmark", "matrix", "ch")

#: Shard counts of the equivalence sweep: the serial engine path, an
#: even split, and a prime count that exceeds parts of the workload.
SHARD_COUNTS = (1, 2, 7)


def _small_config(**overrides) -> SimulationConfig:
    base = dict(
        num_orders=48,
        num_workers=6,
        horizon=1800.0,
        seed=23,
        check_period=15.0,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _core_metrics(metrics) -> dict:
    """Every metric field that must be identical across shard counts.

    Wall-clock (``running_time_*``) and ``oracle_stats`` are excluded:
    the first is nondeterministic by nature, the second intentionally
    differs (parallel runs add scheduling and per-shard counters).
    """
    data = {
        name: getattr(metrics, name) for name in metrics.__dataclass_fields__
    }
    data.pop("oracle_stats")
    data.pop("running_time_total")
    data.pop("running_time_per_order")
    return data


def _assert_metrics_equal(got: dict, want: dict, backend: str, label: str):
    """Bitwise equality — except ``ch``'s documented last-ulp slack.

    The ``lazy``/``matrix``/``landmark`` backends produce the same
    float no matter how a pair is queried, so equality is exact.  The
    ``ch`` backend assembles distances from shortcut parts and its
    docstring warns different query paths can differ in the last ulp;
    prefetching may steer a pair down a different path than a serial
    ring query, so its float metrics are compared within 1e-9 relative
    (counts and discrete decisions stay exact).
    """
    if backend != "ch":
        assert got == want, f"{backend} diverged at {label}"
        return
    assert set(got) == set(want)
    for name in want:
        a, b = got[name], want[name]
        if isinstance(b, float):
            assert a == pytest.approx(b, rel=1e-9), (
                f"ch {name} diverged at {label}: {a!r} != {b!r}"
            )
        else:
            assert a == b, f"ch {name} diverged at {label}: {a!r} != {b!r}"


def _run(config: SimulationConfig, algorithm: str = "WATTER-timeout"):
    workload = build_workload("CDC", config)
    return run_on_workload(algorithm, workload, config)


# ---------------------------------------------------------------------------
# end-to-end equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_dispatch_matches_serial_all_backends(backend):
    """Thread-sharded runs equal serial runs on every oracle backend."""
    assert set(BACKENDS) <= set(available_backends())
    serial = _run(_small_config(oracle=OracleSpec(backend=backend)))
    reference = _core_metrics(serial.metrics)
    assert serial.metrics.served_orders > 0  # the workload is non-trivial
    for shards in SHARD_COUNTS:
        parallel = _run(
            _small_config(
                oracle=OracleSpec(backend=backend), dispatch_workers=shards
            )
        )
        _assert_metrics_equal(
            _core_metrics(parallel.metrics),
            reference,
            backend,
            f"{shards} thread shards",
        )


@pytest.mark.parametrize("backend", ("lazy", "ch"))
def test_process_sharded_dispatch_matches_serial(backend):
    """Forked per-shard oracle handles reproduce serial metrics exactly."""
    serial = _run(_small_config(oracle=OracleSpec(backend=backend)))
    parallel = _run(
        _small_config(
            oracle=OracleSpec(backend=backend),
            dispatch_workers=4,
            dispatch_mode="process",
        )
    )
    _assert_metrics_equal(
        _core_metrics(parallel.metrics),
        _core_metrics(serial.metrics),
        backend,
        "4 process shards",
    )
    # The run really went through the engine: prefetches were issued
    # and, when fork is available, answered by shard processes whose
    # results the decision loop then consumed from the overlay.
    stats = parallel.metrics.oracle_stats
    assert stats["dispatch_workers"] == 4
    if stats["dispatch_mode"] == "process":
        assert stats["prefetch_calls"] > 0
        assert stats["shard_tasks"] > 0
        assert stats["overlay_hits"] > 0


def test_fleet_smaller_than_shard_count():
    """7 shards over a 3-worker fleet: empty shards, identical outcome."""
    serial = _run(_small_config(num_workers=3, num_orders=30))
    for mode in DISPATCH_MODES:
        parallel = _run(
            _small_config(
                num_workers=3,
                num_orders=30,
                dispatch_workers=7,
                dispatch_mode=mode,
            )
        )
        assert _core_metrics(parallel.metrics) == _core_metrics(serial.metrics)


def test_parallel_dispatch_other_algorithms_unaffected():
    """Baselines without a prefetch hook still run (and match serial)."""
    config = _small_config()
    serial = _run(config, algorithm="GDP")
    parallel = _run(
        _small_config(dispatch_workers=3), algorithm="GDP"
    )
    assert _core_metrics(parallel.metrics) == _core_metrics(serial.metrics)


# ---------------------------------------------------------------------------
# the engine's primitives
# ---------------------------------------------------------------------------


def test_partition_shards_deterministic_and_even():
    items = list(range(10))
    chunks = partition_shards(items, 3)
    assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert partition_shards(items, 3) == chunks  # pure function
    # More shards than items: tail shards are empty, nothing is lost.
    chunks = partition_shards([1, 2], 7)
    assert [c for c in chunks if c] == [[1], [2]]
    assert len(chunks) == 7
    assert partition_shards([], 4) == [[], [], [], []]
    with pytest.raises(ConfigurationError):
        partition_shards(items, 0)


def test_merge_shard_results_is_order_independent_and_strict():
    a = {(1, 9): 4.0, (2, 9): 5.0}
    b = {(3, 8): 1.5}
    assert merge_shard_results([a, b]) == merge_shard_results([b, a])
    assert merge_shard_results([a, b]) == {**a, **b}
    # Any overlap means the target partition was wrong — refuse even
    # when the duplicated values agree (that is silent double work).
    with pytest.raises(AssertionError):
        merge_shard_results([a, {(1, 9): 4.0}])
    with pytest.raises(AssertionError):
        merge_shard_results([a, {(1, 9): 4.25}])


def test_engine_travel_times_many_matches_network():
    """Engine answers (overlay or fallback) equal direct network answers."""
    from repro.network.generators import grid_city

    network = grid_city(rows=6, cols=6, seed=2, jitter=0.2)
    nodes = network.nodes_sorted()
    sources, targets = nodes[:8], nodes[10:14]
    expected = network.travel_times_many(sources, targets)
    with ParallelDispatchEngine(network, num_shards=3, mode="process") as engine:
        prefetched = engine.prefetch_many_to_one(sources, targets)
        assert prefetched == expected
        # Served from the overlay now (process mode retains results).
        answered = engine.travel_times_many(sources, [targets[0]])
        assert answered == {
            pair: value for pair, value in expected.items()
            if pair[1] == targets[0]
        }
        # Uncovered pairs fall back to the exact network call.
        fresh = nodes[20:22]
        assert engine.travel_times_many(fresh, [targets[1]]) == (
            network.travel_times_many(fresh, [targets[1]])
        )
    # Closed engines degrade to inline serial execution, not errors.
    assert engine.prefetch_many_to_one(sources, targets) == expected


def test_engine_overlay_is_bounded():
    """Old targets are evicted (LRU) and transparently recomputed."""
    from repro.network.generators import grid_city

    network = grid_city(rows=6, cols=6, seed=2, jitter=0.2)
    nodes = network.nodes_sorted()
    sources = nodes[:5]
    with ParallelDispatchEngine(network, num_shards=2, mode="process") as engine:
        engine._overlay_bound = 3
        engine.prefetch_many_to_one(sources, nodes[10:16])
        assert len(engine._coverage) == 3  # oldest targets evicted
        assert set(engine._values) == set(engine._coverage)
        # An evicted target still answers — through the network fallback
        # — with exactly the values a direct call produces.
        evicted = nodes[10]
        assert evicted not in engine._coverage
        assert engine.travel_times_many(sources, [evicted]) == (
            network.travel_times_many(sources, [evicted])
        )


def test_engine_modes_and_validation():
    from repro.network.generators import grid_city

    network = grid_city(rows=4, cols=4, seed=1)
    with pytest.raises(ConfigurationError):
        ParallelDispatchEngine(network, num_shards=0)
    with pytest.raises(ConfigurationError):
        ParallelDispatchEngine(network, num_shards=2, mode="fibers")
    engine = ParallelDispatchEngine(network, num_shards=1, mode="thread")
    # A single shard starts no pool; the stats say so instead of
    # claiming a thread pool that does not exist.
    assert engine.effective_mode == "inline"
    assert engine.prefetch_worthwhile is False
    engine.close()
    engine.close()  # idempotent


# ---------------------------------------------------------------------------
# config / CLI wiring
# ---------------------------------------------------------------------------


def test_config_dispatch_fields_validate():
    config = SimulationConfig(dispatch_workers=4, dispatch_mode="process")
    assert config.dispatch_workers == 4
    assert config.as_dict()["dispatch_mode"] == "process"
    with pytest.raises(ConfigurationError):
        SimulationConfig(dispatch_workers=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(dispatch_mode="gevent")


def test_cli_dispatch_worker_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        [
            "compare",
            "--dispatch-workers", "4",
            "--dispatch-mode", "process",
            "--orders", "10",
        ]
    )
    assert args.dispatch_workers == 4
    assert args.dispatch_mode == "process"
    from repro.api import ScenarioSpec

    config = ScenarioSpec.from_args(args).config()
    assert config.dispatch_workers == 4
    assert config.dispatch_mode == "process"
    # Defaults stay fully serial.
    args = parser.parse_args(["compare"])
    assert ScenarioSpec.from_args(args).config().dispatch_workers == 1
    with pytest.raises(SystemExit):
        parser.parse_args(["compare", "--dispatch-workers", "0"])
