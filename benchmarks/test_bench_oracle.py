"""Distance-oracle benchmark: query-time speedup of the new backends.

The acceptance bars for the oracle subsystem: a precomputing backend
answers the default workload's shortest-path query mix at least 2x
faster than the seed behaviour (``LazyDijkstraOracle``), the batched
many-to-one dispatch path beats the per-source forward path >=5x, and
the contraction-hierarchy backend answers cold point-to-point queries
>=3x faster than lazy while staying competitive on the many-to-one mix
— all with results that agree pair-for-pair and with preprocessing
time reported honestly.  ``benchmark_oracles`` replays an identical,
realistically shaped query sequence (worker approach legs, pickup-gap
probes, route legs) against fresh instances of every backend and
cross-checks the answers; ``benchmark_dispatch_queries`` does the same
for the 32-workers-one-pickup dispatch shape and records the timings
in ``BENCH_dispatch.fresh.json`` (the committed ``BENCH_dispatch.json``
is the regression-gate baseline and is never written by tests).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.experiments.benchmarking import (
    CH_CACHE_ACCEPTANCE_SPEEDUP,
    CH_COLD_P2P_ACCEPTANCE_SPEEDUP,
    COARSEN_READINESS_ACCEPTANCE_SPEEDUP,
    CSR_MANY_TO_ONE_ACCEPTANCE_SPEEDUP,
    MANY_TO_ONE_ACCEPTANCE_SPEEDUP,
    SPATIAL_ACCEPTANCE_SPEEDUP,
    bench_scenario_identity,
    benchmark_ch_preprocessing_cache,
    benchmark_coarsening,
    benchmark_csr_kernel,
    benchmark_dispatch_queries,
    benchmark_oracles,
    benchmark_spatial_index,
    format_dispatch_bench_table,
    format_oracle_bench_table,
    write_dispatch_trajectory,
)
from repro.network.generators import grid_city

from .conftest import bench_config

#: Query count of the timed mix; large enough that per-query dispatch
#: overhead dominates timer noise on every backend.
_NUM_QUERIES = 4000

#: Idle workers per dispatch round of the many-to-one benchmark (the
#: acceptance bar requires at least 32).
_DISPATCH_SOURCES = 32


@pytest.mark.parametrize("dataset", ("CDC", "NYC"))
def test_oracle_backends_speedup(dataset):
    """Matrix oracle must answer the default workload >=2x faster than lazy."""
    config = bench_config(dataset)
    results = {
        result.backend: result
        for result in benchmark_oracles(
            dataset, config, backends=("lazy", "matrix", "ch"),
            num_queries=_NUM_QUERIES,
        )
    }
    print()
    print(
        format_oracle_bench_table(
            list(results.values()),
            title=f"Distance-oracle benchmark ({dataset}, {_NUM_QUERIES} queries)",
        )
    )
    lazy = results["lazy"]
    matrix = results["matrix"]
    assert matrix.query_seconds * 2.0 <= lazy.query_seconds, (
        f"matrix backend answered in {matrix.query_seconds:.4f}s, "
        f"needed <= half of lazy's {lazy.query_seconds:.4f}s"
    )
    # The precomputed backend never runs graph searches at query time.
    assert matrix.hit_rate == pytest.approx(1.0)


@pytest.fixture(scope="module")
def ch_cache_bench():
    """Cold-vs-warm CH construction on the 1024-node benchmark city.

    The cold build contracts the graph and writes the preprocessing
    cache; the warm build restores from that file (what a fresh process
    with a warm ``oracle.cache_dir`` does).  Answers are cross-checked
    inside the benchmark.
    """
    return benchmark_ch_preprocessing_cache(grid_dim=32)


@pytest.fixture(scope="module")
def csr_kernel_bench():
    """dict vs csr reverse-PHAST sweep on the 1024-node benchmark city.

    The shared backward upward seeds are computed outside the timed
    region; each kernel then produces its native arrival representation
    for 96 cold targets, cross-checked value-for-value inside the
    benchmark.  Without numpy the result records ``applicable=False``.
    """
    return benchmark_csr_kernel(grid_dim=32)


@pytest.fixture(scope="module")
def coarsen_bench():
    """Overlay readiness (coarsen + inner CH) vs direct CH contraction.

    By default the direct full-graph contraction is *skipped* — at the
    acceptance shape (>=100k nodes) it takes tens of minutes, far past
    any CI ``timeout`` — and the result records ``applicable=False``;
    the committed ``BENCH_dispatch.json`` baseline carries the full
    measurement.  ``REPRO_BENCH_COARSEN_FULL=1`` opts into measuring the
    direct side at the full city shape, ``REPRO_BENCH_COARSEN_NODES``
    overrides the node count.  Every run — full or not — cross-checks
    sampled overlay answers against exact Dijkstras inside the
    benchmark, so the overlay side is always validated.
    """
    full = os.environ.get("REPRO_BENCH_COARSEN_FULL") == "1"
    nodes = int(
        os.environ.get("REPRO_BENCH_COARSEN_NODES", "102400" if full else "2304")
    )
    side = max(8, math.isqrt(nodes))
    return benchmark_coarsening(
        rows=side, cols=side, levels=4, measure_direct=full
    )


@pytest.fixture(scope="module")
def dispatch_bench(ch_cache_bench, csr_kernel_bench, coarsen_bench):
    """One shared dispatch benchmark run over every registered backend.

    The query mix is the dispatch hot path: >=32 idle worker locations
    against one pickup node, each round on nodes no earlier round
    touched (one genuinely cold dispatch decision per round).  The
    timings — including each backend's honest ``precompute_seconds``
    and the CH acceptance ratios — land in ``BENCH_dispatch.fresh.json``
    next to the repository root (untracked) so the CI regression gate
    can compare them against the *committed* ``BENCH_dispatch.json``
    baseline, which stays immutable unless a maintainer deliberately
    replaces it.
    """
    graph = grid_city(rows=32, cols=32, seed=3, jitter=0.3).graph
    results = benchmark_dispatch_queries(
        graph=graph, num_sources=_DISPATCH_SOURCES, num_rounds=24
    )
    spatial = benchmark_spatial_index(grid_dim=32, num_workers=256, num_searches=50)
    print()
    print(format_dispatch_bench_table(results, spatial))
    trajectory = Path(__file__).parent.parent / "BENCH_dispatch.fresh.json"
    # The scenario block makes the artifact self-describing: which
    # graph, seed and backend set produced these numbers (same schema
    # as the CLI's `bench --dispatch --json` writer).
    scenario = bench_scenario_identity(
        graph,
        [result.backend for result in results],
        scenario="dispatch-bench",
        network="grid",
        grid_rows=32,
        grid_cols=32,
        seed=3,
    )
    write_dispatch_trajectory(
        trajectory,
        results,
        spatial,
        ch_cache=ch_cache_bench,
        csr_kernel=csr_kernel_bench,
        coarsen=coarsen_bench,
        scenario=scenario,
    )
    return {result.backend: result for result in results}


def test_many_to_one_dispatch_speedup(dispatch_bench):
    """Reverse-SSSP batching must beat per-source forward Dijkstra >=5x.

    The lazy backend answers the batch with a single reverse-graph
    Dijkstra instead of one forward Dijkstra per worker location.
    """
    lazy = dispatch_bench["lazy"]
    assert lazy.num_sources >= 32
    assert (
        lazy.batched_seconds * MANY_TO_ONE_ACCEPTANCE_SPEEDUP
        <= lazy.forward_seconds
    ), (
        f"lazy many-to-one batch answered in {lazy.batched_seconds:.4f}s, "
        f"needed <= 1/5 of the per-source path's {lazy.forward_seconds:.4f}s"
    )
    # One reverse run per round replaces num_sources forward runs.
    assert lazy.reverse_sssp_runs == lazy.num_rounds


def test_ch_cold_point_to_point_speedup(dispatch_bench):
    """CH point-to-point must beat lazy's cold Dijkstra queries >=3x.

    Every dispatch round touches fresh nodes, so the per-source path is
    a cold point-to-point measurement: one full Dijkstra per query for
    ``lazy``, one bidirectional upward search for ``ch``.  The measured
    ratio (and the preprocessing time it has to amortise) is recorded
    in ``BENCH_dispatch.fresh.json`` by the shared fixture.
    """
    lazy = dispatch_bench["lazy"]
    ch = dispatch_bench["ch"]
    assert (
        ch.forward_seconds * CH_COLD_P2P_ACCEPTANCE_SPEEDUP
        <= lazy.forward_seconds
    ), (
        f"ch answered 768 cold point-to-point queries in "
        f"{ch.forward_seconds:.4f}s, needed <= "
        f"1/{CH_COLD_P2P_ACCEPTANCE_SPEEDUP:.0f} of lazy's "
        f"{lazy.forward_seconds:.4f}s"
    )
    # Preprocessing happened and was recorded honestly (a CH build over
    # a 1024-node city cannot be free).
    assert ch.precompute_seconds > 0.0
    trajectory = json.loads(
        (Path(__file__).parent.parent / "BENCH_dispatch.fresh.json").read_text()
    )
    assert (
        trajectory["ch"]["cold_p2p_speedup_vs_lazy"]
        >= CH_COLD_P2P_ACCEPTANCE_SPEEDUP
    )
    assert trajectory["ch"]["precompute_seconds"] == ch.precompute_seconds
    assert all(
        "precompute_seconds" in backend for backend in trajectory["backends"]
    )


def test_ch_many_to_one_competitive(dispatch_bench):
    """CH's bucket/reverse-PHAST batch must stay with the best backend.

    The PR-2 backends (lazy/matrix) answer the 32-workers-one-pickup
    mix with one reverse Dijkstra; CH replaces that with a backward
    upward search plus a linear downward sweep.  It is measured fastest
    of the three at this scale — the bar is <=2x the best of the others so a noisy
    CI runner cannot flake the build.
    """
    ch = dispatch_bench["ch"]
    others = [
        result for name, result in dispatch_bench.items() if name != "ch"
    ]
    best = min(result.batched_seconds for result in others)
    assert ch.batched_seconds <= 2.0 * best, (
        f"ch many-to-one took {ch.batched_seconds:.4f}s, best other "
        f"backend {best:.4f}s"
    )


def test_ch_preprocessing_cache_warm_speedup(ch_cache_bench, dispatch_bench):
    """A warm oracle cache must stand the CH backend up >=5x faster.

    The warm build replays the persisted node order and shortcuts
    (linear in the augmented graph) instead of re-running the
    contraction pass with its witness searches — this is the measured
    close-out of the ROADMAP "persist the contraction order" item.  The
    ratio and the acceptance bar land in ``BENCH_dispatch.fresh.json``
    next to the other dispatch numbers.
    """
    assert ch_cache_bench.num_nodes >= 1024
    assert ch_cache_bench.loaded_from_cache, (
        "warm construction did not come from the disk cache"
    )
    assert (
        ch_cache_bench.warm_seconds * CH_CACHE_ACCEPTANCE_SPEEDUP
        <= ch_cache_bench.cold_seconds
    ), (
        f"warm CH construction took {ch_cache_bench.warm_seconds:.4f}s, "
        f"needed <= 1/{CH_CACHE_ACCEPTANCE_SPEEDUP:.0f} of the cold "
        f"contraction's {ch_cache_bench.cold_seconds:.4f}s"
    )
    trajectory = json.loads(
        (Path(__file__).parent.parent / "BENCH_dispatch.fresh.json").read_text()
    )
    recorded = trajectory["ch_cache"]
    assert recorded["speedup"] == pytest.approx(ch_cache_bench.speedup)
    block = trajectory["acceptance"]["ch_warm_construction_speedup"]
    assert block["threshold"] == CH_CACHE_ACCEPTANCE_SPEEDUP
    assert block["met"] and block["applicable"]
    # the artifact names the scenario that produced it
    assert trajectory["scenario"]["graph_hash"]
    assert trajectory["scenario"]["backends"]


def test_csr_kernel_sweep_speedup(csr_kernel_bench, dispatch_bench):
    """The csr reverse-PHAST sweep must beat the dict sweep >=3x.

    The timed unit is the downward sweep that turns one backward upward
    search into a full arrival representation — the stage the csr
    kernel vectorises, and the linear-time half of every wide
    many-to-one dispatch batch.  The shared fixture records the ratio
    (and the numpy-availability flag that decides whether the bar
    applies) in ``BENCH_dispatch.fresh.json``.
    """
    trajectory = json.loads(
        (Path(__file__).parent.parent / "BENCH_dispatch.fresh.json").read_text()
    )
    block = trajectory["acceptance"]["csr_many_to_one_speedup"]
    assert block["threshold"] == CSR_MANY_TO_ONE_ACCEPTANCE_SPEEDUP
    assert block["value"] == pytest.approx(csr_kernel_bench.speedup)
    assert block["applicable"] == csr_kernel_bench.applicable
    assert trajectory["csr_kernel"]["num_nodes"] >= 1024
    if not csr_kernel_bench.applicable:
        pytest.skip("numpy unavailable: csr kernel ran the dict path")
    assert csr_kernel_bench.speedup >= CSR_MANY_TO_ONE_ACCEPTANCE_SPEEDUP, (
        f"csr sweep answered 96 cold targets in "
        f"{csr_kernel_bench.csr_seconds:.4f}s, needed <= "
        f"1/{CSR_MANY_TO_ONE_ACCEPTANCE_SPEEDUP:.0f} of the dict sweep's "
        f"{csr_kernel_bench.dict_seconds:.4f}s "
        f"({csr_kernel_bench.speedup:.2f}x)"
    )


def test_coarsen_readiness(coarsen_bench, dispatch_bench):
    """Overlay readiness must beat direct CH contraction >=10x at scale.

    The shared fixture records the measurement (and whether the direct
    side actually ran) in ``BENCH_dispatch.fresh.json``; the asserted
    bar only applies when ``REPRO_BENCH_COARSEN_FULL=1`` measured the
    direct contraction — otherwise the committed baseline carries the
    full-shape numbers and this test checks the honesty invariants of
    the fresh record.
    """
    trajectory = json.loads(
        (Path(__file__).parent.parent / "BENCH_dispatch.fresh.json").read_text()
    )
    block = trajectory["acceptance"]["coarsen_readiness_speedup"]
    assert block["threshold"] == COARSEN_READINESS_ACCEPTANCE_SPEEDUP
    assert block["value"] == pytest.approx(coarsen_bench.speedup)
    assert block["applicable"] == coarsen_bench.applicable
    recorded = trajectory["coarsen"]
    # The coarsening genuinely compressed the graph, readiness cost was
    # recorded honestly, and the sampled overlay answers stayed within
    # the certified bound (the benchmark raises otherwise).
    assert 0 < recorded["coarse_nodes"] < recorded["num_nodes"]
    assert recorded["overlay_ready_seconds"] > 0.0
    assert recorded["max_relative_error"] <= recorded["error_bound"] + 1e-9
    if not coarsen_bench.applicable:
        pytest.skip(
            "direct full-graph contraction skipped "
            "(set REPRO_BENCH_COARSEN_FULL=1 to measure it)"
        )
    assert coarsen_bench.speedup >= COARSEN_READINESS_ACCEPTANCE_SPEEDUP, (
        f"overlay ready in {coarsen_bench.overlay_ready_seconds:.1f}s, "
        f"direct contraction {coarsen_bench.direct_ch_seconds:.1f}s "
        f"({coarsen_bench.speedup:.1f}x, needed "
        f">={COARSEN_READINESS_ACCEPTANCE_SPEEDUP:.0f}x)"
    )


def test_spatial_index_speeds_up_find_worker_for():
    """The ring-expanding search must beat the full-fleet scan.

    On a >=1k-node network with a large fleet the pruned search may
    examine only a fraction of the workers (deterministic) and must be
    measurably faster end-to-end (wall clock, generous 1.2x bar to stay
    robust on noisy CI runners).
    """
    spatial = benchmark_spatial_index(
        grid_dim=32, num_workers=256, num_searches=60, repeats=5
    )
    assert spatial.num_nodes >= 1000
    # Deterministic pruning: well under half the fleet examined.
    assert spatial.candidates_fraction < 0.5
    assert (
        spatial.indexed_seconds * SPATIAL_ACCEPTANCE_SPEEDUP
        <= spatial.scan_seconds
    ), (
        f"ring search took {spatial.indexed_seconds:.4f}s, "
        f"scan {spatial.scan_seconds:.4f}s"
    )
    # The mix a real run is made of — half the fleet booked, deadlines
    # most searches cannot meet — is cross-checked and must win too.
    assert spatial.busy_found < 60 // 2
    assert (
        spatial.busy_indexed_seconds * SPATIAL_ACCEPTANCE_SPEEDUP
        <= spatial.busy_scan_seconds
    ), (
        f"busy phase: ring search took {spatial.busy_indexed_seconds:.4f}s, "
        f"scan {spatial.busy_scan_seconds:.4f}s"
    )


def test_oracle_query_benchmark(benchmark):
    """pytest-benchmark regression tracking of the matrix query path."""
    config = bench_config("CDC")
    results = benchmark.pedantic(
        lambda: benchmark_oracles(
            "CDC", config, backends=("matrix",), num_queries=_NUM_QUERIES
        ),
        rounds=1,
        iterations=1,
    )
    assert results[0].num_queries == _NUM_QUERIES
