"""Appendix D ablation — sensitivity to the grid-index size.

The paper tested several grid resolutions and chose 10x10.  The ablation
reruns the WATTER variants with grids of 5..20 cells per side and prints
extra time and running time per grid size.
"""

from __future__ import annotations

from repro.api import Session
from repro.experiments.reporting import format_sweep_table, series
from repro.experiments.sweeps import run_sweep

from .conftest import WATTER_ALGORITHMS, bench_spec

_GRID_SIZES = (5, 10, 15, 20)


def test_ablation_grid_size_series(benchmark):
    """Regenerate the grid-size ablation on the CDC-like workload."""
    base = bench_spec("CDC", num_orders=80, num_workers=16)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "grid_size", base, values=_GRID_SIZES, algorithms=WATTER_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("=== Appendix D: grid-index size ablation (CDC) ===")
    print(format_sweep_table(points, "total_extra_time"))
    print()
    print(format_sweep_table(points, "running_time_per_order"))
    assert [point.value for point in points] == [float(size) for size in _GRID_SIZES]
    # The grid size is an indexing choice: the solution quality must be
    # essentially insensitive to it (paper: "tested the performance impact
    # of different grid size and choose 10x10").
    for algorithm in WATTER_ALGORITHMS:
        rates = series(points, algorithm, "service_rate")
        assert max(rates) - min(rates) <= 0.25


def test_ablation_grid_size_benchmark(benchmark):
    """Time one WATTER-online run at the default grid size."""
    spec = bench_spec("CDC", num_orders=60, num_workers=14, grid_size=10)

    def run():
        return Session().compare(spec, algorithms=("WATTER-online",))

    runs = benchmark(run)
    assert runs[0].metrics.algorithm == "WATTER-online"
