"""Figure 3 — performance while varying the number of riders ``n``.

The paper sweeps n over {0.50, 0.75, 1.00, 1.25} x the dataset default
and reports Extra Time, Unified Cost, Service Rate and Running Time for
WATTER-expect / WATTER-online / WATTER-timeout / GDP / GAS on NYC, CDC
and XIA.  This benchmark regenerates the same series (scaled workloads,
see EXPERIMENTS.md) and prints them as text tables; pytest-benchmark
times one representative cell so algorithmic slow-downs are caught.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.reporting import format_full_sweep_report, series
from repro.experiments.sweeps import run_sweep

from .conftest import BENCH_ALGORITHMS, bench_spec

_FRACTIONS = (0.50, 0.75, 1.00, 1.25)


@pytest.mark.parametrize("dataset", ("CDC", "NYC", "XIA"))
def test_fig3_vary_orders_series(dataset, benchmark):
    """Regenerate the Figure 3 panels for one dataset."""
    base = bench_spec(dataset, num_orders=100, num_workers=20)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "num_orders", base, values=_FRACTIONS, algorithms=BENCH_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"=== Figure 3 ({dataset}): varying the number of orders ===")
    print(format_full_sweep_report(points))
    # Structural checks: every cell of the figure is present.
    assert [point.value for point in points] == [float(f) for f in _FRACTIONS]
    assert {run.algorithm for run in points[0].results} == set(BENCH_ALGORITHMS)
    for algorithm in BENCH_ALGORITHMS:
        assert len(series(points, algorithm, "total_extra_time")) == len(_FRACTIONS)
    # Shape check mirroring the paper: the pooling framework serves at
    # least as many orders as the non-sharing floor at the default point.
    expect_rate = series(points, "WATTER-expect", "service_rate")[2]
    floor_rate = series(points, "NonSharing", "service_rate")[2]
    assert expect_rate >= floor_rate - 0.05


def test_fig3_default_cell_benchmark(benchmark):
    """Time the default-n cell (all algorithms, CDC) for regression tracking."""
    spec = bench_spec("CDC", num_orders=60, num_workers=14, horizon=1200.0)

    def run():
        return Session().compare(
            spec, algorithms=("WATTER-online", "GDP", "NonSharing")
        )

    runs = benchmark(run)
    assert len(runs) == 3
