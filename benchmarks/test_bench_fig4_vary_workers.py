"""Figure 4 — performance while varying the number of workers ``m``.

The paper sweeps m over {3K, 4K, 5K, 6K}; the reproduction keeps the
same 3:4:5:6 ratio at a scaled-down magnitude and reports the same four
metrics for all compared algorithms.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.reporting import format_full_sweep_report, series
from repro.experiments.sweeps import run_sweep

from .conftest import BENCH_ALGORITHMS, bench_spec

_WORKER_COUNTS = (12, 16, 20, 24)


@pytest.mark.parametrize("dataset", ("CDC", "NYC", "XIA"))
def test_fig4_vary_workers_series(dataset, benchmark):
    """Regenerate the Figure 4 panels for one dataset."""
    base = bench_spec(dataset, num_orders=100, num_workers=20)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "num_workers", base, values=_WORKER_COUNTS, algorithms=BENCH_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"=== Figure 4 ({dataset}): varying the number of workers ===")
    print(format_full_sweep_report(points))
    assert [point.value for point in points] == [float(m) for m in _WORKER_COUNTS]
    # Shape check mirroring the paper: more workers never hurt the
    # service rate of the pooling framework (within a small tolerance).
    for algorithm in ("WATTER-expect", "WATTER-online"):
        rates = series(points, algorithm, "service_rate")
        assert rates[-1] >= rates[0] - 0.05


def test_fig4_default_cell_benchmark(benchmark):
    """Time the default-m cell for regression tracking."""
    spec = bench_spec("CDC", num_orders=60, num_workers=20, horizon=1200.0)

    def run():
        return Session().compare(
            spec, algorithms=("WATTER-timeout", "GAS", "NonSharing")
        )

    runs = benchmark(run)
    assert len(runs) == 3
