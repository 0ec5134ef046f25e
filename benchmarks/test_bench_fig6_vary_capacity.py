"""Figure 6 — performance while varying the maximum vehicle capacity ``Kw``.

The paper sweeps Kw over {2, 3, 4, 5}.  Larger capacities allow larger
order groups, which mostly benefits the pooling framework (WATTER) and
the batch-based baseline, while GDP's greedy insertion sees little gain.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.reporting import format_full_sweep_report, series
from repro.experiments.sweeps import run_sweep

from .conftest import BENCH_ALGORITHMS, bench_spec

_CAPACITIES = (2, 3, 4, 5)


@pytest.mark.parametrize("dataset", ("CDC",))
def test_fig6_capacity_series(dataset, benchmark):
    """Regenerate the Figure 6 panels (CDC shown; other datasets behave alike)."""
    base = bench_spec(dataset, num_orders=100, num_workers=20)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "max_capacity", base, values=_CAPACITIES, algorithms=BENCH_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"=== Figure 6 ({dataset}): varying the vehicle capacity Kw ===")
    print(format_full_sweep_report(points))
    assert [point.value for point in points] == [float(value) for value in _CAPACITIES]
    for algorithm in BENCH_ALGORITHMS:
        assert len(series(points, algorithm, "unified_cost")) == len(_CAPACITIES)


def test_fig6_default_cell_benchmark(benchmark):
    """Time the default-capacity cell for regression tracking."""
    spec = bench_spec(
        "CDC", num_orders=60, num_workers=14, horizon=1200.0, max_capacity=4
    )

    def run():
        return Session().compare(spec, algorithms=("WATTER-online", "GAS"))

    runs = benchmark(run)
    assert len(runs) == 2
