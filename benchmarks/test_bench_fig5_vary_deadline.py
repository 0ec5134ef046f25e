"""Figure 5 — performance while varying the deadline scale ``tau``.

The paper sweeps tau over {1.2, 1.4, 1.6, 1.8}: with small deadlines the
WATTER variants have little room to wait and behave like the baselines;
as tau grows, waiting pays off and WATTER-expect pulls ahead.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.reporting import format_full_sweep_report, series
from repro.experiments.sweeps import run_sweep

from .conftest import BENCH_ALGORITHMS, bench_spec

_DEADLINES = (1.2, 1.4, 1.6, 1.8)


@pytest.mark.parametrize("dataset", ("CDC", "NYC", "XIA"))
def test_fig5_deadline_series(dataset, benchmark):
    """Regenerate the Figure 5 panels for one dataset."""
    base = bench_spec(dataset, num_orders=100, num_workers=20)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "deadline_scale", base, values=_DEADLINES, algorithms=BENCH_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"=== Figure 5 ({dataset}): varying the deadline scale tau ===")
    print(format_full_sweep_report(points))
    assert [point.value for point in points] == [float(value) for value in _DEADLINES]
    # Shape check mirroring the paper: looser deadlines never hurt the
    # service rate of the pooling framework (within a small tolerance).
    rates = series(points, "WATTER-expect", "service_rate")
    assert rates[-1] >= rates[0] - 0.05


def test_fig5_default_cell_benchmark(benchmark):
    """Time the default-tau cell for regression tracking."""
    spec = bench_spec(
        "CDC", num_orders=60, num_workers=14, horizon=1200.0, deadline_scale=1.6
    )

    def run():
        return Session().compare(
            spec, algorithms=("WATTER-online", "WATTER-timeout")
        )

    runs = benchmark(run)
    assert len(runs) == 2
