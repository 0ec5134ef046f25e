"""Table III — the default experimental setting.

Runs the full algorithm comparison once per dataset at the (scaled)
Table III defaults and prints the headline comparison table, i.e. the
numbers quoted in the running text of Section VII-B ("when n = 50k,
WATTER-expect achieved ... lower extra time compared to ...").
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import format_comparison_table
from repro.experiments.runner import run_comparison

from .conftest import BENCH_ALGORITHMS, bench_config


@pytest.mark.parametrize("dataset", ("CDC", "NYC", "XIA"))
def test_table3_default_setting(dataset, benchmark):
    """Run every compared algorithm at the dataset's default parameters."""
    config = bench_config(dataset, num_orders=120, num_workers=24)
    metrics = benchmark.pedantic(
        lambda: run_comparison(dataset, config, algorithms=BENCH_ALGORITHMS),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_comparison_table(metrics, title=f"Table III defaults ({dataset})"))
    by_name = {m.algorithm: m for m in metrics}
    assert set(by_name) == set(BENCH_ALGORITHMS)
    # Headline shape checks: the pooling framework must not lose to the
    # non-sharing floor on the platform-level metrics.
    assert (
        by_name["WATTER-expect"].unified_cost
        <= by_name["NonSharing"].unified_cost * 1.05
    )
    assert (
        by_name["WATTER-expect"].service_rate
        >= by_name["NonSharing"].service_rate - 0.05
    )
    # GDP answers immediately, so it must be the fastest per-order algorithm
    # among the group-forming methods (running-time shape of the paper).
    assert (
        by_name["GDP"].running_time_per_order
        <= by_name["WATTER-expect"].running_time_per_order
    )


def test_table3_single_run_benchmark(benchmark):
    """Time a single WATTER-expect run at a reduced default setting."""
    config = bench_config("CDC", num_orders=60, num_workers=14, horizon=1200.0)

    def run():
        return run_comparison("CDC", config, algorithms=("WATTER-expect",))

    metrics = benchmark(run)
    assert metrics[0].algorithm == "WATTER-expect"
