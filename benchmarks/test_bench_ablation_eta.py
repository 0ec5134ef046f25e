"""Appendix F ablation — sensitivity to the watch-window scale ``eta``.

The watch window bounds how long an order may wait for a partner; the
paper chose eta = 0.8.  The ablation sweeps eta over {0.4 .. 1.0} for
the WATTER variants and reports extra time and service rate.
"""

from __future__ import annotations

from repro.api import Session
from repro.experiments.reporting import format_sweep_table, series
from repro.experiments.sweeps import run_sweep

from .conftest import WATTER_ALGORITHMS, bench_spec

_ETAS = (0.4, 0.6, 0.8, 1.0)


def test_ablation_watch_window_series(benchmark):
    """Regenerate the watch-window ablation on the CDC-like workload."""
    base = bench_spec("CDC", num_orders=80, num_workers=16)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "watch_window_scale", base, values=_ETAS, algorithms=WATTER_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("=== Appendix F: watch-window (eta) ablation (CDC) ===")
    print(format_sweep_table(points, "total_extra_time"))
    print()
    print(format_sweep_table(points, "service_rate"))
    assert [point.value for point in points] == [float(eta) for eta in _ETAS]
    for algorithm in WATTER_ALGORITHMS:
        assert len(series(points, algorithm, "total_extra_time")) == len(_ETAS)


def test_ablation_watch_window_benchmark(benchmark):
    """Time one WATTER-timeout run at the default eta."""
    spec = bench_spec("CDC", num_orders=60, num_workers=14, watch_window_scale=0.8)

    def run():
        return Session().compare(spec, algorithms=("WATTER-timeout",))

    runs = benchmark(run)
    assert runs[0].metrics.algorithm == "WATTER-timeout"
