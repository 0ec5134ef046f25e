"""Appendix G ablation — sensitivity to the decision time slot ``delta_t``.

A larger time slot means fewer, cheaper pool checks but coarser hold /
dispatch decisions.  The paper chose delta_t = 10 seconds.
"""

from __future__ import annotations

from repro.api import Session
from repro.experiments.reporting import format_sweep_table, series
from repro.experiments.sweeps import run_sweep

from .conftest import WATTER_ALGORITHMS, bench_spec

_SLOTS = (5.0, 10.0, 20.0, 30.0)


def test_ablation_time_slot_series(benchmark):
    """Regenerate the time-slot ablation on the CDC-like workload."""
    base = bench_spec("CDC", num_orders=80, num_workers=16)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "time_slot", base, values=_SLOTS, algorithms=WATTER_ALGORITHMS
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("=== Appendix G: decision time-slot (delta_t) ablation (CDC) ===")
    print(format_sweep_table(points, "total_extra_time"))
    print()
    print(format_sweep_table(points, "running_time_per_order"))
    assert [point.value for point in points] == [float(slot) for slot in _SLOTS]
    # Fewer checks -> lower running time per order for the pool-based methods.
    for algorithm in ("WATTER-online", "WATTER-timeout"):
        times = series(points, algorithm, "running_time_per_order")
        assert times[-1] <= times[0] * 1.5


def test_ablation_time_slot_benchmark(benchmark):
    """Time one WATTER-online run at the default delta_t."""
    spec = bench_spec("CDC", num_orders=60, num_workers=14, time_slot=10.0)

    def run():
        return Session().compare(spec, algorithms=("WATTER-online",))

    runs = benchmark(run)
    assert runs[0].metrics.algorithm == "WATTER-online"
