"""Appendix C/E ablation — the TD / target loss weight ``omega``.

The value network is trained with ``omega * loss_td + (1-omega) *
loss_tg``.  The ablation sweeps the ``loss_weight`` axis: every omega
bootstraps WATTER-expect the way every other run does (a WATTER-timeout
run on a separate training workload, the GMM fit, then the value network
trained with that omega) and evaluates it on the scenario's own
workload, reporting the online extra time and service rate per omega.
"""

from __future__ import annotations

from repro.api import Session
from repro.experiments.reporting import format_sweep_table, series
from repro.experiments.sweeps import run_sweep

from .conftest import bench_spec

_OMEGAS = (0.0, 0.5, 1.0)


def test_ablation_loss_weight_series(benchmark):
    """Regenerate the loss-weight ablation (reduced workload, three omegas)."""
    base = bench_spec("CDC", num_orders=60, num_workers=14, horizon=1200.0)
    points = benchmark.pedantic(
        lambda: run_sweep(
            "loss_weight", base, values=_OMEGAS, algorithms=("WATTER-expect",)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("=== Appendix C/E: loss-weight (omega) ablation (CDC) ===")
    print(format_sweep_table(points, "total_extra_time"))
    print()
    print(format_sweep_table(points, "service_rate"))
    assert [point.value for point in points] == list(_OMEGAS)
    for value in series(points, "WATTER-expect", "service_rate"):
        assert 0.0 <= value <= 1.0


def test_ablation_loss_weight_benchmark(benchmark):
    """Time the bootstrap, training and evaluation for a single omega."""
    spec = bench_spec(
        "CDC",
        num_orders=40,
        num_workers=10,
        horizon=900.0,
        algorithm="WATTER-expect",
        use_rl=True,
        loss_weight=0.5,
    )

    def run():
        return Session().run(spec)

    result = benchmark(run)
    assert result.spec.loss_weight == 0.5
