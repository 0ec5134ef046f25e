"""Appendix C/E ablation — the TD / target loss weight ``omega``.

The value network is trained with ``omega * loss_td + (1-omega) *
loss_tg``.  The ablation retrains the network on the same recorded
experience for several omegas and evaluates the resulting WATTER-expect
run, reporting the training loss and the online extra time per omega.
"""

from __future__ import annotations

from repro.config import LearningConfig
from repro.experiments.ablations import vary_loss_weight

from .conftest import bench_spec

_OMEGAS = (0.0, 0.5, 1.0)


def test_ablation_loss_weight_series(benchmark):
    """Regenerate the loss-weight ablation (reduced workload, three omegas)."""
    base = bench_spec("CDC", num_orders=60, num_workers=14, horizon=1200.0).config()
    learning = LearningConfig(epochs=2, hidden_sizes=(32,), batch_size=32)
    ablation = benchmark.pedantic(
        lambda: vary_loss_weight(
            "CDC", loss_weights=_OMEGAS, base_config=base, learning_config=learning
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("=== Appendix C/E: loss-weight (omega) ablation (CDC) ===")
    header = f"{'omega':>6}  {'train loss':>12}  {'extra time':>12}  {'service rate':>12}"
    print(header)
    print("-" * len(header))
    for row in ablation.rows:
        print(
            f"{row['omega']:>6.2f}  {row['training_loss']:>12.1f}  "
            f"{row['extra_time']:>12.1f}  {row['service_rate']:>12.3f}"
        )
    assert ablation.omegas() == [float(omega) for omega in _OMEGAS]
    for row in ablation.rows:
        assert row["transitions"] > 0
        assert 0.0 <= row["service_rate"] <= 1.0


def test_ablation_loss_weight_benchmark(benchmark):
    """Time the training + evaluation pipeline for a single omega."""
    base = bench_spec("CDC", num_orders=40, num_workers=10, horizon=900.0).config()
    learning = LearningConfig(epochs=1, hidden_sizes=(16,), batch_size=32)

    def run():
        return vary_loss_weight(
            "CDC", loss_weights=(0.5,), base_config=base, learning_config=learning
        )

    ablation = benchmark(run)
    assert len(ablation.rows) == 1
