"""The reinforcement-learning loss-weight ablation (Appendix C/E).

The other appendix ablations (grid-index size, watch window ``eta``,
time slot ``delta_t``) are scenario sweeps and live in the axis table
of :mod:`repro.experiments.sweeps`.  This one is a training diagnostic:
it retrains the value network on one recorded experience set per loss
weight ``omega`` and evaluates each resulting WATTER-expect run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..config import LearningConfig, SimulationConfig
from ..core.state import StateEncoder
from ..core.threshold import ThresholdOptimizer, fit_extra_time_distribution
from ..datasets.workloads import build_workload
from ..learning.trainer import ValueFunctionTrainer, generate_experience
from ..network.grid import GridIndex
from .config import PARAMETER_GRID, default_config
from .runner import _simulate


@dataclass
class LossWeightAblation:
    """Training diagnostics per loss-weight value (Appendix C/E)."""

    dataset: str
    rows: list[dict] = field(default_factory=list)

    def omegas(self) -> list[float]:
        """The loss-weight values covered."""
        return [row["omega"] for row in self.rows]


def vary_loss_weight(
    dataset: str = "CDC",
    loss_weights: Sequence[float] = PARAMETER_GRID["loss_weights"],
    base_config: SimulationConfig | None = None,
    learning_config: LearningConfig | None = None,
) -> LossWeightAblation:
    """Appendix C/E: effect of the TD / target loss mix ``omega``.

    For each ``omega`` the value network is trained on the same recorded
    experience and the resulting WATTER-expect run is evaluated, so the
    rows show both the training loss and the online extra time obtained.
    """
    base = base_config or default_config(dataset)
    base = base.with_overrides(num_orders=max(base.num_orders // 2, 50))
    learning = learning_config or LearningConfig(epochs=3)
    workload = build_workload(dataset, base)

    bootstrap = _simulate("WATTER-online", workload, base)
    extra_times = [
        outcome.extra_time
        for outcome in bootstrap.collector.outcomes
        if outcome.served and outcome.extra_time > 0
    ] or [order.penalty * 0.5 for order in workload.orders]
    mixture = fit_extra_time_distribution(extra_times, seed=base.seed)
    optimizer = ThresholdOptimizer(mixture)
    encoder = StateEncoder(
        GridIndex(workload.network, size=base.grid_size),
        time_slot=base.time_slot,
        horizon=base.horizon,
    )
    targets = optimizer.optimal_thresholds(workload.orders)
    transitions = generate_experience(workload, base, encoder, optimizer, targets)

    ablation = LossWeightAblation(dataset=dataset)
    for omega in loss_weights:
        config = LearningConfig(
            hidden_sizes=learning.hidden_sizes,
            learning_rate=learning.learning_rate,
            discount=learning.discount,
            batch_size=learning.batch_size,
            replay_capacity=learning.replay_capacity,
            target_sync_period=learning.target_sync_period,
            epochs=learning.epochs,
            loss_weight=float(omega),
            seed=learning.seed,
        )
        trainer = ValueFunctionTrainer(encoder, config)
        trainer.add_experience(transitions)
        report = trainer.train()
        provider = trainer.build_provider()
        result = _simulate("WATTER-expect", workload, base, provider)
        ablation.rows.append(
            {
                "omega": float(omega),
                "training_loss": report.mean_loss,
                "transitions": report.transitions,
                "extra_time": result.metrics.total_extra_time,
                "service_rate": result.metrics.service_rate,
            }
        )
    return ablation
