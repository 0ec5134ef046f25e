"""Ablation studies corresponding to the paper's appendix experiments.

The main text points to appendix sections for the sensitivity of WATTER
to the grid-index size (Appendix D), the watch window ``eta``
(Appendix F), the decision time slot ``delta_t`` (Appendix G) and the
reinforcement-learning loss weight ``omega`` (Appendix C/E).  These
functions run the corresponding sweeps for the WATTER variants so the
design choices called out in DESIGN.md can be re-validated.
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
from .runner import ExperimentRun, _simulate, run_comparison
from .sweeps import SweepResult

_WATTER_VARIANTS = ("WATTER-expect", "WATTER-online", "WATTER-timeout")


def vary_grid_size(
    dataset: str = "CDC",
    grid_sizes: Sequence[int] = PARAMETER_GRID["grid_sizes"],
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = _WATTER_VARIANTS,
) -> SweepResult:
    """Appendix D: sensitivity of the WATTER variants to the grid-index size."""
    base = base_config or default_config(dataset)
    result = SweepResult(parameter="grid_size", dataset=dataset)
    for size in grid_sizes:
        config = base.with_overrides(grid_size=int(size))
        for metrics in run_comparison(dataset, config, algorithms):
            result.runs.append(
                ExperimentRun(
                    algorithm=metrics.algorithm,
                    dataset=dataset,
                    parameter="grid_size",
                    value=float(size),
                    metrics=metrics,
                )
            )
    return result


def vary_watch_window(
    dataset: str = "CDC",
    watch_windows: Sequence[float] = PARAMETER_GRID["watch_windows"],
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = _WATTER_VARIANTS,
) -> SweepResult:
    """Appendix F: sensitivity to the watch-window scale ``eta``."""
    base = base_config or default_config(dataset)
    result = SweepResult(parameter="watch_window_scale", dataset=dataset)
    for eta in watch_windows:
        config = base.with_overrides(watch_window_scale=float(eta))
        for metrics in run_comparison(dataset, config, algorithms):
            result.runs.append(
                ExperimentRun(
                    algorithm=metrics.algorithm,
                    dataset=dataset,
                    parameter="watch_window_scale",
                    value=float(eta),
                    metrics=metrics,
                )
            )
    return result


def vary_time_slot(
    dataset: str = "CDC",
    time_slots: Sequence[float] = PARAMETER_GRID["time_slots"],
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = _WATTER_VARIANTS,
) -> SweepResult:
    """Appendix G: sensitivity to the decision time slot ``delta_t``.

    The check period follows the time slot, so a larger ``delta_t``
    means fewer (cheaper) pool checks but coarser decisions.
    """
    base = base_config or default_config(dataset)
    result = SweepResult(parameter="time_slot", dataset=dataset)
    for slot in time_slots:
        config = base.with_overrides(time_slot=float(slot), check_period=float(slot))
        for metrics in run_comparison(dataset, config, algorithms):
            result.runs.append(
                ExperimentRun(
                    algorithm=metrics.algorithm,
                    dataset=dataset,
                    parameter="time_slot",
                    value=float(slot),
                    metrics=metrics,
                )
            )
    return result


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
