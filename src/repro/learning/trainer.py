"""Offline experience generation and value-function training (Section VI-B).

The paper's off-policy training pipeline is:

1. run the dispatch process on historical data using the threshold-based
   grouping strategy (seeded with the distribution-fitted thresholds of
   Section V) and record, for every order agent and every decision slot,
   the transition (state, action, reward, next state),
2. store the transitions in the replay memory,
3. train the value network on sampled batches with the combined
   TD + target loss, periodically syncing the target network.

``generate_experience`` implements step 1 by replaying a workload
through a fully instrumented :class:`WatterDispatcher`;
``ValueFunctionTrainer`` wraps steps 2-3 and produces the
:class:`ValueThresholdProvider` used online by WATTER-expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import LearningConfig, SimulationConfig
from ..core.state import StateEncoder
from ..core.strategies import ThresholdProvider
from ..core.watter import WatterDispatcher
from ..exceptions import LearningError
from ..network.grid import GridIndex
from ..routing.planner import RoutePlanner
from ..simulation.fleet import WorkerFleet
from .replay import ReplayMemory, Transition
from .value_function import ValueNetwork, ValueThresholdProvider

if TYPE_CHECKING:  # pragma: no cover
    from ..datasets.synthetic import Workload


@dataclass
class TrainingReport:
    """Diagnostics of one training run."""

    losses: list[float] = field(default_factory=list)
    transitions: int = 0
    epochs: int = 0

    @property
    def final_loss(self) -> float:
        """Loss of the last training step (``nan`` if never trained)."""
        return self.losses[-1] if self.losses else float("nan")

    @property
    def mean_loss(self) -> float:
        """Mean loss across all training steps."""
        return float(np.mean(self.losses)) if self.losses else float("nan")


def generate_experience(
    workload: "Workload",
    config: SimulationConfig,
    encoder: StateEncoder,
    provider: ThresholdProvider,
    target_thresholds: dict[int, float] | None = None,
) -> list[Transition]:
    """Simulate the dispatch process and record per-agent transitions.

    Each periodic check is one decision slot.  An order that stays in
    the pool across a check contributes a *wait* transition with reward
    ``-delta_t``; an order dispatched at a check contributes a terminal
    *dispatch* transition with reward ``p - t_d``; an order rejected at
    a check contributes a terminal transition with reward 0 (the expiry
    case of the Bellman update).

    Parameters
    ----------
    workload:
        Historical orders/workers to replay.
    config:
        Simulation parameters (check period doubles as ``delta_t``).
    encoder:
        State featuriser (must match the online encoder).
    provider:
        Threshold provider steering the behaviour policy (usually the
        distribution-fitted :class:`~repro.core.threshold.ThresholdOptimizer`).
    target_thresholds:
        Optional per-order optimal thresholds ``theta*`` recorded into
        the transitions for the target loss.
    """
    planner = RoutePlanner(workload.network)
    fleet = WorkerFleet(
        [_clone_worker(worker) for worker in workload.workers],
        workload.network,
        GridIndex(workload.network, size=config.grid_size),
    )
    dispatcher = WatterDispatcher.expect(planner, fleet, config, provider)
    transitions: list[Transition] = []
    pending_states: dict[int, np.ndarray] = {}
    orders_by_id = {order.order_id: order for order in workload.orders}

    def snapshot_states(now: float) -> dict[int, np.ndarray]:
        waiting = list(dispatcher.pool.pending_orders())
        pickups = [order.pickup for order in waiting]
        dropoffs = [order.dropoff for order in waiting]
        idle = fleet.idle_locations(now)
        return {
            order.order_id: encoder.encode(order, now, pickups, dropoffs, idle).vector
            for order in waiting
        }

    def flush_decisions(result, now: float) -> None:
        next_states = snapshot_states(now)
        served_ids = {record.order.order_id for record in result.served}
        rejected_ids = {order.order_id for order in result.rejected}
        for order_id, state in pending_states.items():
            order = orders_by_id[order_id]
            target = (target_thresholds or {}).get(order_id)
            if order_id in served_ids:
                record = next(
                    rec for rec in result.served if rec.order.order_id == order_id
                )
                reward = order.penalty - record.detour_time
                transitions.append(
                    Transition(state, 1, reward, None, True, order.penalty, target)
                )
            elif order_id in rejected_ids:
                transitions.append(
                    Transition(state, 0, 0.0, None, True, order.penalty, target)
                )
            elif order_id in next_states:
                transitions.append(
                    Transition(
                        state,
                        0,
                        -config.time_slot,
                        next_states[order_id],
                        False,
                        order.penalty,
                        target,
                    )
                )
        pending_states.clear()
        pending_states.update(next_states)

    check_period = config.check_period
    next_check = check_period
    for order in workload.orders:
        release = order.release_time
        while next_check <= release:
            result = dispatcher.tick(next_check)
            flush_decisions(result, next_check)
            next_check += check_period
        dispatcher.submit(order, release)
        pending_states.update(snapshot_states(release))
    horizon_end = max(
        config.horizon,
        (workload.orders[-1].release_time if workload.orders else 0.0)
        + max((o.max_response_time for o in workload.orders), default=0.0),
    )
    while next_check <= horizon_end:
        result = dispatcher.tick(next_check)
        flush_decisions(result, next_check)
        next_check += check_period
    final = dispatcher.flush(horizon_end)
    flush_decisions(final, horizon_end)
    return transitions


class ValueFunctionTrainer:
    """Trains a :class:`ValueNetwork` from recorded transitions."""

    def __init__(self, encoder: StateEncoder, config: LearningConfig) -> None:
        self._encoder = encoder
        self._config = config
        self._network = ValueNetwork(encoder.dimension, config)
        self._memory = ReplayMemory(config.replay_capacity, seed=config.seed)

    @property
    def network(self) -> ValueNetwork:
        """The network being trained."""
        return self._network

    @property
    def memory(self) -> ReplayMemory:
        """The replay memory feeding the training batches."""
        return self._memory

    def add_experience(self, transitions: list[Transition]) -> None:
        """Push recorded transitions into the replay memory."""
        self._memory.extend(transitions)

    def train(self) -> TrainingReport:
        """Run the configured number of epochs over the replay memory."""
        if len(self._memory) == 0:
            raise LearningError("no experience collected; call add_experience first")
        report = TrainingReport(transitions=len(self._memory), epochs=self._config.epochs)
        steps_per_epoch = max(len(self._memory) // self._config.batch_size, 1)
        for _ in range(self._config.epochs):
            for _ in range(steps_per_epoch):
                batch = self._memory.sample(self._config.batch_size)
                loss = self._network.train_on_batch(batch)
                report.losses.append(loss)
        self._network.sync_target()
        return report

    def build_provider(self, fallback: float = 0.0) -> ValueThresholdProvider:
        """Wrap the trained network as an online threshold provider."""
        return ValueThresholdProvider(self._network, self._encoder, fallback=fallback)


def _clone_worker(worker):
    """Copy a worker so experience generation does not mutate the workload."""
    from ..model.worker import Worker

    return Worker(
        location=worker.location,
        capacity=worker.capacity,
        worker_id=worker.worker_id,
    )
