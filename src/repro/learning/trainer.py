"""Offline experience generation and value-function training (Section VI-B).

The paper's off-policy training pipeline is:

1. run the dispatch process on historical data using the threshold-based
   grouping strategy (seeded with the distribution-fitted thresholds of
   Section V) and record, for every order agent and every decision slot,
   the transition (state, action, reward, next state),
2. store the transitions in the replay memory,
3. train the value network on sampled batches with the combined
   TD + target loss, periodically syncing the target network.

``generate_experience`` implements step 1: one
:class:`~repro.simulation.engine.Simulator` run of a WATTER-expect
:class:`WatterDispatcher` over a clone of the workload's fleet, watched
by a private :class:`~repro.simulation.hooks.SimulationHooks` observer
that snapshots the pool at every arrival and check, so the transitions
come from the same event loop as every evaluated run.
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
from ..routing.planner import RoutePlanner
from ..simulation.engine import Simulator
from ..simulation.fleet import WorkerFleet
from ..simulation.hooks import SimulationHooks
from .replay import ReplayMemory, Transition
from .value_function import ValueNetwork, ValueThresholdProvider

if TYPE_CHECKING:  # pragma: no cover
    from ..datasets.synthetic import Workload
    from ..model.order import Order
    from ..simulation.dispatcher import ServedOrder


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
    fleet = WorkerFleet(
        [worker.clone() for worker in workload.workers],
        workload.network,
        config.grid_size,
    )
    dispatcher = WatterDispatcher.expect(
        RoutePlanner(workload.network), fleet, config, provider
    )
    recorder = _ExperienceRecorder(
        dispatcher, encoder, config.time_slot, target_thresholds or {}
    )
    Simulator(workload, dispatcher, config, hooks=recorder).run()
    recorder.finish()
    return recorder.transitions


class _ExperienceRecorder(SimulationHooks):
    """Records the transitions of one engine run, one slot per check.

    The engine fires ``on_periodic_check`` before that check's
    ``on_assign`` calls, so a check's slot stays open until the next
    engine event (or the end of the run) has shown who it served.
    """

    def __init__(
        self,
        dispatcher: WatterDispatcher,
        encoder: StateEncoder,
        time_slot: float,
        targets: dict[int, float],
    ) -> None:
        self.transitions: list[Transition] = []
        self._dispatcher = dispatcher
        self._encoder = encoder
        self._time_slot = time_slot
        self._targets = targets
        self._orders: dict[int, "Order"] = {}
        # order id -> its state at the latest snapshot (arrival or check)
        self._pending: dict[int, np.ndarray] = {}
        # pool states at the open check; ``None`` while no slot is open
        self._next: dict[int, np.ndarray] | None = None
        self._served: dict[int, "ServedOrder"] = {}

    def on_order_arrival(self, order: "Order", now: float) -> None:
        self._close_slot()
        self._orders[order.order_id] = order
        # Fired before submit: the pool plus the arriving order is the
        # pool the submit leaves behind.
        waiting = [*self._dispatcher.pool.pending_orders(), order]
        self._pending.update(self._snapshot(waiting, now))

    def on_periodic_check(self, now: float) -> None:
        self._close_slot()
        self._next = self._snapshot(list(self._dispatcher.pool.pending_orders()), now)

    def on_assign(self, served: "ServedOrder") -> None:
        self._served[served.order.order_id] = served

    def finish(self) -> None:
        """Close the last check's slot, then the end-of-run slot, in which
        every order still waiting was rejected by the final flush."""
        self._close_slot()
        self._next = {}
        self._close_slot()

    def _snapshot(self, waiting: list["Order"], now: float) -> dict[int, np.ndarray]:
        pickups = [order.pickup for order in waiting]
        dropoffs = [order.dropoff for order in waiting]
        # This releases the workers due by ``now``, as the next tick
        # would first thing; a WATTER submit never reads the fleet.
        idle = self._dispatcher.fleet.idle_locations(now)
        return {
            order.order_id: self._encoder.encode(
                order, now, pickups, dropoffs, idle
            ).vector
            for order in waiting
        }

    def _close_slot(self) -> None:
        next_states = self._next
        if next_states is None:
            return
        for order_id, state in self._pending.items():
            penalty = self._orders[order_id].penalty
            target = self._targets.get(order_id)
            served = self._served.get(order_id)
            if served is not None:
                reward = penalty - served.detour_time
                transition = Transition(state, 1, reward, None, True, penalty, target)
            elif order_id in next_states:
                transition = Transition(
                    state,
                    0,
                    -self._time_slot,
                    next_states[order_id],
                    False,
                    penalty,
                    target,
                )
            else:
                # Neither served nor still waiting: rejected at this check.
                transition = Transition(state, 0, 0.0, None, True, penalty, target)
            self.transitions.append(transition)
        self._pending = next_states
        self._next = None
        self._served.clear()


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
