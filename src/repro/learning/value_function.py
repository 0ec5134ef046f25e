"""The value network and the learned threshold provider (Section VI).

``ValueNetwork`` bundles the main network ``V`` and its delayed copy
``V_hat`` (the target network) and implements the combined loss

    loss = omega * loss_td + (1 - omega) * loss_tg

where ``loss_td`` is the mean-squared TD error with Bellman targets

    target = reward                              (terminal step)
    target = reward + gamma^dt * V_hat(s')       (wait step)

and ``loss_tg = (p - theta* - V(s))^2`` anchors the value function to
the distribution-fitted threshold of Section V so it can be used
directly in Algorithm 2 via ``theta(i) = p(i) - V(s_i)``.

``ValueThresholdProvider`` adapts a trained network to the
:class:`~repro.core.strategies.ThresholdProvider` protocol: it is bound
to the live pool and fleet so the demand/supply parts of the state are
taken from the current spatio-temporal environment at decision time.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

import numpy as np

from ..config import LearningConfig
from ..core.state import StateEncoder
from ..exceptions import LearningError
from .mlp import MLP
from .replay import Transition

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pool import OrderPool
    from ..model.order import Order
    from ..simulation.fleet import WorkerFleet


class ValueNetwork:
    """Main + target network pair with the paper's combined loss."""

    def __init__(self, input_dim: int, config: LearningConfig) -> None:
        self._config = config
        self._main = MLP(
            input_dim,
            hidden_sizes=config.hidden_sizes,
            learning_rate=config.learning_rate,
            seed=config.seed,
        )
        self._target = MLP(
            input_dim,
            hidden_sizes=config.hidden_sizes,
            learning_rate=config.learning_rate,
            seed=config.seed + 1,
        )
        self._target.copy_from(self._main)
        self._updates = 0

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    @property
    def config(self) -> LearningConfig:
        """Hyper-parameters used for training."""
        return self._config

    @property
    def main(self) -> MLP:
        """The main network ``V``."""
        return self._main

    @property
    def target(self) -> MLP:
        """The delayed target network ``V_hat``."""
        return self._target

    def value(self, state: np.ndarray) -> float:
        """``V(s)`` from the main network."""
        return self._main.predict_one(state)

    def values(self, states: np.ndarray) -> np.ndarray:
        """Batch of ``V(s)`` predictions."""
        return self._main.predict(states)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_on_batch(self, batch: Sequence[Transition]) -> float:
        """One gradient step on a replay batch; returns the combined loss."""
        if not batch:
            raise LearningError("cannot train on an empty batch")
        states = np.vstack([transition.state for transition in batch])
        targets = np.array([self._combined_target(t) for t in batch])
        loss = self._main.train_batch(states, targets)
        self._updates += 1
        if self._updates % self._config.target_sync_period == 0:
            self.sync_target()
        return loss

    def sync_target(self) -> None:
        """Copy the main network's parameters into the target network."""
        self._target.copy_from(self._main)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _combined_target(self, transition: Transition) -> float:
        td_target = self._td_target(transition)
        omega = self._config.loss_weight
        if transition.target_threshold is None:
            return td_target
        anchor = transition.penalty - transition.target_threshold
        # Training towards the omega-weighted blend of the two targets
        # minimises the weighted sum of the two squared losses up to a
        # constant, which is how the combined objective is realised with
        # a single regression head.
        return omega * td_target + (1.0 - omega) * anchor

    def _td_target(self, transition: Transition) -> float:
        if transition.done or transition.next_state is None:
            return transition.reward
        bootstrap = self._target.predict_one(transition.next_state)
        return transition.reward + self._config.discount * bootstrap


class ValueThresholdProvider:
    """Threshold provider computing ``theta(i) = p(i) - V(s_i)`` online.

    Parameters
    ----------
    network:
        A trained :class:`ValueNetwork`.
    encoder:
        State encoder matching the one used during training.
    fallback:
        Threshold returned when the provider has not been bound to a
        pool / fleet yet (e.g. during unit tests).
    """

    def __init__(
        self,
        network: ValueNetwork,
        encoder: StateEncoder,
        fallback: float = 0.0,
    ) -> None:
        self._network = network
        self._encoder = encoder
        self._fallback = fallback
        self._pool: "OrderPool | None" = None
        self._fleet: "WorkerFleet | None" = None

    def bind(self, pool: "OrderPool", fleet: "WorkerFleet") -> None:
        """Attach the live pool and fleet whose snapshots feed the state."""
        self._pool = pool
        self._fleet = fleet

    def threshold(self, order: "Order", now: float) -> float:
        """``theta(i) = p(i) - V(s_i)`` clipped into ``[0, p(i)]``."""
        state = self._encode(order, now)
        value = self._network.value(state)
        theta = order.penalty - value
        return float(min(max(theta, 0.0), order.penalty))

    def estimated_value(self, order: "Order", now: float) -> float:
        """Raw ``V(s_i)`` (useful for inspection and tests)."""
        return self._network.value(self._encode(order, now))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _encode(self, order: "Order", now: float) -> np.ndarray:
        if self._pool is None or self._fleet is None:
            pickups: list[int] = []
            dropoffs: list[int] = []
            idle: list[int] = []
        else:
            waiting = list(self._pool.pending_orders())
            pickups = [o.pickup for o in waiting]
            dropoffs = [o.dropoff for o in waiting]
            idle = self._fleet.idle_locations(now)
        return self._encoder.encode(order, now, pickups, dropoffs, idle).vector
