"""Replay memory for the DQN-style value-function training (Section VI-B).

Experience tuples ``(state, action, reward, next_state, done, penalty,
target_threshold)`` are stored in a bounded ring buffer and sampled
uniformly.  The extra ``penalty`` and ``target_threshold`` fields carry
the quantities needed by the paper's *target loss*
``(p - theta* - V(s))^2`` alongside the ordinary TD targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..exceptions import LearningError


@dataclass(frozen=True)
class Transition:
    """One agent decision step stored for training.

    Attributes
    ----------
    state:
        Feature vector of the state the decision was taken in.
    action:
        1 for dispatch, 0 for wait.
    reward:
        Immediate reward of the action (Section VI-A reward design).
    next_state:
        Feature vector after a wait action, ``None`` for terminal steps.
    done:
        Whether the agent's episode ended (dispatch or expiry).
    penalty:
        The order's rejection penalty ``p`` (for the target loss).
    target_threshold:
        The distribution-fitted optimal threshold ``theta*`` (for the
        target loss); ``None`` when no fit was available.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray | None
    done: bool
    penalty: float
    target_threshold: float | None = None


class ReplayMemory:
    """Bounded uniform-sampling experience buffer."""

    def __init__(self, capacity: int = 50_000, seed: int = 0) -> None:
        if capacity <= 0:
            raise LearningError("replay capacity must be positive")
        self._capacity = capacity
        self._buffer: list[Transition] = []
        self._cursor = 0
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def capacity(self) -> int:
        """Maximum number of stored transitions."""
        return self._capacity

    def push(self, transition: Transition) -> None:
        """Store a transition, evicting the oldest once full."""
        if len(self._buffer) < self._capacity:
            self._buffer.append(transition)
        else:
            self._buffer[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self._capacity

    def extend(self, transitions: list[Transition]) -> None:
        """Store several transitions."""
        for transition in transitions:
            self.push(transition)

    def sample(self, batch_size: int) -> list[Transition]:
        """Uniformly sample ``batch_size`` transitions (with replacement
        only if the buffer is smaller than the batch)."""
        if not self._buffer:
            raise LearningError("cannot sample from an empty replay memory")
        if batch_size <= len(self._buffer):
            return self._rng.sample(self._buffer, batch_size)
        return [self._rng.choice(self._buffer) for _ in range(batch_size)]

    def clear(self) -> None:
        """Drop all stored transitions."""
        self._buffer.clear()
        self._cursor = 0
