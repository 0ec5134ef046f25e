"""Unit tests for the learning substrate: MLP, replay memory, value network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LearningConfig
from repro.exceptions import LearningError
from repro.learning.mlp import MLP
from repro.learning.replay import ReplayMemory, Transition
from repro.learning.value_function import ValueNetwork, ValueThresholdProvider
from repro.core.state import StateEncoder
from repro.network.grid import GridIndex
from tests.conftest import make_order


class TestMLP:
    def test_rejects_bad_shapes(self):
        with pytest.raises(LearningError):
            MLP(input_dim=0)
        with pytest.raises(LearningError):
            MLP(input_dim=4, hidden_sizes=())

    def test_predict_shapes(self):
        net = MLP(input_dim=3, hidden_sizes=(8,), seed=0)
        single = net.predict(np.zeros(3))
        batch = net.predict(np.zeros((5, 3)))
        assert single.shape == (1,)
        assert batch.shape == (5,)

    def test_dimension_mismatch_raises(self):
        net = MLP(input_dim=3, hidden_sizes=(8,), seed=0)
        with pytest.raises(LearningError):
            net.predict(np.zeros(4))

    def test_batch_size_mismatch_raises(self):
        net = MLP(input_dim=3, hidden_sizes=(8,), seed=0)
        with pytest.raises(LearningError):
            net.train_batch(np.zeros((4, 3)), np.zeros(3))

    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(256, 4))
        targets = inputs @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.7
        net = MLP(input_dim=4, hidden_sizes=(32, 16), learning_rate=5e-3, seed=1)
        losses = []
        for _ in range(300):
            idx = rng.integers(0, 256, size=64)
            losses.append(net.train_batch(inputs[idx], targets[idx]))
        assert losses[-1] < losses[0] * 0.2

    def test_parameter_roundtrip(self):
        net = MLP(input_dim=3, hidden_sizes=(8,), seed=2)
        other = MLP(input_dim=3, hidden_sizes=(8,), seed=3)
        other.set_parameters(net.get_parameters())
        probe = np.ones(3)
        assert other.predict_one(probe) == pytest.approx(net.predict_one(probe))

    def test_parameter_shape_mismatch(self):
        net = MLP(input_dim=3, hidden_sizes=(8,), seed=2)
        other = MLP(input_dim=3, hidden_sizes=(4,), seed=3)
        with pytest.raises(LearningError):
            other.set_parameters(net.get_parameters())


class TestReplayMemory:
    def _transition(self, value=0.0):
        return Transition(
            state=np.array([value]),
            action=1,
            reward=value,
            next_state=None,
            done=True,
            penalty=10.0,
        )

    def test_rejects_bad_capacity(self):
        with pytest.raises(LearningError):
            ReplayMemory(capacity=0)

    def test_push_and_len(self):
        memory = ReplayMemory(capacity=5)
        memory.push(self._transition())
        assert len(memory) == 1

    def test_eviction_when_full(self):
        memory = ReplayMemory(capacity=3)
        memory.extend([self._transition(float(i)) for i in range(5)])
        assert len(memory) == 3
        rewards = {t.reward for t in memory.sample(3)}
        assert rewards.issubset({2.0, 3.0, 4.0})

    def test_sample_empty_raises(self):
        with pytest.raises(LearningError):
            ReplayMemory(capacity=3).sample(1)

    def test_sample_larger_than_buffer(self):
        memory = ReplayMemory(capacity=10, seed=1)
        memory.push(self._transition(1.0))
        batch = memory.sample(4)
        assert len(batch) == 4

    def test_clear(self):
        memory = ReplayMemory(capacity=3)
        memory.push(self._transition())
        memory.clear()
        assert len(memory) == 0


class TestValueNetwork:
    def _make(self, omega=0.5):
        config = LearningConfig(
            hidden_sizes=(16,), epochs=1, batch_size=8, loss_weight=omega, seed=0
        )
        return ValueNetwork(input_dim=4, config=config), config

    def test_train_on_empty_batch_raises(self):
        network, _ = self._make()
        with pytest.raises(LearningError):
            network.train_on_batch([])

    def test_terminal_td_target_is_reward(self):
        network, _ = self._make(omega=1.0)
        transition = Transition(
            state=np.ones(4),
            action=1,
            reward=42.0,
            next_state=None,
            done=True,
            penalty=100.0,
            target_threshold=None,
        )
        assert network._combined_target(transition) == pytest.approx(42.0)

    def test_target_loss_anchor(self):
        network, _ = self._make(omega=0.0)
        transition = Transition(
            state=np.ones(4),
            action=1,
            reward=42.0,
            next_state=None,
            done=True,
            penalty=100.0,
            target_threshold=30.0,
        )
        # omega = 0 -> pure target loss -> regression target is p - theta*.
        assert network._combined_target(transition) == pytest.approx(70.0)

    def test_training_reduces_loss(self):
        network, _ = self._make(omega=1.0)
        rng = np.random.default_rng(0)
        transitions = [
            Transition(
                state=rng.normal(size=4),
                action=1,
                reward=float(rng.normal(5.0)),
                next_state=None,
                done=True,
                penalty=10.0,
            )
            for _ in range(64)
        ]
        first = network.train_on_batch(transitions)
        for _ in range(100):
            last = network.train_on_batch(transitions)
        assert last < first

    def test_target_sync(self):
        network, _ = self._make()
        probe = np.ones(4)
        network.main.train_batch(probe.reshape(1, -1), np.array([5.0]))
        assert network.target.predict_one(probe) != pytest.approx(
            network.main.predict_one(probe)
        )
        network.sync_target()
        assert network.target.predict_one(probe) == pytest.approx(
            network.main.predict_one(probe)
        )


class TestValueThresholdProvider:
    def test_threshold_clipped_into_penalty_range(self, small_network):
        grid = GridIndex(small_network, size=3)
        encoder = StateEncoder(grid, time_slot=10.0, horizon=1800.0)
        config = LearningConfig(hidden_sizes=(8,), seed=0)
        network = ValueNetwork(encoder.dimension, config)
        provider = ValueThresholdProvider(network, encoder)
        order = make_order(small_network, 0, 35)
        theta = provider.threshold(order, now=order.release_time)
        assert 0.0 <= theta <= order.penalty

    def test_estimated_value_matches_network(self, small_network):
        grid = GridIndex(small_network, size=3)
        encoder = StateEncoder(grid, time_slot=10.0, horizon=1800.0)
        config = LearningConfig(hidden_sizes=(8,), seed=0)
        network = ValueNetwork(encoder.dimension, config)
        provider = ValueThresholdProvider(network, encoder)
        order = make_order(small_network, 0, 35)
        value = provider.estimated_value(order, now=order.release_time)
        state = encoder.encode(order, order.release_time).vector
        assert value == pytest.approx(network.value(state))
