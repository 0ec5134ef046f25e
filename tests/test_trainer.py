"""Tests for offline experience generation and value-function training."""

from __future__ import annotations

import pytest

from repro.config import LearningConfig, SimulationConfig
from repro.core.state import StateEncoder
from repro.core.strategies import ConstantThresholdProvider
from repro.datasets.workloads import build_workload
from repro.exceptions import LearningError
from repro.learning.trainer import ValueFunctionTrainer, generate_experience
from repro.network.grid import GridIndex


@pytest.fixture(scope="module")
def training_setup():
    config = SimulationConfig(
        num_orders=30,
        num_workers=6,
        horizon=900.0,
        check_period=15.0,
        time_slot=15.0,
        grid_size=4,
        seed=5,
    )
    workload = build_workload("CDC", config)
    encoder = StateEncoder(
        GridIndex(workload.network, size=config.grid_size),
        time_slot=config.time_slot,
        horizon=config.horizon,
    )
    provider = ConstantThresholdProvider(120.0)
    transitions = generate_experience(workload, config, encoder, provider)
    return config, workload, encoder, transitions


class TestGenerateExperience:
    def test_produces_transitions(self, training_setup):
        _, workload, encoder, transitions = training_setup
        assert len(transitions) > 0
        for transition in transitions:
            assert transition.state.shape == (encoder.dimension,)
            assert transition.action in (0, 1)
            assert transition.penalty >= 0.0

    def test_every_order_has_a_terminal_transition(self, training_setup):
        _, workload, _, transitions = training_setup
        terminal = [t for t in transitions if t.done]
        # every order eventually terminates (dispatch or rejection)
        assert len(terminal) >= 1
        assert all(t.next_state is None for t in terminal)

    def test_wait_transitions_have_negative_slot_reward(self, training_setup):
        config, _, _, transitions = training_setup
        waits = [t for t in transitions if not t.done]
        assert waits, "expected at least one wait transition"
        for transition in waits:
            assert transition.reward == pytest.approx(-config.time_slot)
            assert transition.next_state is not None

    def test_dispatch_rewards_bounded_by_penalty(self, training_setup):
        _, _, _, transitions = training_setup
        for transition in transitions:
            if transition.done and transition.action == 1:
                assert transition.reward <= transition.penalty + 1e-6

    def test_workload_not_mutated(self, training_setup):
        _, workload, _, _ = training_setup
        # the workers in the workload stay idle: the trainer clones them
        assert all(worker.is_idle for worker in workload.workers)


class TestValueFunctionTrainer:
    def test_training_requires_experience(self, training_setup):
        config, _, encoder, _ = training_setup
        trainer = ValueFunctionTrainer(encoder, LearningConfig(epochs=1))
        with pytest.raises(LearningError):
            trainer.train()

    def test_training_produces_report_and_provider(self, training_setup):
        config, workload, encoder, transitions = training_setup
        learning = LearningConfig(epochs=2, batch_size=16, hidden_sizes=(16,), seed=2)
        trainer = ValueFunctionTrainer(encoder, learning)
        trainer.add_experience(transitions)
        report = trainer.train()
        assert report.transitions == len(transitions)
        assert report.epochs == 2
        assert len(report.losses) >= 2
        assert report.final_loss == report.losses[-1]
        assert report.mean_loss >= 0.0

        provider = trainer.build_provider()
        order = workload.orders[0]
        theta = provider.threshold(order, order.release_time)
        assert 0.0 <= theta <= order.penalty

    def test_training_improves_fit_on_terminal_transitions(self, training_setup):
        """On stationary targets (terminal transitions only, no bootstrap)
        the value network's fit to the recorded returns must improve."""
        import numpy as np

        _, _, encoder, transitions = training_setup
        terminal = [t for t in transitions if t.done]
        assert terminal, "expected terminal transitions in the experience"
        states = np.vstack([t.state for t in terminal])
        returns = np.array([t.reward for t in terminal])
        learning = LearningConfig(
            epochs=30, batch_size=16, hidden_sizes=(16,), learning_rate=5e-3, seed=3
        )
        trainer = ValueFunctionTrainer(encoder, learning)
        trainer.add_experience(terminal)
        mse_before = float(np.mean((trainer.network.values(states) - returns) ** 2))
        trainer.train()
        mse_after = float(np.mean((trainer.network.values(states) - returns) ** 2))
        assert mse_after < mse_before
