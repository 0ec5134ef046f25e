"""Tests for offline experience generation and value-function training."""

from __future__ import annotations

import hashlib

import pytest

from repro.api import ScenarioSpec, Session
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


#: ``scenario`` -> (transition count, sha256 of the transitions) of
#: :func:`_pinned_experience`.
EXPERIENCE_PINS = {
    "cdc": (2269, "64b81d33587dd3269d9c2bd1165e75b42d1c11110fde4c410da061978c485d76"),
    "grid": (823, "da680e2beccd4847aecb1a0196fff077b622a4d2b8644b169f5c89e6edf0916c"),
}

_PIN_SCENARIOS = {
    "cdc": dict(dataset="CDC", horizon=1800.0),
    "grid": dict(network="grid", grid_rows=8, grid_cols=8, horizon=1800.0),
}


def _hex(value) -> str:
    return "None" if value is None else float(value).hex()


def transition_digest(transitions) -> str:
    """sha256 over every field of every transition, floats as ``float.hex()``."""
    digest = hashlib.sha256()
    for t in transitions:
        next_state = (
            "None"
            if t.next_state is None
            else ",".join(map(_hex, t.next_state.tolist()))
        )
        row = [
            ",".join(map(_hex, t.state.tolist())),
            str(t.action),
            _hex(t.reward),
            next_state,
            str(t.done),
            _hex(t.penalty),
            _hex(t.target_threshold),
        ]
        digest.update((" ".join(row) + "\n").encode())
    return digest.hexdigest()


def _pinned_experience(scenario: str):
    """The transitions the GMM-steered behaviour policy records on the
    decision-digest scenario (60 orders / 12 workers, seed 7)."""
    spec = ScenarioSpec(
        algorithm="WATTER-expect",
        num_orders=60,
        num_workers=12,
        seed=7,
        **_PIN_SCENARIOS[scenario],
    )
    session = Session()
    workload = session.prepare(spec)
    config = spec.config()
    optimizer = session.expect_provider(spec)
    encoder = StateEncoder(
        GridIndex(workload.network, size=config.grid_size),
        time_slot=config.time_slot,
        horizon=config.horizon,
    )
    targets = optimizer.optimal_thresholds(workload.orders)
    return generate_experience(workload, config, encoder, optimizer, targets)


@pytest.mark.parametrize("scenario", sorted(_PIN_SCENARIOS))
def test_experience_matches_its_pin(scenario):
    transitions = _pinned_experience(scenario)
    assert (len(transitions), transition_digest(transitions)) == EXPERIENCE_PINS[
        scenario
    ]


if __name__ == "__main__":
    for name in sorted(_PIN_SCENARIOS):
        recorded = _pinned_experience(name)
        print(f'    "{name}": ({len(recorded)}, "{transition_digest(recorded)}"),')
