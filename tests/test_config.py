"""Unit tests for configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import ExtraTimeWeights, LearningConfig, SimulationConfig
from repro.exceptions import ConfigurationError


class TestExtraTimeWeights:
    def test_defaults_are_paper_values(self):
        weights = ExtraTimeWeights()
        assert weights.alpha == 1.0
        assert weights.beta == 1.0

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigurationError):
            ExtraTimeWeights(alpha=-1.0)
        with pytest.raises(ConfigurationError):
            ExtraTimeWeights(beta=-0.5)


class TestSimulationConfig:
    def test_default_is_valid(self):
        SimulationConfig()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_orders", 0),
            ("num_workers", 0),
            ("deadline_scale", 1.0),
            ("watch_window_scale", -0.1),
            ("max_capacity", 1),
            ("check_period", 0.0),
            ("time_slot", 0.0),
            ("grid_size", 0),
            ("horizon", 0.0),
            ("max_group_size", 0),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: value})

    def test_with_overrides_returns_new_config(self):
        config = SimulationConfig()
        other = config.with_overrides(num_orders=123)
        assert other.num_orders == 123
        assert config.num_orders != 123

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig().with_overrides(number_of_orders=5)

    def test_with_overrides_validates_new_values(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig().with_overrides(deadline_scale=0.5)

    def test_as_dict_flattens_weights(self):
        config = SimulationConfig(weights=ExtraTimeWeights(alpha=0.5, beta=2.0))
        data = config.as_dict()
        assert data["alpha"] == 0.5
        assert data["beta"] == 2.0
        assert "weights" not in data


class TestOneOracleSurface:
    def test_oracle_spec_is_the_only_carrier(self):
        import dataclasses

        from repro.api import OracleSpec, ScenarioSpec

        config_fields = {f.name for f in dataclasses.fields(SimulationConfig)}
        spec_fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
        # The spec is the one place a backend is named.
        assert "oracle" in spec_fields
        assert "oracle" not in config_fields
        for names in (config_fields, spec_fields):
            assert not [name for name in names if name.startswith("oracle_")]
        assert ScenarioSpec(oracle={"backend": "ch"}).oracle == OracleSpec(backend="ch")
        assert [f.name for f in dataclasses.fields(OracleSpec)] == [
            "backend",
            "cache_dir",
            "kernel",
        ]


class TestLearningConfig:
    def test_default_is_valid(self):
        LearningConfig()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hidden_sizes", ()),
            ("hidden_sizes", (0,)),
            ("learning_rate", 0.0),
            ("discount", 1.5),
            ("batch_size", 0),
            ("replay_capacity", 0),
            ("target_sync_period", 0),
            ("epochs", 0),
            ("loss_weight", 1.5),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ConfigurationError):
            LearningConfig(**{field: value})
