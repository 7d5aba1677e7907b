"""Unit tests for retraining/inference configurations and the config space."""

import pytest

from repro.configs import (
    ConfigurationSpace,
    InferenceConfig,
    RetrainingConfig,
    default_inference_configs,
    default_retraining_grid,
    derive_gpu_demand,
    named_table1_configs,
    validate_unique,
)
from repro.exceptions import ConfigurationError


class TestRetrainingConfig:
    def test_valid_config(self, full_retraining_config):
        assert full_retraining_config.epochs == 30

    def test_invalid_epochs(self):
        with pytest.raises(ConfigurationError):
            RetrainingConfig(epochs=0)

    def test_invalid_data_fraction(self):
        with pytest.raises(ConfigurationError):
            RetrainingConfig(epochs=5, data_fraction=0.0)

    def test_invalid_layers_fraction(self):
        with pytest.raises(ConfigurationError):
            RetrainingConfig(epochs=5, layers_trained_fraction=1.5)

    def test_relative_cost_increases_with_epochs(self):
        cheap = RetrainingConfig(epochs=5)
        expensive = RetrainingConfig(epochs=30)
        assert expensive.relative_cost() > cheap.relative_cost()

    def test_relative_cost_increases_with_data(self):
        small = RetrainingConfig(epochs=10, data_fraction=0.2)
        big = RetrainingConfig(epochs=10, data_fraction=1.0)
        assert big.relative_cost() > small.relative_cost()

    def test_freezing_layers_reduces_cost(self):
        frozen = RetrainingConfig(epochs=10, layers_trained_fraction=0.1)
        full = RetrainingConfig(epochs=10, layers_trained_fraction=1.0)
        assert frozen.relative_cost() < full.relative_cost()

    def test_gpu_seconds_scales_with_epochs(self):
        config = RetrainingConfig(epochs=10)
        assert config.gpu_seconds(seconds_per_epoch_full_data=2.0) == pytest.approx(20.0)

    def test_gpu_seconds_requires_positive_epoch_time(self):
        with pytest.raises(ConfigurationError):
            RetrainingConfig(epochs=10).gpu_seconds(seconds_per_epoch_full_data=0.0)

    def test_key_ignores_name(self):
        a = RetrainingConfig(epochs=5, name="a")
        b = RetrainingConfig(epochs=5, name="b")
        assert a.key() == b.key()

    def test_with_epochs_and_data_fraction(self):
        config = RetrainingConfig(epochs=5)
        assert config.with_epochs(9).epochs == 9
        assert config.with_data_fraction(0.3).data_fraction == pytest.approx(0.3)

    def test_dict_roundtrip(self):
        config = RetrainingConfig(epochs=7, batch_size=8, data_fraction=0.4, name="x")
        restored = RetrainingConfig.from_dict(config.as_dict())
        assert restored.key() == config.key()
        assert restored.name == "x"

    def test_validate_unique_rejects_duplicates(self):
        config = RetrainingConfig(epochs=5)
        with pytest.raises(ConfigurationError):
            validate_unique([config, RetrainingConfig(epochs=5)])

    def test_named_table1_configs(self):
        configs = named_table1_configs()
        assert set(configs) == {"Cfg1A", "Cfg2A", "Cfg1B", "Cfg2B"}
        # Cfg1* must be more expensive than Cfg2* (Table 1 semantics).
        assert configs["Cfg1A"].relative_cost() > configs["Cfg2A"].relative_cost()
        assert configs["Cfg1B"].relative_cost() > configs["Cfg2B"].relative_cost()

    def test_default_grid_size(self):
        grid = default_retraining_grid()
        assert len(grid) == 27
        assert len({cfg.key() for cfg in grid}) == 27


class TestInferenceConfig:
    def test_demand_derived_when_missing(self):
        config = InferenceConfig(frame_sampling_rate=1.0, resolution_scale=1.0)
        assert config.gpu_demand == pytest.approx(derive_gpu_demand(1.0, 1.0))

    def test_invalid_sampling_rate(self):
        with pytest.raises(ConfigurationError):
            InferenceConfig(frame_sampling_rate=0.0)

    def test_cheaper_configs_have_lower_demand(self):
        full = InferenceConfig(frame_sampling_rate=1.0, resolution_scale=1.0)
        cheap = InferenceConfig(frame_sampling_rate=0.25, resolution_scale=0.5)
        assert cheap.gpu_demand < full.gpu_demand

    def test_accuracy_factor_decreases_with_subsampling(self):
        full = InferenceConfig(frame_sampling_rate=1.0)
        sparse = InferenceConfig(frame_sampling_rate=0.1)
        assert sparse.accuracy_factor() < full.accuracy_factor()

    def test_accuracy_factor_bounded(self):
        config = InferenceConfig(frame_sampling_rate=0.01, resolution_scale=0.01)
        assert 0.05 <= config.accuracy_factor() <= 1.0

    def test_effective_factor_full_allocation(self):
        config = InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.5)
        assert config.effective_accuracy_factor(0.5) == pytest.approx(config.accuracy_factor())

    def test_effective_factor_under_allocation_is_worse(self):
        config = InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.5)
        assert config.effective_accuracy_factor(0.25) < config.accuracy_factor()

    def test_effective_factor_matches_paper_example_scale(self):
        # Halving the allocation should cost roughly a quarter of the accuracy
        # (65% -> 49% in Figure 4c).
        config = InferenceConfig(frame_sampling_rate=1.0, gpu_demand=1.0)
        ratio = config.effective_accuracy_factor(0.5) / config.effective_accuracy_factor(1.0)
        assert 0.65 <= ratio <= 0.85

    def test_effective_factor_zero_allocation(self):
        config = InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.5)
        assert config.effective_accuracy_factor(0.0) == 0.0

    def test_negative_allocation_raises(self):
        config = InferenceConfig(frame_sampling_rate=1.0)
        with pytest.raises(ConfigurationError):
            config.effective_accuracy_factor(-0.1)

    def test_dict_roundtrip(self):
        config = InferenceConfig(frame_sampling_rate=0.5, resolution_scale=0.75, name="mid")
        restored = InferenceConfig.from_dict(config.as_dict())
        assert restored.key() == config.key()

    def test_default_grid_nonempty_and_unique(self):
        configs = default_inference_configs()
        assert len(configs) == 15
        assert len({cfg.key() for cfg in configs}) == len(configs)


class TestConfigurationSpace:
    def test_default_space_sizes(self):
        space = ConfigurationSpace.default()
        summary = space.describe()
        assert summary["retraining_configs"] == 27
        assert summary["inference_configs"] == 15
        assert len(space) == 27 * 15

    def test_small_space_is_smaller(self):
        assert len(ConfigurationSpace.small()) < len(ConfigurationSpace.default())

    def test_requires_inference_configs(self):
        with pytest.raises(ConfigurationError):
            ConfigurationSpace(inference_configs=[])

    def test_pruning_removes_dominated_configs(self):
        space = ConfigurationSpace.small()
        configs = space.retraining_configs
        # Build an observed profile where one config is clearly dominated.
        observed = {}
        for i, config in enumerate(configs):
            cost = config.relative_cost()
            accuracy = 0.6 + 0.3 * (i / len(configs))
            observed[config] = (cost, accuracy)
        # Make the most expensive config also the least accurate -> dominated.
        worst = max(configs, key=lambda c: c.relative_cost())
        observed[worst] = (observed[worst][0], 0.3)
        pruned = space.pruned(observed, max_configs=len(configs) - 1)
        assert worst not in pruned.retraining_configs

    def test_pruning_respects_max_configs(self):
        space = ConfigurationSpace.default()
        observed = {
            cfg: (cfg.relative_cost(), 0.5 + 0.4 * (i / len(space.retraining_configs)))
            for i, cfg in enumerate(space.retraining_configs)
        }
        pruned = space.pruned(observed, max_configs=10)
        assert len(pruned.retraining_configs) <= 10

    def test_pruning_keeps_unobserved_configs(self):
        space = ConfigurationSpace.small()
        observed = {space.retraining_configs[0]: (1.0, 0.8)}
        pruned = space.pruned(observed)
        assert len(pruned.retraining_configs) == len(space.retraining_configs)

    def test_dict_roundtrip(self):
        space = ConfigurationSpace.small()
        restored = ConfigurationSpace.from_dict(space.as_dict())
        assert len(restored) == len(space)
