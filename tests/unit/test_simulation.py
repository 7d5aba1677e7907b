"""Unit tests for the trace-driven simulator, metrics and experiment harness."""

import numpy as np
import pytest

from repro.configs import ConfigurationSpace
from repro.core import EkyaPolicy, NoRetrainingPolicy, OracleProfileSource, UniformPolicy
from repro.exceptions import SimulationError
from repro.profiles import AnalyticDynamics
from repro.simulation import (
    Simulator,
    build_policy,
    capacity,
    compare_to_baselines,
    delta_sensitivity,
    error_sensitivity,
    gpus_needed_for_accuracy,
    make_setup,
    mean_accuracy,
    run_experiment,
    scaling_factor,
)


def _simulator(policy_name="ekya", num_streams=3, num_gpus=2, seed=1):
    setup = make_setup(
        policy_name,
        dataset="cityscapes",
        num_streams=num_streams,
        num_gpus=num_gpus,
        seed=seed,
        profiler_error_std=0.0,
    )
    return Simulator(setup.server, setup.dynamics, setup.policy)


class TestSimulator:
    def test_run_produces_one_result_per_window(self):
        result = _simulator().run(3)
        assert len(result.windows) == 3
        assert result.policy_name == "Ekya"
        assert 0.0 < result.mean_accuracy <= 1.0

    def test_outcomes_cover_all_streams(self):
        result = _simulator(num_streams=4).run(2)
        for window in result.windows:
            assert len(window.outcomes) == 4

    def test_per_stream_accuracy_keys(self):
        result = _simulator(num_streams=3).run(2)
        assert len(result.per_stream_accuracy) == 3

    def test_timeline_segments_sum_to_window(self):
        result = _simulator().run(2)
        for window in result.windows:
            for outcome in window.outcomes.values():
                total = sum(duration for duration, _ in outcome.timeline)
                assert total == pytest.approx(200.0)

    def test_outcome_requires_positive_window_duration(self):
        # Regression: decision_window_seconds used to default to 0.0 until
        # the simulator backfilled it, so `timeline` silently produced
        # zero-length segments.  It is now required at construction.
        result = _simulator().run(1)
        outcome = next(iter(result.windows[0].outcomes.values()))
        from dataclasses import replace

        with pytest.raises(SimulationError):
            replace(outcome, decision_window_seconds=0.0)
        with pytest.raises(TypeError):
            from repro.simulation import StreamWindowOutcome

            StreamWindowOutcome(  # decision_window_seconds omitted
                stream_name=outcome.stream_name,
                window_index=0,
                decision=outcome.decision,
                start_accuracy=outcome.start_accuracy,
                post_retraining_accuracy=outcome.post_retraining_accuracy,
                realized_average_accuracy=outcome.realized_average_accuracy,
                accuracy_during_retraining=outcome.accuracy_during_retraining,
                accuracy_after_retraining=outcome.accuracy_after_retraining,
                retraining_duration=outcome.retraining_duration,
                retraining_completed=outcome.retraining_completed,
                minimum_instantaneous_accuracy=outcome.minimum_instantaneous_accuracy,
            )

    def test_retraining_state_carries_across_windows(self):
        simulator = _simulator(num_streams=2, num_gpus=2)
        result = simulator.run(4)
        # With ample GPUs the policy retrains and accuracy stays above the
        # no-retraining decay floor.
        assert result.total_retrainings > 0

    def test_allocation_timeline(self):
        simulator = _simulator(num_streams=2)
        result = simulator.run(3)
        stream_name = simulator.server.streams[0].name
        timeline = result.allocation_timeline(stream_name)
        assert len(timeline) == 3
        assert all("inference_gpu" in row for row in timeline)

    def test_minimum_instantaneous_accuracy(self):
        result = _simulator().run(2)
        assert 0.0 <= result.minimum_instantaneous_accuracy() <= 1.0

    def test_a_second_run_continues_the_timeline(self):
        def simulator():
            setup = make_setup("ekya", dataset="cityscapes", num_streams=3, num_gpus=2, seed=3)
            return Simulator(setup.server, setup.dynamics, setup.policy)

        split = simulator()
        windows = split.run(2).windows + split.run(2).windows
        whole = simulator().run(4).windows
        assert [window.window_index for window in windows] == [0, 1, 2, 3]
        assert [window.outcomes for window in windows] == [window.outcomes for window in whole]

    def test_invalid_run_arguments(self):
        simulator = _simulator()
        with pytest.raises(SimulationError):
            simulator.run(0)

    def test_runs_with_different_policies(self):
        for policy_name in ("uniform_c2_50", "no_retraining", "cloud_cellular", "ekya_fixedres"):
            result = _simulator(policy_name).run(2)
            assert len(result.windows) == 2


class TestMetrics:
    def test_capacity_threshold(self):
        accuracy_by_count = {2: 0.8, 4: 0.78, 6: 0.7, 8: 0.6}
        assert capacity(accuracy_by_count, threshold=0.75) == 4
        assert capacity(accuracy_by_count, threshold=0.5) == 8
        assert capacity(accuracy_by_count, threshold=0.9) == 0

    def test_capacity_empty_raises(self):
        with pytest.raises(SimulationError):
            capacity({})

    def test_scaling_factor(self):
        assert scaling_factor({1: 2, 2: 8}) == pytest.approx(4.0)
        assert scaling_factor({1: 0, 2: 2}) is None
        with pytest.raises(SimulationError):
            scaling_factor({1: 2})

    def test_gpus_needed_for_accuracy(self):
        accuracy_by_gpus = {1: 0.6, 2: 0.7, 4: 0.75, 8: 0.8}
        assert gpus_needed_for_accuracy(accuracy_by_gpus, 0.75) == 4
        assert gpus_needed_for_accuracy(accuracy_by_gpus, 0.95) is None

    def test_compare_to_baselines(self):
        comparison = compare_to_baselines(0.78, {"uniform": 0.6, "cloud": 0.68})
        assert comparison.best_baseline_name == "cloud"
        assert comparison.absolute_gain == pytest.approx(0.10)
        assert comparison.relative_gain == pytest.approx(0.78 / 0.68 - 1.0)

    def test_mean_accuracy_and_retraining_fraction(self):
        results = [_simulator(num_streams=2).run(2) for _ in range(2)]
        assert 0.0 < mean_accuracy(results) <= 1.0


class TestExperimentHarness:
    def test_run_experiment_deterministic(self):
        a = run_experiment("ekya", num_streams=3, num_gpus=1, num_windows=3, seed=5)
        b = run_experiment("ekya", num_streams=3, num_gpus=1, num_windows=3, seed=5)
        assert a.mean_accuracy == pytest.approx(b.mean_accuracy)

    def test_run_experiment_seeds_differ(self):
        a = run_experiment("ekya", num_streams=3, num_gpus=1, num_windows=3, seed=5)
        b = run_experiment("ekya", num_streams=3, num_gpus=1, num_windows=3, seed=6)
        assert a.mean_accuracy != pytest.approx(b.mean_accuracy)

    def test_build_policy_unknown_name(self):
        source = OracleProfileSource(AnalyticDynamics(seed=0))
        with pytest.raises(SimulationError):
            build_policy("magic", source, ConfigurationSpace.small())

    def test_build_policy_known_names(self):
        source = OracleProfileSource(AnalyticDynamics(seed=0))
        space = ConfigurationSpace.small()
        assert isinstance(build_policy("ekya", source, space), EkyaPolicy)
        assert isinstance(build_policy("uniform_c2_50", source, space), UniformPolicy)
        assert isinstance(build_policy("no_retraining", source, space), NoRetrainingPolicy)

    def test_delta_sensitivity_structure(self):
        table = delta_sensitivity(
            [1.0, 0.5], num_streams=4, num_gpus=2, num_windows=2, seed=1
        )
        assert set(table) == {1.0, 0.5}
        for row in table.values():
            assert "accuracy" in row and "scheduler_runtime_seconds" in row

    def test_error_sensitivity_structure(self):
        table = error_sensitivity(
            [0.0, 0.2], num_streams=4, gpu_counts=(1, 2), num_windows=2, seed=1
        )
        assert set(table) == {0.0, 0.2}
        assert set(table[0.0]) == {1, 2}

    def test_make_setup_accepts_a_numpy_integer_seed(self):
        def outcomes(seed):
            setup = make_setup("ekya", num_streams=2, num_gpus=1, seed=seed)
            result = Simulator(setup.server, setup.dynamics, setup.policy).run(2)
            return [window.outcomes for window in result.windows]

        assert outcomes(np.int64(3)) == outcomes(3)

    def test_make_setup_respects_parameters(self):
        setup = make_setup("ekya", dataset="waymo", num_streams=5, num_gpus=3, window_duration=400.0)
        assert setup.num_streams == 5
        assert setup.server.spec.num_gpus == 3
        assert setup.server.spec.window_duration == 400.0
        assert all("waymo" in s.name for s in setup.server.streams)
