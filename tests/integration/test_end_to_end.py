"""Integration tests: full pipelines across modules.

These tests execute the whole stack (workload generation → profiling →
scheduling → simulation → metrics) the way the examples and benchmarks do,
and assert the qualitative shapes the paper reports rather than absolute
numbers.
"""

import pytest

from repro.cluster import EdgeServer, EdgeServerSpec
from repro.configs import ConfigurationSpace, RetrainingConfig
from repro.core import (
    EkyaPolicy,
    MicroProfilerSettings,
    MicroProfilingSource,
    OracleProfileSource,
    UniformPolicy,
    evaluate_cached_reuse,
)
from repro.datasets import make_workload
from repro.profiles import AnalyticDynamics, SubstrateDynamics
from repro.simulation import (
    Simulator,
    compare_policies,
    run_experiment,
)


class TestAnalyticPipeline:
    def test_ekya_beats_uniform_baselines_under_stress(self):
        """Headline result: Ekya wins when streams outnumber GPU capacity."""
        results = compare_policies(
            ["ekya", "uniform_c1_50", "uniform_c2_30", "uniform_c2_50", "uniform_c2_90"],
            dataset="cityscapes",
            num_streams=8,
            num_gpus=1,
            num_windows=6,
            seed=0,
        )
        ekya = results["Ekya"].mean_accuracy
        best_baseline = max(v.mean_accuracy for k, v in results.items() if k != "Ekya")
        assert ekya > best_baseline
        # Relative gain should be substantial under stress (paper: up to 29%).
        assert ekya / best_baseline - 1.0 > 0.10

    def test_ekya_beats_no_retraining(self):
        results = compare_policies(
            ["ekya", "no_retraining"],
            dataset="cityscapes",
            num_streams=6,
            num_gpus=2,
            num_windows=6,
            seed=1,
        )
        assert results["Ekya"].mean_accuracy > results["no-retraining"].mean_accuracy

    def test_accuracy_improves_with_more_gpus(self):
        few = run_experiment("ekya", num_streams=8, num_gpus=1, num_windows=5, seed=2)
        many = run_experiment("ekya", num_streams=8, num_gpus=4, num_windows=5, seed=2)
        assert many.mean_accuracy > few.mean_accuracy

    def test_accuracy_degrades_gracefully_with_more_streams(self):
        light = run_experiment("ekya", num_streams=2, num_gpus=1, num_windows=5, seed=2)
        heavy = run_experiment("ekya", num_streams=8, num_gpus=1, num_windows=5, seed=2)
        assert heavy.mean_accuracy <= light.mean_accuracy
        # Graceful: even heavily loaded, Ekya stays well above the floor.
        assert heavy.mean_accuracy > 0.45

    def test_ekya_beats_cloud_at_paper_scale(self):
        """Table 4 setting: 8 streams, 4 GPUs, 400 s windows."""
        results = compare_policies(
            ["ekya", "cloud_cellular", "cloud_satellite"],
            dataset="cityscapes",
            num_streams=8,
            num_gpus=4,
            num_windows=5,
            window_duration=400.0,
            seed=0,
        )
        assert results["Ekya"].mean_accuracy > results["cloud (Cellular)"].mean_accuracy
        assert results["Ekya"].mean_accuracy > results["cloud (Satellite)"].mean_accuracy

    def test_ekya_beats_cached_model_reuse(self):
        streams = make_workload("cityscapes", 6, seed=0)
        spec = EdgeServerSpec(num_gpus=4, window_duration=200.0)
        cached = evaluate_cached_reuse(
            streams,
            AnalyticDynamics(seed=0),
            spec,
            eval_windows=list(range(4, 8)),
            cache_windows=list(range(0, 4)),
        )
        ekya = run_experiment("ekya", num_streams=6, num_gpus=4, num_windows=8, seed=0)
        assert ekya.mean_accuracy > cached.mean_accuracy

    def test_factor_analysis_ordering(self):
        """Figure 8: full Ekya >= both ablations under constrained GPUs."""
        results = compare_policies(
            ["ekya", "ekya_fixedres", "ekya_fixedconfig"],
            dataset="cityscapes",
            num_streams=10,
            num_gpus=2,
            num_windows=5,
            seed=0,
        )
        ekya = results["Ekya"].mean_accuracy
        assert ekya >= results["Ekya-FixedRes"].mean_accuracy - 0.02
        assert ekya >= results["Ekya-FixedConfig"].mean_accuracy - 0.02

    def test_all_four_datasets_run(self):
        for dataset in ("cityscapes", "waymo", "urban_building", "urban_traffic"):
            result = run_experiment("ekya", dataset=dataset, num_streams=4, num_gpus=2, num_windows=3, seed=0)
            assert 0.3 < result.mean_accuracy <= 1.0

    def test_every_window_schedule_is_placeable(self):
        # Placement verification raises if a schedule cannot be packed onto
        # physical GPUs; running without error is the assertion.
        result = run_experiment("ekya", num_streams=10, num_gpus=3, num_windows=4, seed=3)
        assert len(result.windows) == 4


class TestSubstratePipeline:
    """End-to-end run on the real numpy training substrate (testbed mode)."""

    @pytest.fixture()
    def substrate_setup(self):
        streams = make_workload(
            "cityscapes", 2, seed=5, samples_per_window=120, eval_samples_per_window=80
        )
        spec = EdgeServerSpec(num_gpus=1, delta=0.25, window_duration=200.0)
        server = EdgeServer(spec, streams)
        dynamics = SubstrateDynamics(seed=5, exemplars_per_class=10)
        space = ConfigurationSpace(
            retraining_configs=[
                RetrainingConfig(epochs=5, data_fraction=0.5, layers_trained_fraction=0.5),
                RetrainingConfig(epochs=15, data_fraction=0.5),
            ],
            inference_configs=ConfigurationSpace.small().inference_configs,
        )
        source = MicroProfilingSource(
            dynamics,
            settings=MicroProfilerSettings(data_fraction=0.3, profiling_epochs=3),
            seed=5,
        )
        policy = EkyaPolicy(source, space, steal_quantum=0.25)
        return Simulator(server, dynamics, policy)

    def test_substrate_simulation_runs_and_retrains(self, substrate_setup):
        result = substrate_setup.run(2)
        assert len(result.windows) == 2
        assert 0.2 < result.mean_accuracy <= 1.0
        # The micro-profiling store should have accumulated profiles.
        source = substrate_setup.policy.profile_source
        assert len(source.store) >= 2

    def test_substrate_uniform_policy_runs(self):
        streams = make_workload(
            "cityscapes", 2, seed=6, samples_per_window=100, eval_samples_per_window=60
        )
        spec = EdgeServerSpec(num_gpus=1, delta=0.25, window_duration=200.0)
        server = EdgeServer(spec, streams)
        dynamics = SubstrateDynamics(seed=6, exemplars_per_class=10)
        source = OracleProfileSource(dynamics, seed=6)
        policy = UniformPolicy(source, ConfigurationSpace.small(), inference_share=0.5)
        result = Simulator(server, dynamics, policy).run(2)
        assert len(result.windows) == 2
