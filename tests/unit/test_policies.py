"""Unit tests for window policies: Ekya, ablations, uniform, cloud, cached."""

import pytest

from repro.cluster import CELLULAR_4G, EdgeServerSpec
from repro.configs import ConfigurationSpace, RetrainingConfig
from repro.core import (
    UNIFORM_CONFIG_1,
    UNIFORM_CONFIG_2,
    CloudRetrainingPolicy,
    EkyaPolicy,
    NoRetrainingPolicy,
    OracleProfileSource,
    UniformPolicy,
    build_model_cache,
    evaluate_cached_reuse,
    select_cached_model,
    standard_uniform_baselines,
)
from repro.datasets import make_workload
from repro.exceptions import SchedulingError
from repro.profiles import AnalyticDynamics


@pytest.fixture()
def streams():
    return make_workload("cityscapes", 3, seed=4, samples_per_window=120, eval_samples_per_window=80)


@pytest.fixture()
def spec():
    return EdgeServerSpec(num_gpus=2, delta=0.1, window_duration=200.0)


@pytest.fixture()
def space():
    return ConfigurationSpace.small()


@pytest.fixture()
def source():
    return OracleProfileSource(AnalyticDynamics(seed=2), accuracy_error_std=0.0, seed=2)


class TestEkyaPolicy:
    def test_plan_covers_all_streams(self, streams, spec, space, source):
        policy = EkyaPolicy(source, space)
        schedule = policy.plan_window(streams, 0, spec)
        assert set(schedule.decisions) == {s.name for s in streams}
        assert schedule.total_gpu_allocated <= spec.num_gpus + 1e-6

    def test_name_variants(self, space, source):
        assert EkyaPolicy(source, space).name == "ekya"
        assert EkyaPolicy(source, space, fixed_resources=True).name == "ekya-fixedres"
        assert (
            EkyaPolicy(source, space, fixed_retraining_config=UNIFORM_CONFIG_2).name
            == "ekya-fixedconfig"
        )
        assert EkyaPolicy(source, space, name="custom").name == "custom"

    def test_fixed_resources_uses_static_split(self, streams, spec, space, source):
        policy = EkyaPolicy(source, space, fixed_resources=True, inference_share_when_fixed=0.5)
        schedule = policy.plan_window(streams, 0, spec)
        per_stream = spec.num_gpus / len(streams)
        for decision in schedule.decisions.values():
            assert decision.inference_gpu == pytest.approx(per_stream * 0.5)

    def test_fixed_config_restricts_choice(self, streams, spec, space, source):
        policy = EkyaPolicy(source, space, fixed_retraining_config=UNIFORM_CONFIG_2)
        schedule = policy.plan_window(streams, 0, spec)
        for decision in schedule.decisions.values():
            if decision.retraining_config is not None:
                assert decision.retraining_config.key() == UNIFORM_CONFIG_2.key()

    def test_invalid_inference_share(self, space, source):
        with pytest.raises(SchedulingError):
            EkyaPolicy(source, space, inference_share_when_fixed=0.0)


class TestUniformPolicy:
    def test_even_split_and_fixed_config(self, streams, spec, space, source):
        policy = UniformPolicy(source, space, retraining_config=UNIFORM_CONFIG_1, inference_share=0.5)
        schedule = policy.plan_window(streams, 0, spec)
        per_stream = spec.num_gpus / len(streams)
        for decision in schedule.decisions.values():
            assert decision.inference_gpu == pytest.approx(per_stream * 0.5)
            assert decision.retraining_gpu == pytest.approx(per_stream * 0.5)
            assert decision.retraining_config.key() == UNIFORM_CONFIG_1.key()

    def test_name_encodes_variant(self, space, source):
        policy = UniformPolicy(source, space, retraining_config=UNIFORM_CONFIG_2, inference_share=0.9)
        assert policy.name == "uniform (Config2, 90%)"

    def test_full_inference_share_disables_retraining(self, streams, spec, space, source):
        policy = UniformPolicy(source, space, inference_share=1.0)
        schedule = policy.plan_window(streams, 0, spec)
        assert all(d.retraining_config is None for d in schedule.decisions.values())

    def test_standard_baselines_cover_paper_variants(self, space, source):
        baselines = standard_uniform_baselines(source, space)
        assert set(baselines) == {
            "uniform (Config1, 50%)",
            "uniform (Config2, 30%)",
            "uniform (Config2, 50%)",
            "uniform (Config2, 90%)",
        }

    def test_invalid_share(self, space, source):
        with pytest.raises(SchedulingError):
            UniformPolicy(source, space, inference_share=0.0)


class TestNoRetrainingPolicy:
    def test_all_gpu_to_inference(self, streams, spec, space, source):
        policy = NoRetrainingPolicy(source, space)
        schedule = policy.plan_window(streams, 0, spec)
        per_stream = spec.num_gpus / len(streams)
        for decision in schedule.decisions.values():
            assert decision.retraining_config is None
            assert decision.inference_gpu == pytest.approx(per_stream)


class TestCloudRetrainingPolicy:
    def test_transfer_time_matches_paper_example(self, space, source):
        policy = CloudRetrainingPolicy(source, CELLULAR_4G, space)
        # 160 Mb up at 5.1 Mbps + 398 Mb down at 17.5 Mbps ~= 54 s (+2 RTTs):
        # a lone stream's model lands after one upload and one download.
        transfer = policy.model_arrival_times(1, 400.0)[0]
        assert transfer == pytest.approx(160 / 5.1 + 398 / 17.5, abs=1.0)

    def test_no_edge_gpu_spent_on_retraining(self, streams, spec, space, source):
        policy = CloudRetrainingPolicy(source, CELLULAR_4G, space)
        schedule = policy.plan_window(streams, 0, spec)
        for decision in schedule.decisions.values():
            assert decision.retraining_gpu == 0.0
            assert decision.external_completion_seconds is not None

    def test_transfers_serialised_across_streams(self, streams, spec, space, source):
        policy = CloudRetrainingPolicy(source, CELLULAR_4G, space)
        schedule = policy.plan_window(streams, 0, spec)
        arrivals = [d.external_completion_seconds for d in schedule.decisions.values()]
        # Shared link: arrivals are staggered and all occur after every
        # camera's upload has finished.
        assert len(set(arrivals)) == len(arrivals)
        uploads_done = len(streams) * CELLULAR_4G.upload_seconds(
            4.0 * spec.window_duration * 0.1
        )
        assert min(arrivals) >= uploads_done

    def test_arrival_times_increase_with_stream_count(self, space, source):
        policy = CloudRetrainingPolicy(source, CELLULAR_4G, space)
        few = policy.model_arrival_times(2, 400.0)
        many = policy.model_arrival_times(8, 400.0)
        assert many[0] > few[0]
        assert many == sorted(many)

    def test_bandwidth_multiple_reporting(self, space, source):
        policy = CloudRetrainingPolicy(source, CELLULAR_4G, space)
        # To match Ekya the transfers must finish in a small fraction of the
        # window (here a quarter), which needs several times more bandwidth.
        multiples = policy.bandwidth_multiple_to_finish_in(
            100.0, num_streams=8, window_seconds=400.0
        )
        assert multiples["uplink_multiple"] > 1.0
        assert multiples["downlink_multiple"] > 1.0
        # A relaxed target needs less extra bandwidth than a tight one.
        relaxed = policy.bandwidth_multiple_to_finish_in(400.0, num_streams=8, window_seconds=400.0)
        assert relaxed["uplink_multiple"] < multiples["uplink_multiple"]

    def test_invalid_parameters(self, space, source):
        with pytest.raises(SchedulingError):
            CloudRetrainingPolicy(source, CELLULAR_4G, space, sample_fraction=0.0)
        policy = CloudRetrainingPolicy(source, CELLULAR_4G, space)
        with pytest.raises(SchedulingError):
            policy.bandwidth_multiple_to_finish_in(0.0, num_streams=8, window_seconds=400.0)


class TestCachedModelReuse:
    def test_cache_and_selection(self, streams):
        cache = build_model_cache(streams, [0, 1, 2], config=RetrainingConfig(epochs=30))
        assert len(cache) == 3 * len(streams)
        chosen = select_cached_model(cache, streams[0], 5)
        assert chosen.stream_name == streams[0].name
        assert chosen.trained_window in (0, 1, 2)

    def test_selection_requires_cache_for_stream(self, streams):
        cache = build_model_cache(streams[:1], [0], config=RetrainingConfig(epochs=30))
        with pytest.raises(SchedulingError):
            select_cached_model(cache, streams[1], 3)

    def test_evaluate_cached_reuse_returns_result(self, streams, spec):
        dynamics = AnalyticDynamics(seed=2)
        result = evaluate_cached_reuse(
            streams,
            dynamics,
            spec,
            eval_windows=[4, 5, 6],
            cache_windows=[0, 1, 2],
        )
        assert 0.0 < result.mean_accuracy < 1.0
        assert len(result.per_window_accuracy) == 3
        assert set(result.per_stream_accuracy) == {s.name for s in streams}
        assert all(len(v) == 3 for v in result.selections.values())

    def test_reuse_worse_than_fresh_retraining(self, streams, spec):
        dynamics = AnalyticDynamics(seed=2)
        result = evaluate_cached_reuse(
            streams,
            dynamics,
            spec,
            eval_windows=[6, 7],
            cache_windows=[0, 1],
        )
        fresh = dynamics.candidate_post_accuracy(streams[0], 6, RetrainingConfig(epochs=30))
        assert result.per_stream_accuracy[streams[0].name] < fresh

    def test_requires_windows(self, streams, spec):
        dynamics = AnalyticDynamics(seed=2)
        with pytest.raises(SchedulingError):
            evaluate_cached_reuse(streams, dynamics, spec, eval_windows=[], cache_windows=[0])
        with pytest.raises(SchedulingError):
            build_model_cache(streams, [], config=RetrainingConfig(epochs=30))
