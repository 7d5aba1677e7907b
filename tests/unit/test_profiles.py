"""Unit tests for profiles, profile store, Table 1 scenario and dynamics."""

import pytest

from repro.configs import RetrainingConfig
from repro.exceptions import ProfilingError
from repro.profiles import (
    AnalyticDynamics,
    ProfileStore,
    RetrainingEstimate,
    StreamWindowProfile,
    SubstrateDynamics,
    TABLE1_A_MIN,
    TABLE1_NUM_GPUS,
    config_quality,
    table1_scenario,
)


def _profile(stream="cam", window=0, start=0.6):
    profile = StreamWindowProfile(stream_name=stream, window_index=window, start_accuracy=start)
    profile.add(RetrainingEstimate(config=RetrainingConfig(epochs=5), post_retraining_accuracy=0.7, gpu_seconds=10.0))
    profile.add(RetrainingEstimate(config=RetrainingConfig(epochs=30), post_retraining_accuracy=0.85, gpu_seconds=60.0))
    profile.add(RetrainingEstimate(config=RetrainingConfig(epochs=15), post_retraining_accuracy=0.65, gpu_seconds=55.0))
    return profile


class TestRetrainingEstimate:
    def test_duration_scales_with_allocation(self):
        estimate = RetrainingEstimate(
            config=RetrainingConfig(epochs=5), post_retraining_accuracy=0.8, gpu_seconds=50.0
        )
        assert estimate.retraining_duration(0.5) == pytest.approx(100.0)
        assert estimate.retraining_duration(1.0) == pytest.approx(50.0)

    def test_zero_allocation_is_infinite(self):
        estimate = RetrainingEstimate(
            config=RetrainingConfig(epochs=5), post_retraining_accuracy=0.8, gpu_seconds=50.0
        )
        assert estimate.retraining_duration(0.0) == float("inf")

    def test_invalid_accuracy(self):
        with pytest.raises(ProfilingError):
            RetrainingEstimate(config=RetrainingConfig(epochs=5), post_retraining_accuracy=1.2, gpu_seconds=1.0)

    def test_invalid_cost(self):
        with pytest.raises(ProfilingError):
            RetrainingEstimate(config=RetrainingConfig(epochs=5), post_retraining_accuracy=0.5, gpu_seconds=-1.0)


class TestStreamWindowProfile:
    def test_best_accuracy_and_gain(self):
        profile = _profile(start=0.6)
        assert profile.best_accuracy() == pytest.approx(0.85)

    def test_estimate_lookup(self):
        profile = _profile()
        config = RetrainingConfig(epochs=5)
        assert profile.estimate_for(config).gpu_seconds == pytest.approx(10.0)
        with pytest.raises(ProfilingError):
            profile.estimate_for(RetrainingConfig(epochs=99))

    def test_invalid_profile(self):
        with pytest.raises(ProfilingError):
            StreamWindowProfile(stream_name="x", window_index=-1, start_accuracy=0.5)
        with pytest.raises(ProfilingError):
            StreamWindowProfile(stream_name="x", window_index=0, start_accuracy=1.5)


class TestProfileStore:
    def test_put_get_roundtrip(self):
        store = ProfileStore()
        store.put(_profile("cam", 0))
        assert ("cam", 0) in store
        assert store.get("cam", 0).start_accuracy == pytest.approx(0.6)
        assert store.maybe_get("cam", 1) is None
        with pytest.raises(ProfilingError):
            store.get("cam", 1)

    def test_windows_for(self):
        store = ProfileStore()
        store.put(_profile("cam", 0))
        store.put(_profile("cam", 3))
        store.put(_profile("other", 1))
        assert store.windows_for("cam") == [0, 3]

    def test_history_aggregates_means(self):
        store = ProfileStore()
        store.put(_profile("cam", 0))
        store.put(_profile("cam", 1))
        history = store.history_for("cam", up_to_window=2)
        cost, accuracy = history[RetrainingConfig(epochs=30)]
        assert cost == pytest.approx(60.0)
        assert accuracy == pytest.approx(0.85)

    def test_history_excludes_future_windows(self):
        store = ProfileStore()
        store.put(_profile("cam", 0))
        store.put(_profile("cam", 5))
        history = store.history_for("cam", up_to_window=1)
        # Only window 0 contributes.
        assert history[RetrainingConfig(epochs=5)][0] == pytest.approx(10.0)

    def test_dict_roundtrip(self):
        store = ProfileStore()
        store.put(_profile("cam", 0))
        restored = ProfileStore.from_dict(store.as_dict())
        assert len(restored) == 1
        assert restored.get("cam", 0).best_accuracy() == pytest.approx(0.85)

    def test_dict_roundtrip_preserves_every_estimate_field(self):
        import json

        store = ProfileStore()
        profile = _profile("cam", 2)
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=10),
                post_retraining_accuracy=0.8,
                gpu_seconds=42.0,
                profiling_gpu_seconds=3.5,
            )
        )
        store.put(profile)
        store.put(_profile("other", 0))
        payload = json.loads(json.dumps(store.as_dict()))
        restored = ProfileStore.from_dict(payload)
        assert len(restored) == 2
        original = store.get("cam", 2)
        round_tripped = restored.get("cam", 2)
        assert round_tripped.start_accuracy == original.start_accuracy
        assert set(round_tripped.estimates) == set(original.estimates)
        for config, estimate in original.estimates.items():
            twin = round_tripped.estimate_for(config)
            assert twin.post_retraining_accuracy == estimate.post_retraining_accuracy
            assert twin.gpu_seconds == estimate.gpu_seconds
            assert twin.profiling_gpu_seconds == estimate.profiling_gpu_seconds

    def test_from_dict_defaults_missing_profiling_cost_to_zero(self):
        """Old testbed logs predate the profiling_gpu_seconds field."""
        store = ProfileStore()
        store.put(_profile("cam", 0))
        payload = store.as_dict()
        for entry in payload.values():
            for estimate in entry["estimates"]:
                del estimate["profiling_gpu_seconds"]
        restored = ProfileStore.from_dict(payload)
        for estimate in restored.get("cam", 0).estimates.values():
            assert estimate.profiling_gpu_seconds == 0.0
        assert restored.get("cam", 0).profiling_gpu_seconds == 0.0

    def test_windows_for_sorted_regardless_of_put_order(self):
        store = ProfileStore()
        for window in (7, 0, 3, 12, 1):
            store.put(_profile("cam", window))
        store.put(_profile("decoy", 2))
        assert store.windows_for("cam") == [0, 1, 3, 7, 12]
        assert store.windows_for("decoy") == [2]
        assert store.windows_for("unknown") == []

    def test_history_for_matches_full_scan_reference(self):
        """The per-stream index must not change history_for's output."""

        def reference(store, stream_name, up_to_window):
            sums = {}
            for (name, window_index), profile in store._profiles.items():
                if name != stream_name:
                    continue
                if up_to_window is not None and window_index >= up_to_window:
                    continue
                for config, estimate in profile.estimates.items():
                    bucket = sums.setdefault(config, [0.0, 0.0, 0.0])
                    bucket[0] += estimate.gpu_seconds
                    bucket[1] += estimate.post_retraining_accuracy
                    bucket[2] += 1.0
            return {
                config: (cost / count, accuracy / count)
                for config, (cost, accuracy, count) in sums.items()
                if count > 0
            }

        store = ProfileStore()
        for stream in ("cam", "other", "third"):
            for window in (0, 1, 4, 9):
                store.put(_profile(stream, window, start=0.5 + 0.01 * window))
        # Overwrite one entry, as repeated profiling of a window does.
        store.put(_profile("cam", 1, start=0.9))
        for stream in ("cam", "other", "missing"):
            for up_to in (None, 0, 2, 100):
                assert store.history_for(stream, up_to_window=up_to) == reference(
                    store, stream, up_to
                )


class TestTable1Scenario:
    def test_scenario_matches_paper_numbers(self):
        scenario = table1_scenario(0)
        assert scenario.num_gpus == TABLE1_NUM_GPUS == 3
        assert scenario.a_min == TABLE1_A_MIN == pytest.approx(0.4)
        profile_a = scenario.profiles["video_A"]
        assert profile_a.start_accuracy == pytest.approx(0.65)
        cfg1a = [c for c in profile_a.configs if c.name == "Cfg1A"][0]
        est = profile_a.estimate_for(cfg1a)
        assert est.post_retraining_accuracy == pytest.approx(0.75)
        assert est.gpu_seconds == pytest.approx(85.0)

    def test_second_window_numbers(self):
        scenario = table1_scenario(1)
        profile_b = scenario.profiles["video_B"]
        cfg2b = [c for c in profile_b.configs if c.name == "Cfg2B"][0]
        est = profile_b.estimate_for(cfg2b)
        assert est.post_retraining_accuracy == pytest.approx(0.90)
        assert est.gpu_seconds == pytest.approx(70.0)

    def test_second_window_custom_start(self):
        scenario = table1_scenario(1, start_accuracies={"video_A": 0.9, "video_B": 0.85})
        assert scenario.profiles["video_A"].start_accuracy == pytest.approx(0.9)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            table1_scenario(2)


class TestConfigQuality:
    def test_quality_in_unit_interval(self):
        for config in (RetrainingConfig(epochs=5, data_fraction=0.2, layers_trained_fraction=0.1),
                       RetrainingConfig(epochs=30)):
            assert 0.0 < config_quality(config) <= 1.0

    def test_quality_monotone_in_epochs(self):
        assert config_quality(RetrainingConfig(epochs=30)) > config_quality(RetrainingConfig(epochs=5))

    def test_quality_monotone_in_data(self):
        assert config_quality(RetrainingConfig(epochs=10, data_fraction=1.0)) > config_quality(
            RetrainingConfig(epochs=10, data_fraction=0.2)
        )

    def test_quality_monotone_in_layers(self):
        assert config_quality(RetrainingConfig(epochs=10, layers_trained_fraction=1.0)) > config_quality(
            RetrainingConfig(epochs=10, layers_trained_fraction=0.1)
        )


class TestAnalyticDynamics:
    def test_start_accuracy_in_range(self, analytic_dynamics, small_stream):
        accuracy = analytic_dynamics.start_accuracy(small_stream, 0)
        assert 0.25 <= accuracy <= 0.99

    def test_accuracy_decays_without_retraining(self, analytic_dynamics, small_stream):
        early = analytic_dynamics.start_accuracy(small_stream, 0)
        late = analytic_dynamics.start_accuracy(small_stream, 6)
        assert late < early

    def test_retraining_resets_accuracy(self, small_stream):
        dynamics = AnalyticDynamics(seed=1)
        config = RetrainingConfig(epochs=30)
        stale = dynamics.start_accuracy(small_stream, 5)
        dynamics.commit_window(small_stream, 5, config)
        refreshed = dynamics.start_accuracy(small_stream, 6)
        assert refreshed > stale

    def test_commit_without_retraining_keeps_decaying(self, small_stream):
        dynamics = AnalyticDynamics(seed=1)
        first = dynamics.start_accuracy(small_stream, 2)
        dynamics.commit_window(small_stream, 2, None)
        second = dynamics.start_accuracy(small_stream, 4)
        assert second <= first

    def test_better_configs_reach_higher_accuracy(self, analytic_dynamics, small_stream):
        cheap = RetrainingConfig(epochs=5, data_fraction=0.2, layers_trained_fraction=0.1)
        rich = RetrainingConfig(epochs=30)
        assert analytic_dynamics.candidate_post_accuracy(
            small_stream, 2, rich
        ) > analytic_dynamics.candidate_post_accuracy(small_stream, 2, cheap)

    def test_post_accuracy_bounded_by_ceiling(self, analytic_dynamics, small_stream):
        accuracy = analytic_dynamics.candidate_post_accuracy(small_stream, 1, RetrainingConfig(epochs=30))
        assert accuracy <= 0.99

    def test_gpu_seconds_positive_and_monotone(self, analytic_dynamics, small_stream):
        cheap = analytic_dynamics.retraining_gpu_seconds(small_stream, 0, RetrainingConfig(epochs=5, data_fraction=0.5))
        rich = analytic_dynamics.retraining_gpu_seconds(small_stream, 0, RetrainingConfig(epochs=30))
        assert 0 < cheap < rich

    def test_cached_model_accuracy_decays_with_gap(self, analytic_dynamics, small_stream):
        config = RetrainingConfig(epochs=30)
        near = analytic_dynamics.accuracy_of_model_trained_at(small_stream, 4, 5, config)
        far = analytic_dynamics.accuracy_of_model_trained_at(small_stream, 0, 8, config)
        assert far <= near

    def test_reset_clears_state(self, small_stream):
        dynamics = AnalyticDynamics(seed=1)
        dynamics.commit_window(small_stream, 3, RetrainingConfig(epochs=30))
        dynamics.reset()
        # After reset the stream behaves as freshly initialised again.
        assert dynamics.start_accuracy(small_stream, 0) == AnalyticDynamics(seed=1).start_accuracy(small_stream, 0)

    def test_deterministic_across_instances(self, small_stream):
        a = AnalyticDynamics(seed=9).start_accuracy(small_stream, 3)
        b = AnalyticDynamics(seed=9).start_accuracy(small_stream, 3)
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("window", [-1, -5])
    @pytest.mark.parametrize(
        "method, config",
        [
            ("start_accuracy", None),
            ("candidate_post_accuracy", RetrainingConfig(epochs=5)),
            ("commit_window", RetrainingConfig(epochs=5)),
            ("commit_window", None),
        ],
        ids=["start_accuracy", "candidate_post_accuracy", "commit_retrained", "commit_idle"],
    )
    def test_negative_window_is_rejected(self, small_stream, method, config, window):
        from repro.exceptions import SimulationError

        dynamics = AnalyticDynamics(seed=1)
        before = dynamics.start_accuracy(small_stream, 2)
        args = (small_stream, window) + (() if method == "start_accuracy" else (config,))
        with pytest.raises(SimulationError, match="non-negative"):
            getattr(dynamics, method)(*args)
        assert all(key[1] >= 0 for memo in dynamics._memo.values() for key in memo)
        assert dynamics.start_accuracy(small_stream, 2) == before

    def test_memo_is_kept_by_idle_commits_and_dropped_by_retraining(self, small_stream):
        # The purity sanitizer relies on this shape: a commit without a
        # config (settled inside a guarded control scan) deletes nothing.
        dynamics = AnalyticDynamics(seed=1)
        dynamics.start_accuracy(small_stream, 3)
        memo = dict(dynamics._memo[small_stream.name])
        dynamics.commit_window(small_stream, 3, None)
        assert dynamics._memo[small_stream.name] == memo
        dynamics.commit_window(small_stream, 3, RetrainingConfig(epochs=30))
        assert small_stream.name not in dynamics._memo
        dynamics.start_accuracy(small_stream, 4)
        dynamics.invalidate_stream(small_stream.name)
        assert small_stream.name not in dynamics._memo

    def test_commit_floors_on_the_undecayed_accuracy(self, small_stream):
        """Known divergence between planned and committed accuracy.

        ``commit_window`` moves ``trained_on_window`` to the commit window
        before computing the committed accuracy, so the warm-start floor
        inside it sees the deployed model's undecayed accuracy, not the
        decayed start the planner saw.  A cheap configuration therefore
        commits a higher accuracy than was planned (see
        docs/architecture.md).  The values are pinned: changing them
        changes every fleet accuracy and the golden fixture.
        """
        dynamics = AnalyticDynamics(seed=1)
        cheap = RetrainingConfig(epochs=5, data_fraction=0.2, layers_trained_fraction=0.1)
        deployed = dynamics._state(small_stream).accuracy_when_trained
        start = dynamics.start_accuracy(small_stream, 0)
        planned = dynamics.candidate_post_accuracy(small_stream, 0, cheap)
        dynamics.commit_window(small_stream, 0, cheap)
        committed = dynamics.start_accuracy(small_stream, 0)

        assert deployed == 0.8092581551655834
        assert start == 0.7612581551655834
        assert planned == 0.7412581551655834  # floor: decayed start - 0.02
        assert committed == 0.7892581551655834  # floor: undecayed accuracy - 0.02
        assert planned == start - 0.02
        assert committed == deployed - 0.02


class TestSubstrateDynamics:
    @pytest.fixture()
    def substrate(self):
        return SubstrateDynamics(seed=0, exemplars_per_class=10)

    def test_start_accuracy_reasonable(self, substrate, small_stream):
        accuracy = substrate.start_accuracy(small_stream, 0)
        assert 0.3 <= accuracy <= 1.0

    def test_candidate_accuracy_cached(self, substrate, small_stream):
        config = RetrainingConfig(epochs=5, data_fraction=0.5)
        first = substrate.candidate_post_accuracy(small_stream, 1, config)
        second = substrate.candidate_post_accuracy(small_stream, 1, config)
        assert first == pytest.approx(second)

    def test_commit_updates_serving_model(self, substrate, small_stream):
        config = RetrainingConfig(epochs=10)
        drifted_before = substrate.start_accuracy(small_stream, 4)
        substrate.candidate_post_accuracy(small_stream, 4, config)
        substrate.commit_window(small_stream, 4, config)
        after = substrate.start_accuracy(small_stream, 4)
        assert after >= drifted_before - 0.05

    def test_gpu_seconds_from_window_size(self, substrate, small_stream):
        cost = substrate.retraining_gpu_seconds(small_stream, 0, RetrainingConfig(epochs=10))
        assert cost > 0

    def test_reset(self, substrate, small_stream):
        substrate.start_accuracy(small_stream, 0)
        substrate.reset()
        assert substrate._learners == {}
