"""Unit tests for the synthetic workload generators and drift models."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_NAMES,
    AppearanceDrift,
    ClassDistributionDrift,
    ClassTaxonomy,
    DriftProfile,
    FeatureSpaceSpec,
    FeatureSynthesizer,
    GoldenModel,
    VideoStream,
    dataset_spec,
    holdout_split,
    make_stream,
    make_workload,
    mixed_workload,
)
from repro.exceptions import DatasetError


class TestClassTaxonomy:
    def test_default_classes(self):
        taxonomy = ClassTaxonomy()
        assert taxonomy.num_classes == 6
        assert "car" in taxonomy

    def test_duplicate_classes_raise(self):
        with pytest.raises(DatasetError):
            ClassTaxonomy(["car", "car"])

    def test_empty_taxonomy_raises(self):
        with pytest.raises(DatasetError):
            ClassTaxonomy([])

    def test_validate_distribution_normalises(self):
        taxonomy = ClassTaxonomy(["a", "b"])
        assert np.allclose(taxonomy.validate_distribution([2.0, 2.0]), [0.5, 0.5])

    def test_validate_distribution_wrong_length(self):
        with pytest.raises(DatasetError):
            ClassTaxonomy(["a", "b"]).validate_distribution([1.0])

    def test_validate_distribution_all_zero(self):
        with pytest.raises(DatasetError):
            ClassTaxonomy(["a", "b"]).validate_distribution([0.0, 0.0])


class TestDriftProfile:
    def test_negative_volatility_raises(self):
        with pytest.raises(DatasetError):
            DriftProfile(distribution_volatility=-0.1)

    def test_invalid_regime_period(self):
        with pytest.raises(DatasetError):
            DriftProfile(regime_period=0)

    def test_invalid_dropout(self):
        with pytest.raises(DatasetError):
            DriftProfile(dropout_probability=1.5)


class TestClassDistributionDrift:
    def test_distribution_is_normalised(self):
        drift = ClassDistributionDrift(ClassTaxonomy(), DriftProfile(), seed=1)
        for window in range(5):
            distribution = drift.distribution_for_window(window)
            assert distribution.sum() == pytest.approx(1.0)
            assert np.all(distribution >= 0)

    def test_deterministic_for_same_window(self):
        drift = ClassDistributionDrift(ClassTaxonomy(), DriftProfile(), seed=1)
        first = drift.distribution_for_window(3)
        second = drift.distribution_for_window(3)
        assert np.allclose(first, second)

    def test_distribution_changes_over_windows(self):
        drift = ClassDistributionDrift(
            ClassTaxonomy(), DriftProfile(distribution_volatility=0.5), seed=2
        )
        early = drift.distribution_for_window(0)
        late = drift.distribution_for_window(8)
        assert not np.allclose(early, late)

    def test_negative_window_raises(self):
        drift = ClassDistributionDrift(ClassTaxonomy(), DriftProfile(), seed=1)
        with pytest.raises(DatasetError):
            drift.distribution_for_window(-1)


class TestAppearanceDrift:
    def test_offsets_shape(self):
        drift = AppearanceDrift(ClassTaxonomy(), DriftProfile(), feature_dim=8, seed=1)
        offsets = drift.offsets_for_window(2)
        assert offsets.shape == (6, 8)

    def test_drift_magnitude_grows_with_window_gap(self):
        drift = AppearanceDrift(
            ClassTaxonomy(), DriftProfile(appearance_volatility=0.2), feature_dim=8, seed=1
        )
        assert drift.drift_magnitude(0, 8) > drift.drift_magnitude(0, 1)

    def test_drift_magnitude_zero_for_same_window(self):
        drift = AppearanceDrift(ClassTaxonomy(), DriftProfile(), feature_dim=8, seed=1)
        assert drift.drift_magnitude(3, 3) == pytest.approx(0.0)

    def test_deterministic(self):
        drift = AppearanceDrift(ClassTaxonomy(), DriftProfile(), feature_dim=8, seed=1)
        assert np.allclose(drift.offsets_for_window(4), drift.offsets_for_window(4))

    def test_drift_magnitude_walks_one_step_per_new_window(self):
        drift = AppearanceDrift(ClassTaxonomy(), DriftProfile(), feature_dim=8, seed=1)
        draws = []
        walk_rng = drift._walk_rng

        class CountingRng:
            def normal(self, *args, **kwargs):
                draws.append(1)
                return walk_rng.normal(*args, **kwargs)

        drift._walk_rng = CountingRng()
        for from_window, to_window in [(0, 5), (2, 3), (5, 5), (1, 7), (7, 0)]:
            drift.drift_magnitude(from_window, to_window)
        assert len(draws) == 8  # windows 0..7, each drawn once

    def test_negative_window_is_rejected_without_walking(self):
        drift = AppearanceDrift(ClassTaxonomy(), DriftProfile(), feature_dim=8, seed=1)
        drift.drift_magnitude(0, 2)
        for from_window, to_window in [(-1, 2), (0, -5)]:
            with pytest.raises(DatasetError):
                drift.drift_magnitude(from_window, to_window)
        assert sorted(drift._prefix) == [0, 1, 2]


class TestFeatureSynthesizer:
    def test_sample_shapes(self):
        synthesizer = FeatureSynthesizer(ClassTaxonomy(), FeatureSpaceSpec(feature_dim=12), seed=1)
        features, labels = synthesizer.sample(50, np.full(6, 1 / 6))
        assert features.shape == (50, 12)
        assert labels.shape == (50,)
        assert labels.max() < 6

    def test_respects_class_distribution(self):
        synthesizer = FeatureSynthesizer(ClassTaxonomy(), seed=1)
        distribution = np.array([1.0, 0, 0, 0, 0, 0])
        _, labels = synthesizer.sample(40, distribution)
        assert np.all(labels == 0)

    def test_appearance_offsets_move_centers(self):
        synthesizer = FeatureSynthesizer(ClassTaxonomy(), seed=1)
        base = synthesizer.class_centers()
        offsets = np.ones_like(base)
        shifted = synthesizer.class_centers(offsets)
        assert not np.allclose(base, shifted)

    def test_bad_offsets_shape_raises(self):
        synthesizer = FeatureSynthesizer(ClassTaxonomy(), seed=1)
        with pytest.raises(DatasetError):
            synthesizer.class_centers(np.ones((2, 2)))

    def test_invalid_spec(self):
        with pytest.raises(DatasetError):
            FeatureSpaceSpec(feature_dim=1)


class TestGoldenModel:
    def test_zero_error_rate_keeps_labels(self):
        golden = GoldenModel(error_rate=0.0, seed=1)
        labels = np.array([0, 1, 2, 3])
        noisy, rate = golden.label(labels, num_classes=4)
        assert np.array_equal(noisy, labels)
        assert rate == 0.0

    def test_error_rate_flips_some_labels(self):
        golden = GoldenModel(error_rate=0.5, seed=1)
        labels = np.zeros(500, dtype=np.int64)
        noisy, rate = golden.label(labels, num_classes=4)
        assert 0.3 < rate < 0.7
        assert np.all(noisy[noisy != 0] > 0)

    def test_invalid_error_rate(self):
        with pytest.raises(DatasetError):
            GoldenModel(error_rate=1.0)


class TestSampling:
    def _data(self, n=60):
        rng = np.random.default_rng(0)
        return rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)

    def test_holdout_split_disjoint_sizes(self):
        features, labels = self._data(80)
        train_x, train_y, val_x, val_y = holdout_split(features, labels, holdout_fraction=0.25, seed=1)
        assert len(train_x) + len(val_x) == 80
        assert len(val_x) == 20

    def test_invalid_fraction_raises(self):
        features, labels = self._data()
        with pytest.raises(DatasetError):
            holdout_split(features, labels, holdout_fraction=0.0)

    def test_empty_dataset_raises(self):
        with pytest.raises(DatasetError):
            holdout_split(np.empty((0, 3)), np.empty((0,)))


class TestVideoStreamAndWindows:
    def test_window_data_shapes(self, small_stream):
        window = small_stream.window(0)
        assert window.num_train_samples == 120
        assert len(window.eval_labels) == 80
        assert window.train_features.shape[1] == small_stream.feature_dim

    def test_window_caching_returns_same_object(self, small_stream):
        assert small_stream.window(1) is small_stream.window(1)

    def test_windows_iterator(self, small_stream):
        windows = list(small_stream.windows(3))
        assert [w.window_index for w in windows] == [0, 1, 2]

    def test_negative_window_raises(self, small_stream):
        with pytest.raises(DatasetError):
            small_stream.window(-1)

    def test_subsample_training(self, small_stream):
        window = small_stream.window(0)
        features, labels = window.subsample_training(0.25, seed=3)
        assert len(features) == len(labels) == 30

    def test_class_distribution_matches_window(self, small_stream):
        window = small_stream.window(2)
        assert np.allclose(window.class_distribution, small_stream.class_distribution(2))

    def test_drift_magnitude_positive_across_windows(self, small_stream):
        assert small_stream.drift_magnitude(0, 5) > 0

    def test_deterministic_given_name_and_seed(self):
        profile = DriftProfile()
        a = VideoStream("same", drift_profile=profile, samples_per_window=50, eval_samples_per_window=40, seed=5)
        b = VideoStream("same", drift_profile=profile, samples_per_window=50, eval_samples_per_window=40, seed=5)
        assert np.allclose(a.window(2).train_features, b.window(2).train_features)


class TestGenerators:
    def test_all_dataset_names_resolve(self):
        for name in DATASET_NAMES:
            assert dataset_spec(name).name == name

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            dataset_spec("kitti")

    def test_make_workload_count_and_names(self):
        streams = make_workload("waymo", 3, seed=1, samples_per_window=60, eval_samples_per_window=40)
        assert len(streams) == 3
        assert len({s.name for s in streams}) == 3

    def test_streams_differ_across_indices(self):
        a = make_stream("cityscapes", 0, seed=1, samples_per_window=60, eval_samples_per_window=40)
        b = make_stream("cityscapes", 1, seed=1, samples_per_window=60, eval_samples_per_window=40)
        assert not np.allclose(a.window(0).train_features, b.window(0).train_features)

    def test_streams_deterministic_across_calls(self):
        a = make_stream("cityscapes", 0, seed=9, samples_per_window=60, eval_samples_per_window=40)
        b = make_stream("cityscapes", 0, seed=9, samples_per_window=60, eval_samples_per_window=40)
        assert np.allclose(a.window(1).train_features, b.window(1).train_features)

    def test_window_duration_override(self):
        stream = make_stream("urban_building", 0, window_duration=400.0, samples_per_window=60, eval_samples_per_window=40)
        assert stream.window_duration == 400.0

    def test_mixed_workload(self):
        streams = mixed_workload(["cityscapes", "urban_traffic"], 2, seed=1)
        assert len(streams) == 4
        assert any("urban_traffic" in s.name for s in streams)

    def test_invalid_stream_counts(self):
        with pytest.raises(DatasetError):
            make_workload("cityscapes", 0)
        with pytest.raises(DatasetError):
            mixed_workload(["cityscapes"], 0)

    def test_static_cameras_drift_less_than_dashcams(self):
        dashcam = make_stream("waymo", 0, seed=2, samples_per_window=60, eval_samples_per_window=40)
        static = make_stream("urban_building", 0, seed=2, samples_per_window=60, eval_samples_per_window=40)
        assert dashcam.drift_magnitude(0, 6) > static.drift_magnitude(0, 6)
