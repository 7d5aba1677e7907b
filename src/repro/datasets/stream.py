"""Video streams and retraining-window data.

A :class:`VideoStream` is a synthetic stand-in for one camera feed: it yields
one :class:`WindowData` per retraining window containing the golden-model
labelled samples accumulated during that window (the data Ekya retrains on)
plus held-out samples used to evaluate inference accuracy on that window's
live video.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import DatasetError
from ..utils.rng import SeedLike, ensure_rng, stable_seed
from .classes import ClassTaxonomy, DEFAULT_CLASSES
from .drift import AppearanceDrift, ClassDistributionDrift, DriftProfile
from .features import FeatureSpaceSpec, FeatureSynthesizer
from .labeling import GoldenModel


@dataclass
class WindowData:
    """All data belonging to one retraining window of one stream.

    Attributes
    ----------
    window_index:
        Zero-based index of the retraining window.
    duration_seconds:
        Length of the window (the paper uses 200 s in most experiments).
    train_features / train_labels:
        Golden-model labelled samples available for retraining in this window.
    eval_features / eval_labels:
        Held-out samples from the same window, used to measure the inference
        accuracy a model achieves *on this window's live video*.
    class_distribution:
        The window's true class-frequency vector (used for Figure 2a and by
        the cached-model-reuse baseline).
    label_noise_rate:
        Fraction of training labels the golden model got wrong.
    """

    window_index: int
    duration_seconds: float
    train_features: np.ndarray
    train_labels: np.ndarray
    eval_features: np.ndarray
    eval_labels: np.ndarray
    class_distribution: np.ndarray
    label_noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise DatasetError("window_index must be non-negative")
        if self.duration_seconds <= 0:
            raise DatasetError("duration_seconds must be positive")
        if len(self.train_features) != len(self.train_labels):
            raise DatasetError("train features/labels length mismatch")
        if len(self.eval_features) != len(self.eval_labels):
            raise DatasetError("eval features/labels length mismatch")

    # ------------------------------------------------------------- accessors
    @property
    def num_train_samples(self) -> int:
        return int(len(self.train_labels))

    def subsample_training(
        self, fraction: float, *, rng: Optional[np.random.Generator] = None, seed: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform random subsample of the training data.

        This is both how a retraining configuration's ``data_fraction`` is
        realised and how the micro-profiler draws its 5–10 % profiling subset
        (§4.3 finds uniform sampling the most indicative choice).
        """
        if not 0.0 < fraction <= 1.0:
            raise DatasetError("fraction must be in (0, 1]")
        rng = rng if rng is not None else ensure_rng(seed)
        count = max(1, int(round(fraction * self.num_train_samples)))
        if self.num_train_samples == 0:
            return self.train_features.copy(), self.train_labels.copy()
        indices = rng.choice(self.num_train_samples, size=min(count, self.num_train_samples), replace=False)
        return self.train_features[indices], self.train_labels[indices]


class VideoStream:
    """One synthetic camera stream split into retraining windows."""

    def __init__(
        self,
        name: str,
        *,
        drift_profile: DriftProfile,
        taxonomy: Optional[ClassTaxonomy] = None,
        feature_spec: FeatureSpaceSpec = FeatureSpaceSpec(),
        window_duration: float = 200.0,
        samples_per_window: int = 400,
        eval_samples_per_window: int = 300,
        golden_model: Optional[GoldenModel] = None,
        seed: SeedLike = None,
    ) -> None:
        if samples_per_window < 4 or eval_samples_per_window < 4:
            raise DatasetError("windows need at least 4 train and eval samples")
        if window_duration <= 0:
            raise DatasetError("window_duration must be positive")
        self.name = name
        self.taxonomy = taxonomy or ClassTaxonomy(DEFAULT_CLASSES)
        self.window_duration = float(window_duration)
        self.samples_per_window = int(samples_per_window)
        self.eval_samples_per_window = int(eval_samples_per_window)
        self._seed = stable_seed("stream", name, base=0 if seed is None else int(ensure_rng(seed).integers(0, 2**31 - 1)))
        self._distribution_drift = ClassDistributionDrift(
            self.taxonomy, drift_profile, seed=ensure_rng(self._seed + 1)
        )
        self._appearance_drift = AppearanceDrift(
            self.taxonomy, drift_profile, feature_dim=feature_spec.feature_dim, seed=ensure_rng(self._seed + 2)
        )
        self._synthesizer = FeatureSynthesizer(self.taxonomy, feature_spec, seed=ensure_rng(self._seed + 3))
        self._golden_model = golden_model or GoldenModel(error_rate=0.02, seed=self._seed + 4)
        self._drift_profile = drift_profile
        self._window_cache: Dict[int, WindowData] = {}

    # --------------------------------------------------------------- windows
    def window(self, window_index: int) -> WindowData:
        """Return (and cache) the data for retraining window ``window_index``."""
        if window_index < 0:
            raise DatasetError("window_index must be non-negative")
        if window_index in self._window_cache:
            return self._window_cache[window_index]
        distribution = self._distribution_drift.distribution_for_window(window_index)
        offsets = self._appearance_drift.offsets_for_window(window_index)
        rng = ensure_rng(stable_seed("window", self.name, window_index, base=self._seed))
        train_features, true_train_labels = self._synthesizer.sample(
            self.samples_per_window, distribution, appearance_offsets=offsets, rng=rng
        )
        eval_features, eval_labels = self._synthesizer.sample(
            self.eval_samples_per_window, distribution, appearance_offsets=offsets, rng=rng
        )
        train_labels, noise_rate = self._golden_model.label(
            true_train_labels, num_classes=self.taxonomy.num_classes, rng=rng
        )
        data = WindowData(
            window_index=window_index,
            duration_seconds=self.window_duration,
            train_features=train_features,
            train_labels=train_labels,
            eval_features=eval_features,
            eval_labels=eval_labels,
            class_distribution=distribution,
            label_noise_rate=noise_rate,
        )
        self._window_cache[window_index] = data
        return data

    def windows(self, count: int):
        """Iterate over the first ``count`` windows."""
        for index in range(count):
            yield self.window(index)

    # ----------------------------------------------------------------- drift
    def drift_magnitude(self, from_window: int, to_window: int) -> float:
        """Appearance-drift magnitude between two windows (see §4.2)."""
        return self._appearance_drift.drift_magnitude(from_window, to_window)

    def class_distribution(self, window_index: int) -> np.ndarray:
        """The class-frequency vector of a window (Figure 2a)."""
        return self._distribution_drift.distribution_for_window(window_index)

    @property
    def feature_dim(self) -> int:
        return self._synthesizer.spec.feature_dim

    @property
    def golden_model(self) -> GoldenModel:
        return self._golden_model

    @property
    def drift_profile(self) -> DriftProfile:
        return self._drift_profile

    def __repr__(self) -> str:
        return (
            f"VideoStream(name={self.name!r}, window_duration={self.window_duration}, "
            f"samples_per_window={self.samples_per_window})"
        )
