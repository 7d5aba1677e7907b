"""Continual-learning wrapper (iCaRL-style exemplar replay).

The paper retrains with "a modified version of iCaRL" (§2.2): the edge model
is incrementally updated on the newest window's data while an exemplar memory
retains representative samples of previously-seen classes so that classes that
temporarily disappear (bicycles in windows 6–7 of Figure 2a) are not
catastrophically forgotten.

:class:`ExemplarReplayLearner` keeps a bounded per-class exemplar set chosen
by a herding-style rule (samples closest to the running class mean) and mixes
exemplars into every retraining call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..configs.retraining import RetrainingConfig
from ..datasets.stream import WindowData
from ..exceptions import ModelError
from ..utils.rng import SeedLike, ensure_rng
from .mlp import MLPClassifier
from .trainer import Trainer, TrainingResult


@dataclass
class ExemplarSet:
    """Bounded per-class memory of representative feature vectors."""

    capacity_per_class: int
    features_by_class: Dict[int, np.ndarray]

    @classmethod
    def empty(cls, capacity_per_class: int) -> "ExemplarSet":
        if capacity_per_class < 1:
            raise ModelError("capacity_per_class must be >= 1")
        return cls(capacity_per_class=capacity_per_class, features_by_class={})

    def update(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Fold new labelled samples into the memory using herding selection.

        For every class, the stored exemplars are the samples closest to the
        class mean of the *combined* (old exemplars + new samples) set —
        a cheap approximation of iCaRL's herding that keeps the memory
        representative of the class's recent appearance.
        """
        labels = np.asarray(labels, dtype=np.int64)
        for cls in np.unique(labels):
            new = features[labels == cls]
            old = self.features_by_class.get(int(cls))
            combined = new if old is None else np.vstack([old, new])
            mean = combined.mean(axis=0)
            distances = np.linalg.norm(combined - mean, axis=1)
            keep = np.argsort(distances)[: self.capacity_per_class]
            self.features_by_class[int(cls)] = combined[keep]

    def as_training_data(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored exemplars as a labelled dataset (may be empty)."""
        if not self.features_by_class:
            return np.empty((0, 0)), np.empty((0,), dtype=np.int64)
        features = []
        labels = []
        for cls, class_features in sorted(self.features_by_class.items()):
            features.append(class_features)
            labels.append(np.full(len(class_features), cls, dtype=np.int64))
        return np.vstack(features), np.concatenate(labels)


class ExemplarReplayLearner:
    """Continually retrains an edge model with exemplar replay."""

    def __init__(
        self,
        model: MLPClassifier,
        *,
        exemplars_per_class: int = 40,
        replay_weight: float = 0.35,
        trainer: Optional[Trainer] = None,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= replay_weight < 1.0:
            raise ModelError("replay_weight must be in [0, 1)")
        self.model = model
        self.exemplars = ExemplarSet.empty(exemplars_per_class)
        self.replay_weight = replay_weight
        self._trainer = trainer or Trainer(seed=seed)
        self._rng = ensure_rng(seed)

    def retrain(
        self,
        window: WindowData,
        config: RetrainingConfig,
        *,
        max_epochs: Optional[int] = None,
    ) -> TrainingResult:
        """Retrain on a new window's data mixed with the exemplar memory."""
        new_features, new_labels = window.subsample_training(config.data_fraction, rng=self._rng)
        replay_features, replay_labels = self.exemplars.as_training_data()

        if replay_labels.size and replay_features.shape[1] == new_features.shape[1]:
            # Cap the replay contribution so recent data dominates: replay is
            # `replay_weight` of the combined batch at most.
            max_replay = int(self.replay_weight / max(1e-9, 1.0 - self.replay_weight) * len(new_labels))
            if max_replay > 0 and len(replay_labels) > max_replay:
                keep = self._rng.choice(len(replay_labels), size=max_replay, replace=False)
                replay_features, replay_labels = replay_features[keep], replay_labels[keep]
            combined_features = np.vstack([new_features, replay_features])
            combined_labels = np.concatenate([new_labels, replay_labels])
        else:
            combined_features, combined_labels = new_features, new_labels

        synthetic_window = WindowData(
            window_index=window.window_index,
            duration_seconds=window.duration_seconds,
            train_features=combined_features,
            train_labels=combined_labels,
            eval_features=window.eval_features,
            eval_labels=window.eval_labels,
            class_distribution=window.class_distribution,
            label_noise_rate=window.label_noise_rate,
        )
        # The data_fraction was already applied when drawing ``new_features``,
        # so train on the full combined set here.
        result = self._trainer.train(
            self.model,
            synthetic_window,
            config,
            max_epochs=max_epochs,
            data_fraction_override=1.0,
            rng=self._rng,
        )
        self.exemplars.update(new_features, new_labels)
        return result

    def evaluate(self, window: WindowData) -> float:
        """Inference accuracy of the current model on a window's live data."""
        return self._trainer.evaluate(self.model, window)
