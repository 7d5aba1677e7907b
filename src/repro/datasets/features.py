"""Synthetic object-feature generation.

Each object class occupies a Gaussian cluster in a low-dimensional feature
space (think of it as the penultimate-layer embedding a compressed edge model
would see).  Appearance drift moves the cluster centres between retraining
windows, so a model trained on older windows gradually mis-classifies newer
frames — the data-drift accuracy drop of §2.3 — while retraining on recent
windows recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DatasetError
from ..utils.rng import SeedLike, ensure_rng
from .classes import ClassTaxonomy


@dataclass(frozen=True)
class FeatureSpaceSpec:
    """Geometry of the synthetic feature space.

    Attributes
    ----------
    feature_dim:
        Dimensionality of the object features.
    class_separation:
        Distance scale between class cluster centres; larger values make the
        classification problem easier.
    within_class_scale:
        Standard deviation of samples around their (drifted) cluster centre.
    """

    feature_dim: int = 16
    class_separation: float = 2.2
    within_class_scale: float = 1.1

    def __post_init__(self) -> None:
        if self.feature_dim < 2:
            raise DatasetError("feature_dim must be >= 2")
        if self.class_separation <= 0 or self.within_class_scale <= 0:
            raise DatasetError("class_separation and within_class_scale must be positive")


class FeatureSynthesizer:
    """Draws labelled feature vectors for a stream's windows."""

    def __init__(
        self,
        taxonomy: ClassTaxonomy,
        spec: FeatureSpaceSpec = FeatureSpaceSpec(),
        *,
        seed: SeedLike = None,
    ) -> None:
        self._taxonomy = taxonomy
        self._spec = spec
        rng = ensure_rng(seed)
        # Fixed per-stream class anchors.  Using random directions (rather
        # than an axis-aligned grid) keeps classes pairwise distinguishable
        # but not trivially separable.
        anchors = rng.normal(0.0, 1.0, size=(taxonomy.num_classes, spec.feature_dim))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        self._anchors = anchors * spec.class_separation
        self._rng = rng

    @property
    def spec(self) -> FeatureSpaceSpec:
        return self._spec

    @property
    def taxonomy(self) -> ClassTaxonomy:
        return self._taxonomy

    def class_centers(self, appearance_offsets: Optional[np.ndarray] = None) -> np.ndarray:
        """Cluster centres, optionally displaced by appearance drift offsets."""
        centers = self._anchors.copy()
        if appearance_offsets is not None:
            offsets = np.asarray(appearance_offsets, dtype=float)
            if offsets.shape != centers.shape:
                raise DatasetError(
                    f"appearance offsets shape {offsets.shape} does not match {centers.shape}"
                )
            centers = centers + offsets * self._spec.class_separation
        return centers

    def sample(
        self,
        num_samples: int,
        class_distribution: np.ndarray,
        *,
        appearance_offsets: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``num_samples`` labelled feature vectors.

        Returns ``(features, labels)`` where ``features`` has shape
        ``(num_samples, feature_dim)`` and ``labels`` are integer class
        indices drawn from ``class_distribution``.
        """
        if num_samples < 0:
            raise DatasetError("num_samples must be non-negative")
        rng = rng if rng is not None else self._rng
        distribution = self._taxonomy.validate_distribution(class_distribution)
        centers = self.class_centers(appearance_offsets)
        labels = rng.choice(self._taxonomy.num_classes, size=num_samples, p=distribution)
        noise = rng.normal(0.0, self._spec.within_class_scale, size=(num_samples, self._spec.feature_dim))
        features = centers[labels] + noise
        return features, labels.astype(np.int64)
