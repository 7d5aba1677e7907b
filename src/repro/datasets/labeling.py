"""Golden-model labelling (teacher/student supervision).

Manual labelling is infeasible for continuous retraining on the edge, so the
paper obtains labels from a "golden model": a large, expensive DNN
(ResNeXt101) that is highly accurate but too slow to run on every live frame
(§2.2).  The golden model labels only the subset of frames kept for
retraining, and those labels contain a small amount of error.

In this reproduction the generative ground truth is known, so the
:class:`GoldenModel` simply corrupts the true labels at a configurable error
rate — exercising the same student-supervised-by-imperfect-teacher code path
without a second heavyweight network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DatasetError
from ..utils.rng import SeedLike, ensure_rng


@dataclass
class GoldenModel:
    """A simulated high-accuracy, high-cost teacher model.

    Attributes
    ----------
    error_rate:
        Probability that the golden model assigns a wrong (uniformly random
        other) class to a sample.  The paper verifies golden-model labels are
        "very similar to human-annotated labels", so the default is small.
    seed:
        Seed for the label-corruption randomness (only used when no generator
        is passed to :meth:`label`).
    """

    error_rate: float = 0.02
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise DatasetError("error_rate must be in [0, 1)")
        self._rng = ensure_rng(self.seed)

    def label(
        self,
        true_labels: np.ndarray,
        *,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, float]:
        """Return golden-model labels and the realised noise rate.

        Each label is replaced with a uniformly-random *different* class with
        probability ``error_rate``.
        """
        if num_classes < 2:
            raise DatasetError("num_classes must be >= 2")
        rng = rng if rng is not None else self._rng
        labels = np.asarray(true_labels, dtype=np.int64).copy()
        if labels.size == 0:
            return labels, 0.0
        flip_mask = rng.random(labels.shape) < self.error_rate
        if np.any(flip_mask):
            offsets = rng.integers(1, num_classes, size=int(flip_mask.sum()))
            labels[flip_mask] = (labels[flip_mask] + offsets) % num_classes
        return labels, float(np.mean(flip_mask))
