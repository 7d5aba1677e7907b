"""Train/validation splits for micro-profiling.

The micro-profiler trains on a small fraction of the retraining window's data
and measures per-epoch accuracy on a held-out part (§4.3).  The paper reports
that *uniform random* sampling is the most indicative of full-data
performance because it preserves the data's distributions and variations, so
:func:`holdout_split` draws both parts uniformly at random.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import DatasetError
from ..utils.rng import SeedLike, ensure_rng


def holdout_split(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    holdout_fraction: float = 0.25,
    rng: Optional[np.random.Generator] = None,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a labelled dataset into (train, validation) parts.

    The validation part is what the micro-profiler computes per-epoch
    accuracies on before fitting the extrapolation curve.
    """
    _validate(features, labels, holdout_fraction)
    if not 0.0 < holdout_fraction < 1.0:
        raise DatasetError("holdout_fraction must be in (0, 1)")
    rng = rng if rng is not None else ensure_rng(seed)
    indices = rng.permutation(len(labels))
    holdout_count = max(1, int(round(holdout_fraction * len(labels))))
    holdout_idx = indices[:holdout_count]
    train_idx = indices[holdout_count:]
    if len(train_idx) == 0:
        raise DatasetError("holdout_fraction leaves no training data")
    return (
        features[train_idx],
        labels[train_idx],
        features[holdout_idx],
        labels[holdout_idx],
    )


def _validate(features: np.ndarray, labels: np.ndarray, fraction: float) -> None:
    if len(features) != len(labels):
        raise DatasetError("features and labels must have the same length")
    if len(labels) == 0:
        raise DatasetError("cannot sample from an empty dataset")
    if not 0.0 < fraction <= 1.0:
        raise DatasetError("fraction must be in (0, 1]")
