"""Data-drift models for the synthetic video workloads.

The paper identifies two forms of drift that erode an edge model's accuracy
(§2.2, Figure 2):

* **class-distribution drift** — the mix of object classes changes across
  retraining windows (bicycles disappear, person share fluctuates), and
* **appearance drift** — objects of the same class look different over time
  (lighting, viewing angles, clothing, neighbourhoods).

:class:`ClassDistributionDrift` generates a per-window class-frequency vector
and :class:`AppearanceDrift` generates a per-window displacement of each
class's feature-space cluster centre.  Both are deterministic functions of a
seed, so workloads are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import DatasetError
from ..utils.rng import SeedLike, ensure_rng
from .classes import ClassTaxonomy


@dataclass(frozen=True)
class DriftProfile:
    """Knobs controlling how quickly a stream's content changes.

    Attributes
    ----------
    distribution_volatility:
        Scale of the random-walk step applied to class log-frequencies per
        window.  Dashcam streams (Waymo/Cityscapes-like) use higher values
        than static cameras.
    appearance_volatility:
        Step size of the per-class appearance (cluster-centre) random walk in
        feature space, expressed as a fraction of the inter-class distance.
    regime_period:
        If set, the class distribution also switches between distinct
        "regimes" (e.g. rush hour vs night) every ``regime_period`` windows.
    dropout_probability:
        Probability that a minority class disappears from a window entirely
        (Figure 2a: bicycles vanish in windows 6–7).
    diurnal:
        If true, a slow sinusoidal modulation is layered on the class
        distribution to mimic 24-hour cycles of the static "Urban" cameras.
    """

    distribution_volatility: float = 0.35
    appearance_volatility: float = 0.12
    regime_period: Optional[int] = None
    dropout_probability: float = 0.1
    diurnal: bool = False

    def __post_init__(self) -> None:
        if self.distribution_volatility < 0 or self.appearance_volatility < 0:
            raise DatasetError("drift volatilities must be non-negative")
        if self.regime_period is not None and self.regime_period < 1:
            raise DatasetError("regime_period must be >= 1 when provided")
        if not 0.0 <= self.dropout_probability <= 1.0:
            raise DatasetError("dropout_probability must be in [0, 1]")


class ClassDistributionDrift:
    """Per-window class-frequency vectors following a constrained random walk."""

    def __init__(
        self,
        taxonomy: ClassTaxonomy,
        profile: DriftProfile,
        *,
        base_distribution: Optional[Sequence[float]] = None,
        seed: SeedLike = None,
    ) -> None:
        self._taxonomy = taxonomy
        self._profile = profile
        self._rng = ensure_rng(seed)
        if base_distribution is None:
            base = self._rng.dirichlet(np.full(taxonomy.num_classes, 2.0))
        else:
            base = taxonomy.validate_distribution(base_distribution)
        self._base_logits = np.log(np.clip(base, 1e-6, None))
        self._regimes = self._make_regimes()

    def _make_regimes(self) -> List[np.ndarray]:
        """Pre-draw a handful of distribution regimes to alternate between."""
        regimes = [self._base_logits]
        for _ in range(3):
            perturbation = self._rng.normal(0.0, 1.2, size=self._base_logits.shape)
            regimes.append(self._base_logits + perturbation)
        return regimes

    def distribution_for_window(self, window_index: int) -> np.ndarray:
        """Class-frequency vector for retraining window ``window_index``."""
        if window_index < 0:
            raise DatasetError("window_index must be non-negative")
        profile = self._profile
        # Recompute the random walk from the start for every request so that
        # windows can be queried out of order and still agree.
        logits = self._base_logits.copy()
        walk_rng = ensure_rng(int(self._rng_integer()))
        for step in range(window_index + 1):
            logits = logits + walk_rng.normal(0.0, profile.distribution_volatility, size=logits.shape)
        if profile.regime_period:
            regime_index = (window_index // profile.regime_period) % len(self._regimes)
            logits = 0.5 * logits + 0.5 * self._regimes[regime_index]
        if profile.diurnal:
            phase = 2.0 * np.pi * window_index / 12.0
            modulation = 0.6 * np.sin(phase + np.arange(logits.size))
            logits = logits + modulation
        distribution = np.exp(logits - logits.max())
        distribution /= distribution.sum()
        # Class dropout: zero-out a random minority class occasionally.
        dropout_rng = ensure_rng(int(self._rng_integer()) + window_index)
        if dropout_rng.random() < profile.dropout_probability and distribution.size > 2:
            victim = int(np.argsort(distribution)[0])
            distribution[victim] = 0.0
            distribution /= distribution.sum()
        return distribution

    # A fixed integer derived once so the per-window walks share a root seed.
    def _rng_integer(self) -> int:
        if not hasattr(self, "_root_seed"):
            self._root_seed = int(self._rng.integers(0, 2**31 - 1))
        return self._root_seed


class AppearanceDrift:
    """Per-window displacement of each class's cluster centre in feature space."""

    def __init__(
        self,
        taxonomy: ClassTaxonomy,
        profile: DriftProfile,
        *,
        feature_dim: int,
        seed: SeedLike = None,
    ) -> None:
        if feature_dim < 1:
            raise DatasetError("feature_dim must be >= 1")
        self._taxonomy = taxonomy
        self._profile = profile
        self._feature_dim = feature_dim
        self._rng = ensure_rng(seed)
        self._root_seed = int(self._rng.integers(0, 2**31 - 1))
        # Incremental prefix of the walk ``offsets_for_window`` replays: the
        # same generator, the same draws, the same additions in the same
        # order, so every prefix entry is bit-identical to the replay's.
        self._walk_rng = ensure_rng(self._root_seed)
        self._prefix: Dict[int, np.ndarray] = {}

    @property
    def feature_dim(self) -> int:
        return self._feature_dim

    def offsets_for_window(self, window_index: int) -> np.ndarray:
        """(num_classes, feature_dim) array of cluster-centre offsets.

        Replays the walk from window 0: the oracle for the prefix.
        """
        if window_index < 0:
            raise DatasetError("window_index must be non-negative")
        walk_rng = ensure_rng(self._root_seed)
        offsets = np.zeros((self._taxonomy.num_classes, self._feature_dim))
        for _ in range(window_index + 1):
            offsets = offsets + walk_rng.normal(
                0.0, self._profile.appearance_volatility, size=offsets.shape
            )
        return offsets

    def _prefix_offsets(self, window_index: int) -> np.ndarray:
        """Read-only ``offsets_for_window(window_index)``, one draw per new window."""
        if window_index < 0:
            raise DatasetError("window_index must be non-negative")
        prefix = self._prefix
        for window in range(len(prefix), window_index + 1):
            previous = prefix[window - 1] if window else np.zeros(
                (self._taxonomy.num_classes, self._feature_dim)
            )
            offsets = previous + self._walk_rng.normal(
                0.0, self._profile.appearance_volatility, size=previous.shape
            )
            offsets.flags.writeable = False
            prefix[window] = offsets
        return prefix[window_index]

    def drift_magnitude(self, from_window: int, to_window: int) -> float:
        """Mean per-class displacement between two windows.

        The controller uses this as a cheap proxy for "how much the stream's
        characteristics changed", which drives how much a stream benefits from
        retraining (§4: Ekya prioritises the streams whose characteristics
        changed the most).
        """
        a = self._prefix_offsets(from_window)
        b = self._prefix_offsets(to_window)
        return float(np.mean(np.linalg.norm(b - a, axis=1)))
