"""Non-linear accuracy curves and the NNLS-based extrapolation used by the
micro-profiler.

The paper's micro-profiler observes the validation accuracy of a retraining
configuration for a handful of epochs on a small data subset, fits the
observations to "a non-linear curve model from [Optimus]" using a
non-negative least squares solver, and extrapolates to the accuracy that
would be reached when training on all the data for many more epochs (§4.3).

We implement the same family of curves:

* :class:`SaturatingCurve` — ``acc(e) = a_max - 1 / (k0 + k1 * e)``, the
  Optimus-style diminishing-returns model.  It is linear in ``(k0, k1)`` for a
  fixed ``a_max`` which is what makes an NNLS fit possible.
* :func:`fit_accuracy_curve` — grid-searches ``a_max`` and solves the inner
  problem with :func:`scipy.optimize.nnls`.
* :func:`scale_for_data_fraction` — adjusts the asymptote when extrapolating
  from a data subset to the full retraining-window data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from ..exceptions import ProfilingError
from .math_utils import clamp


@dataclass(frozen=True)
class SaturatingCurve:
    """Accuracy-vs-epoch curve ``acc(e) = a_max - 1 / (k0 + k1 * e)``.

    ``a_max`` is the asymptotic accuracy, ``k0`` controls the starting
    accuracy at epoch 0 and ``k1`` the convergence speed.  ``k0`` and ``k1``
    are constrained non-negative (hence the NNLS fit), which guarantees that
    the curve is monotonically non-decreasing in the number of epochs.
    """

    a_max: float
    k0: float
    k1: float

    def accuracy_at(self, epochs: float) -> float:
        """Predicted accuracy after ``epochs`` epochs (clamped into [0, 1])."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        denom = self.k0 + self.k1 * epochs
        if denom <= 0:
            return 0.0
        return clamp(self.a_max - 1.0 / denom)

    def as_dict(self) -> dict:
        return {"a_max": self.a_max, "k0": self.k0, "k1": self.k1}

    @classmethod
    def from_dict(cls, payload: dict) -> "SaturatingCurve":
        return cls(a_max=float(payload["a_max"]), k0=float(payload["k0"]), k1=float(payload["k1"]))


def _nnls_for_amax(
    epochs: np.ndarray, accuracies: np.ndarray, a_max: float
) -> Tuple[float, float, float]:
    """Solve for (k0, k1) with a_max fixed; returns (k0, k1, residual).

    With ``y = 1 / (a_max - acc)`` the model becomes ``y = k0 + k1 * e``,
    linear with non-negative coefficients.  Observations at or above the
    asymptote are clipped slightly below it to keep the transform finite.
    """
    gap = np.clip(a_max - accuracies, 1e-4, None)
    y = 1.0 / gap
    design = np.column_stack([np.ones_like(epochs, dtype=float), epochs.astype(float)])
    coeffs, _ = nnls(design, y)
    k0, k1 = float(coeffs[0]), float(coeffs[1])
    predicted = a_max - 1.0 / np.clip(design @ coeffs, 1e-9, None)
    residual = float(np.sqrt(np.mean((predicted - accuracies) ** 2)))
    return k0, k1, residual


def fit_accuracy_curve(
    epochs: Sequence[float],
    accuracies: Sequence[float],
    *,
    a_max_grid: Sequence[float] | None = None,
) -> SaturatingCurve:
    """Fit a :class:`SaturatingCurve` to observed (epoch, accuracy) points.

    The asymptote ``a_max`` is grid-searched over values above the best
    observed accuracy; for each candidate the inner non-negative
    least-squares problem is solved exactly with :func:`scipy.optimize.nnls`
    and the candidate with the lowest RMS residual wins.

    Raises :class:`ProfilingError` if fewer than two observations are given
    or the observations are degenerate.
    """
    ep = np.asarray(list(epochs), dtype=float)
    acc = np.asarray(list(accuracies), dtype=float)
    if ep.shape != acc.shape:
        raise ProfilingError("epochs and accuracies must have the same length")
    if ep.size < 2:
        raise ProfilingError("need at least two observations to fit an accuracy curve")
    if np.any(ep < 0):
        raise ProfilingError("epoch indices must be non-negative")
    if np.any((acc < 0) | (acc > 1)):
        raise ProfilingError("accuracies must lie in [0, 1]")

    best_obs = float(acc.max())
    if a_max_grid is None:
        # Candidate asymptotes from "barely above the best observation" to a
        # perfect model; finer resolution near the observation.
        a_max_grid = np.unique(
            np.concatenate(
                [
                    best_obs + np.array([0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.25]),
                    np.array([1.0]),
                ]
            )
        )
    best: Tuple[float, SaturatingCurve] | None = None
    for a_max in a_max_grid:
        a_max = float(min(max(a_max, best_obs + 1e-3), 1.0))
        k0, k1, residual = _nnls_for_amax(ep, acc, a_max)
        curve = SaturatingCurve(a_max=a_max, k0=k0, k1=k1)
        if best is None or residual < best[0]:
            best = (residual, curve)
    assert best is not None  # a_max_grid is never empty
    return best[1]


def scale_for_data_fraction(
    curve: SaturatingCurve,
    *,
    profiled_fraction: float,
    target_fraction: float,
    data_boost: float = 0.08,
) -> SaturatingCurve:
    """Adjust a curve fitted on a data subset to predict full-data training.

    Training on more data raises the achievable asymptote (more variation is
    memorised) but converges slightly slower per epoch.  The boost follows a
    logarithmic law in the data ratio — doubling the data adds roughly
    ``data_boost`` to the asymptote — which matches the qualitative behaviour
    the paper relies on ("post-retraining accuracy can be roughly estimated by
    training on a small subset").
    """
    if not 0 < profiled_fraction <= 1 or not 0 < target_fraction <= 1:
        raise ValueError("data fractions must be in (0, 1]")
    ratio = target_fraction / profiled_fraction
    boost = data_boost * np.log2(max(ratio, 1e-9)) if ratio >= 1 else data_boost * np.log2(ratio)
    new_a_max = clamp(curve.a_max + boost, 0.0, 1.0)
    # More data slows per-epoch convergence a little (each epoch covers more
    # unique samples but the optimisation problem is harder).
    slowdown = 1.0 / (1.0 + 0.15 * max(np.log2(max(ratio, 1e-9)), 0.0))
    return SaturatingCurve(a_max=new_a_max, k0=curve.k0, k1=curve.k1 * slowdown)
