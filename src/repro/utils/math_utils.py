"""Small numeric helpers shared across the library.

These helpers are deliberately dependency-light (numpy only) and are used by
the scheduler, the profiles subpackage and the simulator: clamping accuracies
into [0, 1], Pareto-frontier extraction for resource/accuracy tradeoffs
(Figure 3b of the paper), safe weighted means and time-weighted averages for
the "inference accuracy averaged over the retraining window" metric.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def clamp(value: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Clamp ``value`` into the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"lo ({lo}) must be <= hi ({hi})")
    return float(min(max(value, lo), hi))


def safe_mean(values: Sequence[float], default: float = 0.0) -> float:
    """Arithmetic mean that returns ``default`` for empty input."""
    values = list(values)
    if not values:
        return float(default)
    return float(np.mean(values))


def time_weighted_average(
    segments: Sequence[Tuple[float, float]],
) -> float:
    """Average of piecewise-constant values weighted by their durations.

    ``segments`` is a sequence of ``(duration, value)`` pairs.  This is the
    primitive behind the paper's target metric: inference accuracy averaged
    over a retraining window, where the accuracy is constant between
    scheduling events (retraining completions, checkpoints).
    """
    total_time = 0.0
    weighted = 0.0
    for duration, value in segments:
        if duration < 0:
            raise ValueError("segment durations must be non-negative")
        total_time += duration
        weighted += duration * value
    if total_time == 0:
        return 0.0
    return weighted / total_time


def pareto_frontier(
    points: Sequence[Tuple[float, float]],
    *,
    minimize_x: bool = True,
    maximize_y: bool = True,
) -> List[int]:
    """Return indices of Pareto-optimal points.

    By default a point is Pareto optimal if no other point has both a lower
    (or equal) x *cost* and a higher (or equal) y *value* with at least one
    strict improvement — matching Figure 3b where x is GPU-seconds and y is
    accuracy.  The returned indices are sorted by x.
    """
    pts = [(float(x), float(y), i) for i, (x, y) in enumerate(points)]
    if not pts:
        return []
    sign_x = 1.0 if minimize_x else -1.0
    sign_y = -1.0 if maximize_y else 1.0
    # Sort by cost ascending, then by value descending so that equal-cost
    # points keep only the best value on the frontier sweep.
    pts.sort(key=lambda p: (sign_x * p[0], sign_y * p[1]))
    frontier: List[int] = []
    best_y = -np.inf if maximize_y else np.inf
    for x, y, idx in pts:
        better = y > best_y if maximize_y else y < best_y
        if better:
            frontier.append(idx)
            best_y = y
    # Report indices ordered by their x coordinate for readability.
    frontier.sort(key=lambda i: sign_x * float(points[i][0]))
    return frontier


def is_pareto_dominated(
    point: Tuple[float, float],
    others: Iterable[Tuple[float, float]],
    *,
    tolerance: float = 0.0,
) -> bool:
    """True if ``point`` (cost, value) is dominated by any point in ``others``.

    A dominating point has cost <= point cost and value >= point value, with
    at least one strict inequality beyond ``tolerance``.
    """
    cost, value = float(point[0]), float(point[1])
    for other_cost, other_value in others:
        if other_cost <= cost + tolerance and other_value >= value - tolerance:
            strictly_better = (other_cost < cost - tolerance) or (
                other_value > value + tolerance
            )
            if strictly_better:
                return True
    return False


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two equal-length vectors.

    Used by the cached-model-reuse baseline, which picks the cached model
    whose training class distribution is closest to the current window's.
    """
    va = np.asarray(list(a), dtype=float)
    vb = np.asarray(list(b), dtype=float)
    if va.shape != vb.shape:
        raise ValueError("vectors must have the same length")
    return float(np.linalg.norm(va - vb))


def quantize_to_inverse_power_of_two(fraction: float, *, min_fraction: float = 1.0 / 16.0) -> float:
    """Quantise a GPU fraction to an inverse power of two (1, 1/2, 1/4, ...).

    Ekya quantises the thief scheduler's continuous allocations before
    placement so that jobs pack cleanly onto discrete GPUs (§5).  Fractions
    are rounded *down* to the nearest 1/2^k, never below ``min_fraction``
    unless the input is zero (which stays zero).
    """
    if fraction < 0:
        raise ValueError("fraction must be non-negative")
    if fraction == 0:
        return 0.0
    if fraction >= 1.0:
        return float(np.floor(fraction))
    candidate = 1.0
    while candidate > fraction + 1e-12 and candidate / 2.0 >= min_fraction - 1e-12:
        candidate /= 2.0
    return max(candidate if candidate <= fraction + 1e-12 else min_fraction, min_fraction)
