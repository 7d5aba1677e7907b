"""Shared numeric and infrastructure helpers for the Ekya reproduction."""

from .clock import SYSTEM_CLOCK, Clock, ManualClock, Stopwatch, SystemClock
from .curves import (
    SaturatingCurve,
    fit_accuracy_curve,
    scale_for_data_fraction,
)
from .math_utils import (
    clamp,
    euclidean_distance,
    is_pareto_dominated,
    pareto_frontier,
    quantize_to_inverse_power_of_two,
    safe_mean,
    time_weighted_average,
)
from .rng import ensure_rng, stable_seed
from .serialization import to_jsonable

__all__ = [
    "SYSTEM_CLOCK",
    "Clock",
    "ManualClock",
    "Stopwatch",
    "SystemClock",
    "SaturatingCurve",
    "fit_accuracy_curve",
    "scale_for_data_fraction",
    "clamp",
    "euclidean_distance",
    "is_pareto_dominated",
    "pareto_frontier",
    "quantize_to_inverse_power_of_two",
    "safe_mean",
    "time_weighted_average",
    "ensure_rng",
    "stable_seed",
    "to_jsonable",
]
