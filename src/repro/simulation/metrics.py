"""Evaluation metrics derived from simulation results.

Implements the three axes the paper evaluates along (§6.2): inference
accuracy, resource consumption (how many GPUs a baseline needs to match a
target accuracy) and capacity (how many concurrent streams can be supported
subject to an accuracy threshold), plus the scaling factor of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..exceptions import SimulationError
from ..utils.math_utils import safe_mean
from .simulator import SimulationResult

#: Accuracy threshold used for capacity accounting in Table 3.
DEFAULT_CAPACITY_THRESHOLD = 0.75


def mean_accuracy(results: Sequence[SimulationResult]) -> float:
    """Mean of the headline metric across several runs."""
    return safe_mean([result.mean_accuracy for result in results])


def capacity(
    accuracy_by_stream_count: Mapping[int, float],
    *,
    threshold: float = DEFAULT_CAPACITY_THRESHOLD,
) -> int:
    """Maximum number of concurrent streams whose accuracy meets ``threshold``.

    ``accuracy_by_stream_count`` maps "number of streams analysed together" to
    the achieved mean accuracy (the curves of Figure 6).  Capacity is the
    largest stream count whose accuracy is still at or above the threshold
    (0 if even a single stream cannot meet it).
    """
    if not accuracy_by_stream_count:
        raise SimulationError("accuracy_by_stream_count must not be empty")
    supported = [
        count
        for count, accuracy in accuracy_by_stream_count.items()
        if accuracy + 1e-9 >= threshold
    ]
    return max(supported) if supported else 0


def scaling_factor(capacity_by_gpus: Mapping[int, int]) -> Optional[float]:
    """Capacity growth factor between the smallest and largest GPU count.

    Table 3 reports how capacity scales when going from 1 to 2 provisioned
    GPUs; returns ``None`` when the baseline supports no streams at the
    smallest provisioning (denoted "-" in the paper).
    """
    if len(capacity_by_gpus) < 2:
        raise SimulationError("need capacities for at least two GPU counts")
    gpu_counts = sorted(capacity_by_gpus)
    smallest, largest = gpu_counts[0], gpu_counts[-1]
    base = capacity_by_gpus[smallest]
    top = capacity_by_gpus[largest]
    if base <= 0:
        return None
    return top / base


def gpus_needed_for_accuracy(
    accuracy_by_gpus: Mapping[int, float],
    target_accuracy: float,
) -> Optional[int]:
    """Smallest GPU count whose accuracy reaches ``target_accuracy``.

    Used to derive the "baseline needs 4× more GPUs than Ekya" headline:
    find the GPUs Ekya needs for a target and the GPUs the best baseline
    needs for the same target, then divide.
    """
    if not accuracy_by_gpus:
        raise SimulationError("accuracy_by_gpus must not be empty")
    feasible = [gpus for gpus, accuracy in accuracy_by_gpus.items() if accuracy + 1e-9 >= target_accuracy]
    return min(feasible) if feasible else None


@dataclass(frozen=True)
class AccuracyComparison:
    """Ekya-vs-best-baseline comparison at one operating point."""

    ekya_accuracy: float
    best_baseline_accuracy: float
    best_baseline_name: str

    @property
    def absolute_gain(self) -> float:
        return self.ekya_accuracy - self.best_baseline_accuracy

    @property
    def relative_gain(self) -> float:
        if self.best_baseline_accuracy <= 0:
            return float("inf")
        return self.ekya_accuracy / self.best_baseline_accuracy - 1.0


def compare_to_baselines(
    ekya_accuracy: float, baseline_accuracies: Mapping[str, float]
) -> AccuracyComparison:
    """Build the Ekya-vs-strongest-baseline comparison used in headlines."""
    if not baseline_accuracies:
        raise SimulationError("baseline_accuracies must not be empty")
    best_name = max(baseline_accuracies, key=lambda name: baseline_accuracies[name])
    return AccuracyComparison(
        ekya_accuracy=ekya_accuracy,
        best_baseline_accuracy=baseline_accuracies[best_name],
        best_baseline_name=best_name,
    )
