"""Resource–accuracy profiles consumed by the scheduler.

For every stream and retraining window the thief scheduler needs, per
retraining configuration, (a) the estimated accuracy after retraining with it
and (b) its GPU-time cost at 100 % allocation (§4.2–4.3).  Those estimates —
whether produced by the micro-profiler, measured exhaustively, or generated
analytically for the trace-driven simulator — are carried by
:class:`RetrainingEstimate` and grouped per (stream, window) in
:class:`StreamWindowProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..configs.retraining import RetrainingConfig
from ..exceptions import ProfilingError
from ..utils.curves import SaturatingCurve


@dataclass(frozen=True)
class RetrainingEstimate:
    """Estimated outcome of one retraining configuration for one window.

    Attributes
    ----------
    config:
        The retraining configuration the estimate refers to.
    post_retraining_accuracy:
        Model accuracy on the window's content once retraining completes
        (before any inference-configuration degradation is applied).
    gpu_seconds:
        GPU-time to run the configuration at 100 % GPU allocation.
    curve:
        Optional accuracy-vs-epoch curve the estimate was extrapolated from
        (kept for diagnostics and for mid-window re-estimation).
    profiling_gpu_seconds:
        GPU-time spent producing this estimate (micro-profiling overhead).
    """

    config: RetrainingConfig
    post_retraining_accuracy: float
    gpu_seconds: float
    curve: Optional[SaturatingCurve] = None
    profiling_gpu_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.post_retraining_accuracy <= 1.0:
            raise ProfilingError("post_retraining_accuracy must be in [0, 1]")
        if self.gpu_seconds < 0 or self.profiling_gpu_seconds < 0:
            raise ProfilingError("GPU-second costs must be non-negative")

    def retraining_duration(self, gpu_allocation: float) -> float:
        """Wall-clock seconds to retrain when given ``gpu_allocation`` GPUs."""
        if gpu_allocation < 0:
            raise ProfilingError("gpu_allocation must be non-negative")
        if self.gpu_seconds == 0:
            return 0.0
        if gpu_allocation == 0:
            return float("inf")
        return self.gpu_seconds / gpu_allocation


@dataclass
class StreamWindowProfile:
    """All per-configuration estimates for one stream in one window."""

    stream_name: str
    window_index: int
    start_accuracy: float
    estimates: Dict[RetrainingConfig, RetrainingEstimate] = field(default_factory=dict)
    profiling_gpu_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise ProfilingError("window_index must be non-negative")
        if not 0.0 <= self.start_accuracy <= 1.0:
            raise ProfilingError("start_accuracy must be in [0, 1]")

    # ------------------------------------------------------------- accessors
    @property
    def configs(self) -> List[RetrainingConfig]:
        return list(self.estimates.keys())

    def estimate_for(self, config: RetrainingConfig) -> RetrainingEstimate:
        try:
            return self.estimates[config]
        except KeyError as exc:
            raise ProfilingError(
                f"no estimate for configuration {config!r} of stream {self.stream_name!r}"
            ) from exc

    def add(self, estimate: RetrainingEstimate) -> None:
        self.estimates[estimate.config] = estimate
        self.profiling_gpu_seconds += estimate.profiling_gpu_seconds

    # ------------------------------------------------------------- analytics
    def best_accuracy(self) -> float:
        """The highest post-retraining accuracy across configurations."""
        if not self.estimates:
            return self.start_accuracy
        return max(est.post_retraining_accuracy for est in self.estimates.values())
