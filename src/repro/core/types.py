"""Shared data structures exchanged between schedulers and the simulator.

A scheduler (Ekya's thief scheduler or any baseline) is a pure function from
a :class:`ScheduleRequest` — everything known at the start of a retraining
window — to a :class:`WindowSchedule` — the chosen configurations and GPU
allocations for every stream's inference and retraining job.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..configs.inference import InferenceConfig
from ..configs.retraining import RetrainingConfig
from ..exceptions import SchedulingError
from ..profiles.profile import StreamWindowProfile


@dataclass
class StreamWindowInput:
    """Per-stream information available to the scheduler for one window."""

    stream_name: str
    profile: StreamWindowProfile
    inference_configs: List[InferenceConfig]

    def __post_init__(self) -> None:
        if not self.inference_configs:
            raise SchedulingError(f"stream {self.stream_name!r} has no inference configurations")
        if self.profile.stream_name != self.stream_name:
            raise SchedulingError("profile/stream name mismatch")


@dataclass
class ScheduleRequest:
    """Everything the scheduler needs to decide one retraining window."""

    window_index: int
    window_seconds: float
    total_gpus: float
    delta: float
    a_min: float
    streams: Dict[str, StreamWindowInput] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise SchedulingError("window_seconds must be positive")
        if self.total_gpus <= 0:
            raise SchedulingError("total_gpus must be positive")
        if not 0 < self.delta <= self.total_gpus:
            raise SchedulingError("delta must be in (0, total_gpus]")
        if not 0.0 <= self.a_min < 1.0:
            raise SchedulingError("a_min must be in [0, 1)")
        if not self.streams:
            raise SchedulingError("a schedule request needs at least one stream")

    @property
    def stream_names(self) -> List[str]:
        return list(self.streams.keys())


@dataclass
class StreamDecision:
    """The scheduler's decision for one stream in one window."""

    stream_name: str
    inference_config: InferenceConfig
    inference_gpu: float
    retraining_config: Optional[RetrainingConfig] = None
    retraining_gpu: float = 0.0
    estimated_average_accuracy: float = 0.0
    #: If set, the retrained model arrives after this many seconds regardless
    #: of edge GPU allocation (used by the cloud-offload baseline, where the
    #: "retraining duration" is the WAN upload + download time).
    external_completion_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.inference_gpu < 0 or self.retraining_gpu < 0:
            raise SchedulingError("GPU allocations must be non-negative")
        if self.external_completion_seconds is not None and self.external_completion_seconds < 0:
            raise SchedulingError("external_completion_seconds must be non-negative")
        if (
            self.retraining_config is None
            and self.retraining_gpu > 1e-9
        ):
            # Allocating GPUs to a retraining job that will not run is wasteful
            # but not fatal; normalise it away.
            self.retraining_gpu = 0.0

    @property
    def total_gpu(self) -> float:
        return self.inference_gpu + self.retraining_gpu

    @property
    def retrains(self) -> bool:
        if self.retraining_config is None:
            return False
        return self.retraining_gpu > 0 or self.external_completion_seconds is not None


@dataclass
class WindowSchedule:
    """The complete decision for one retraining window."""

    window_index: int
    decisions: Dict[str, StreamDecision] = field(default_factory=dict)
    estimated_average_accuracy: float = 0.0
    scheduler_runtime_seconds: float = 0.0
    #: Candidate allocations the scheduler evaluated (steal attempts + 1).
    iterations: int = 0
    #: Executions of Algorithm 2's per-stream search that were actually
    #: computed (vectorised lattice columns for the thief; full sweeps for
    #: schedulers that call PickConfigs directly).  Memoised lookups do not
    #: count, so this is the scheduler's real configuration-selection work.
    pick_configs_evaluations: int = 0

    def decision_for(self, stream_name: str) -> StreamDecision:
        try:
            return self.decisions[stream_name]
        except KeyError as exc:
            raise SchedulingError(f"no decision recorded for stream {stream_name!r}") from exc

    @property
    def total_gpu_allocated(self) -> float:
        return float(sum(decision.total_gpu for decision in self.decisions.values()))

    def allocation_map(self) -> Dict[str, float]:
        """Flat job-id → GPU fraction map (for placement onto devices)."""
        from ..cluster.jobs import inference_job_id, retraining_job_id

        allocation: Dict[str, float] = {}
        for name, decision in self.decisions.items():
            allocation[inference_job_id(name)] = decision.inference_gpu
            allocation[retraining_job_id(name)] = decision.retraining_gpu
        return allocation

    def validate_against(self, request: ScheduleRequest) -> None:
        """Raise if the schedule violates the request's capacity constraints."""
        if set(self.decisions) != set(request.streams):
            raise SchedulingError("schedule does not cover exactly the requested streams")
        if self.total_gpu_allocated > request.total_gpus + 1e-6:
            raise SchedulingError(
                f"schedule allocates {self.total_gpu_allocated:.3f} GPUs, "
                f"exceeding the {request.total_gpus} provisioned"
            )


class Scheduler(abc.ABC):
    """Interface implemented by Ekya's thief scheduler and all baselines."""

    #: Human-readable name used in benchmark tables and plots.
    name: str = "scheduler"

    @abc.abstractmethod
    def schedule(self, request: ScheduleRequest) -> WindowSchedule:
        """Decide configurations and allocations for one retraining window."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
