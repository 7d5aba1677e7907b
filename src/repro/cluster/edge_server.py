"""The edge server: GPUs plus the camera streams attached to it.

An :class:`EdgeServer` bundles a :class:`~repro.cluster.gpu.GPUFleet` with the
set of :class:`~repro.datasets.stream.VideoStream` objects whose inference and
retraining jobs it must host, and carries the global scheduling parameters
(allocation unit δ, minimum inference accuracy a_MIN, retraining-window
duration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..datasets.stream import VideoStream
from ..exceptions import SchedulingError
from .gpu import GPUFleet


@dataclass
class EdgeServerSpec:
    """Static description of an edge deployment.

    Attributes
    ----------
    num_gpus:
        Number of provisioned GPUs (the x-axis of Figure 7).
    delta:
        Smallest granularity of GPU allocation δ (Table 2); the policies
        built for this server also steal in increments Δ = δ (Figure 10).
    min_inference_accuracy:
        a_MIN — inference accuracy below which configurations are rejected.
    window_duration:
        Duration of one retraining window ∥T∥ in seconds.
    """

    num_gpus: int = 1
    delta: float = 0.1
    min_inference_accuracy: float = 0.4
    window_duration: float = 200.0

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise SchedulingError("num_gpus must be >= 1")
        if not 0 < self.delta <= self.num_gpus:
            raise SchedulingError("delta must be in (0, num_gpus]")
        if not 0.0 <= self.min_inference_accuracy < 1.0:
            raise SchedulingError("min_inference_accuracy must be in [0, 1)")
        if self.window_duration <= 0:
            raise SchedulingError("window_duration must be positive")


class EdgeServer:
    """One edge server hosting inference + retraining for several streams.

    ``allow_empty`` relaxes the at-least-one-stream requirement: a fleet site
    starts with no streams and receives them through admission/migration, so
    its server must exist (GPUs and all) before any stream is attached.
    """

    def __init__(
        self,
        spec: EdgeServerSpec,
        streams: Sequence[VideoStream],
        *,
        allow_empty: bool = False,
    ) -> None:
        if not streams and not allow_empty:
            raise SchedulingError("an edge server needs at least one attached stream")
        names = [stream.name for stream in streams]
        if len(set(names)) != len(names):
            raise SchedulingError("stream names must be unique")
        self.spec = spec
        self.fleet = GPUFleet(spec.num_gpus)
        self._streams: Dict[str, VideoStream] = {stream.name: stream for stream in streams}

    # ------------------------------------------------------------- accessors
    @property
    def streams(self) -> List[VideoStream]:
        return list(self._streams.values())

    @property
    def stream_names(self) -> List[str]:
        return list(self._streams.keys())

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    def stream(self, name: str) -> VideoStream:
        try:
            return self._streams[name]
        except KeyError as exc:
            raise SchedulingError(f"no stream named {name!r} on this server") from exc

    # -------------------------------------------------------------- mutation
    def attach_stream(self, stream: VideoStream) -> None:
        """Attach a newly admitted or migrated-in stream."""
        if stream.name in self._streams:
            raise SchedulingError(f"stream {stream.name!r} is already attached")
        self._streams[stream.name] = stream

    def detach_stream(self, name: str) -> VideoStream:
        """Detach a stream (migration out / site evacuation) and return it."""
        try:
            return self._streams.pop(name)
        except KeyError as exc:
            raise SchedulingError(f"no stream named {name!r} on this server") from exc

    def __repr__(self) -> str:
        return (
            f"EdgeServer(gpus={self.spec.num_gpus}, streams={self.num_streams}, "
            f"delta={self.spec.delta}, window={self.spec.window_duration}s)"
        )
