"""Profile storage across streams and windows.

The micro-profiler prunes configurations "that have historically not been
useful" (§4.3), which requires remembering past windows' resource–accuracy
observations.  :class:`ProfileStore` keeps every
:class:`~repro.profiles.profile.StreamWindowProfile` produced so far, exposes
the aggregated history needed for pruning, and can be serialised so that
testbed-logged profiles can be replayed by the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..configs.retraining import RetrainingConfig
from ..exceptions import ProfilingError
from ..utils.serialization import to_jsonable
from .profile import RetrainingEstimate, StreamWindowProfile


class ProfileStore:
    """In-memory store of per-(stream, window) retraining profiles."""

    def __init__(self) -> None:
        self._profiles: Dict[Tuple[str, int], StreamWindowProfile] = {}
        #: Per-stream index over the same profiles.  ``history_for`` is
        #: called once per stream per window, so scanning the whole store
        #: there is quadratic in windows for long runs; the index makes it
        #: O(own windows) instead.
        self._by_stream: Dict[str, Dict[int, StreamWindowProfile]] = {}

    # ------------------------------------------------------------------ CRUD
    def put(self, profile: StreamWindowProfile) -> None:
        self._profiles[(profile.stream_name, profile.window_index)] = profile
        self._by_stream.setdefault(profile.stream_name, {})[profile.window_index] = profile

    def get(self, stream_name: str, window_index: int) -> StreamWindowProfile:
        try:
            return self._profiles[(stream_name, window_index)]
        except KeyError as exc:
            raise ProfilingError(
                f"no profile stored for stream {stream_name!r}, window {window_index}"
            ) from exc

    def maybe_get(self, stream_name: str, window_index: int) -> Optional[StreamWindowProfile]:
        return self._profiles.get((stream_name, window_index))

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    # --------------------------------------------------------------- history
    def windows_for(self, stream_name: str) -> List[int]:
        return sorted(self._by_stream.get(stream_name, ()))

    def history_for(
        self, stream_name: str, *, up_to_window: Optional[int] = None
    ) -> Dict[RetrainingConfig, Tuple[float, float]]:
        """Mean (gpu_seconds, accuracy) per configuration over past windows.

        This is the signal used to prune configurations far from the Pareto
        frontier before micro-profiling the next window.  Served from the
        per-stream index, so the cost is bounded by the stream's own window
        count rather than the whole store.
        """
        sums: Dict[RetrainingConfig, List[float]] = {}
        for window_index, profile in self._by_stream.get(stream_name, {}).items():
            if up_to_window is not None and window_index >= up_to_window:
                continue
            for config, estimate in profile.estimates.items():
                bucket = sums.setdefault(config, [0.0, 0.0, 0.0])
                bucket[0] += estimate.gpu_seconds
                bucket[1] += estimate.post_retraining_accuracy
                bucket[2] += 1.0
        return {
            config: (cost / count, accuracy / count)
            for config, (cost, accuracy, count) in sums.items()
            if count > 0
        }

    # --------------------------------------------------------------- export
    def as_dict(self) -> Dict:
        payload = {}
        for (stream_name, window_index), profile in self._profiles.items():
            payload[f"{stream_name}@{window_index}"] = {
                "stream_name": stream_name,
                "window_index": window_index,
                "start_accuracy": profile.start_accuracy,
                "estimates": [
                    {
                        "config": estimate.config.as_dict(),
                        "post_retraining_accuracy": estimate.post_retraining_accuracy,
                        "gpu_seconds": estimate.gpu_seconds,
                        "profiling_gpu_seconds": estimate.profiling_gpu_seconds,
                    }
                    for estimate in profile.estimates.values()
                ],
            }
        return to_jsonable(payload)

    @classmethod
    def from_dict(cls, payload: Dict) -> "ProfileStore":
        store = cls()
        for entry in payload.values():
            profile = StreamWindowProfile(
                stream_name=entry["stream_name"],
                window_index=int(entry["window_index"]),
                start_accuracy=float(entry["start_accuracy"]),
            )
            for est in entry["estimates"]:
                profile.add(
                    RetrainingEstimate(
                        config=RetrainingConfig.from_dict(est["config"]),
                        post_retraining_accuracy=float(est["post_retraining_accuracy"]),
                        gpu_seconds=float(est["gpu_seconds"]),
                        profiling_gpu_seconds=float(est.get("profiling_gpu_seconds", 0.0)),
                    )
                )
            store.put(profile)
        return store
