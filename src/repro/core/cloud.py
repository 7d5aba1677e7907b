"""Cloud-offloaded retraining baseline (§6.5, Table 4).

Instead of retraining on the edge, the sampled and golden-model-labelled
training frames are uploaded to the cloud over a constrained WAN link, the
model is retrained there (assumed instantaneous, a conservative assumption in
the paper), and the updated model is downloaded back to the edge.  The edge
GPUs meanwhile serve inference only.  The retrained model therefore only
becomes available after the network round trip — which on cellular/satellite
links eats most (or all) of the retraining window, so the stream spends the
window at the stale model's accuracy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..cluster.edge_server import EdgeServerSpec
from ..cluster.network import NetworkLink, training_data_megabits
from ..configs.space import ConfigurationSpace
from ..datasets.stream import VideoStream
from ..exceptions import SchedulingError
from ..models.edge_model import EDGE_MODEL_SIZE_MBITS
from ..utils.clock import Clock, Stopwatch
from .estimator import estimate_stream_average_accuracy
from .microprofiler import ProfileSource
from .pick_configs import pick_inference_config
from .policy import ProfiledPolicy
from .types import StreamDecision, WindowSchedule


class CloudRetrainingPolicy(ProfiledPolicy):
    """Retrain in the cloud; the edge only runs inference.

    Parameters
    ----------
    link:
        WAN link between the edge site and the cloud.  All streams share the
        link, so uploads/downloads are serialised across streams.
    stream_bitrate_mbps / sample_fraction:
        Size model of the uploaded training data (defaults match the paper's
        worked example: 4 Mbps HD video, 10 % subsampling).
    model_size_mbits:
        Size of the model downloaded after cloud retraining.
    clock:
        Clock used to measure the scheduler's own runtime.  Defaults to the
        system monotonic clock; tests inject a
        :class:`~repro.utils.clock.ManualClock` so simulation results are
        deterministic-comparable field for field.
    """

    def __init__(
        self,
        profile_source: ProfileSource,
        link: NetworkLink,
        config_space: ConfigurationSpace | None = None,
        *,
        stream_bitrate_mbps: float = 4.0,
        sample_fraction: float = 0.1,
        model_size_mbits: float = EDGE_MODEL_SIZE_MBITS,
        name: Optional[str] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(profile_source, config_space)
        if stream_bitrate_mbps <= 0 or model_size_mbits <= 0:
            raise SchedulingError("bitrate and model size must be positive")
        if not 0.0 < sample_fraction <= 1.0:
            raise SchedulingError("sample_fraction must be in (0, 1]")
        self._link = link
        self._stream_bitrate = stream_bitrate_mbps
        self._sample_fraction = sample_fraction
        self._model_size_mbits = model_size_mbits
        self._clock = clock
        self.name = name or f"cloud ({link.name})"

    @property
    def link(self) -> NetworkLink:
        return self._link

    # ------------------------------------------------------------- interface
    def model_arrival_times(self, num_streams: int, window_seconds: float) -> list:
        """When each stream's retrained model lands back on the edge.

        The WAN link is shared by all cameras: every camera's training data
        must be uploaded before cloud retraining can produce its model (the
        uplink is the bottleneck the paper's worked example highlights), and
        the retrained models then come back one after another over the
        downlink.  Stream ``i`` therefore sees its new model at
        ``N·T_up + (i+1)·T_down`` seconds into the window.
        """
        upload_mbits = training_data_megabits(
            stream_bitrate_mbps=self._stream_bitrate,
            window_seconds=window_seconds,
            sample_fraction=self._sample_fraction,
        )
        upload_seconds = self._link.upload_seconds(upload_mbits)
        download_seconds = self._link.download_seconds(self._model_size_mbits)
        all_uploads_done = num_streams * upload_seconds
        return [
            all_uploads_done + (position + 1) * download_seconds
            for position in range(num_streams)
        ]

    def plan_window(
        self,
        streams: Sequence[VideoStream],
        window_index: int,
        spec: EdgeServerSpec,
    ) -> WindowSchedule:
        request = self.build_request(streams, window_index, spec)
        watch = Stopwatch(self._clock)
        per_stream_gpu = request.total_gpus / len(request.streams)
        arrivals = self.model_arrival_times(len(request.streams), request.window_seconds)

        decisions: Dict[str, StreamDecision] = {}
        for position, (name, stream_input) in enumerate(request.streams.items()):
            profile = stream_input.profile
            inference_config = pick_inference_config(
                stream_input, per_stream_gpu, a_min=request.a_min
            )
            best_config = max(
                profile.estimates,
                key=lambda cfg: profile.estimates[cfg].post_retraining_accuracy,
                default=None,
            )
            arrival = arrivals[position]
            post_accuracy = (
                profile.estimates[best_config].post_retraining_accuracy
                if best_config is not None
                else None
            )
            evaluation = estimate_stream_average_accuracy(
                start_accuracy=profile.start_accuracy,
                post_retraining_accuracy=post_accuracy,
                retraining_gpu_seconds=0.0,
                inference_config=inference_config,
                inference_gpu=per_stream_gpu,
                retraining_gpu=0.0,
                window_seconds=request.window_seconds,
                external_retraining_duration=arrival,
            )
            decisions[name] = StreamDecision(
                stream_name=name,
                inference_config=inference_config,
                inference_gpu=per_stream_gpu,
                retraining_config=best_config,
                retraining_gpu=0.0,
                estimated_average_accuracy=evaluation.average_accuracy,
                external_completion_seconds=arrival,
            )

        mean_accuracy = sum(d.estimated_average_accuracy for d in decisions.values()) / len(decisions)
        schedule = WindowSchedule(
            window_index=request.window_index,
            decisions=decisions,
            estimated_average_accuracy=mean_accuracy,
            scheduler_runtime_seconds=watch.elapsed(),
            iterations=1,
        )
        schedule.validate_against(request)
        return schedule

    # ------------------------------------------------------------- reporting
    def bandwidth_multiple_to_finish_in(
        self,
        target_seconds: float,
        *,
        num_streams: int,
        window_seconds: float,
    ) -> Dict[str, float]:
        """How much more uplink/downlink capacity would be needed.

        Table 4's right-hand columns: the factor by which the link's uplink
        and downlink would have to grow for all streams' transfers to finish
        within ``target_seconds``.
        """
        if target_seconds <= 0 or num_streams < 1:
            raise SchedulingError("target_seconds must be positive and num_streams >= 1")
        upload_mbits = num_streams * training_data_megabits(
            stream_bitrate_mbps=self._stream_bitrate,
            window_seconds=window_seconds,
            sample_fraction=self._sample_fraction,
        )
        download_mbits = num_streams * self._model_size_mbits
        # Give each direction half of the target budget.
        needed_uplink = upload_mbits / (target_seconds / 2.0)
        needed_downlink = download_mbits / (target_seconds / 2.0)
        return {
            "uplink_multiple": needed_uplink / self._link.uplink_mbps,
            "downlink_multiple": needed_downlink / self._link.downlink_mbps,
        }
