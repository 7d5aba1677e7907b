"""The Ekya controller: micro-profiling + thief scheduling per window.

:class:`EkyaPolicy` is the full system: at the start of every retraining
window it micro-profiles (or queries the oracle profiler for) every stream's
candidate retraining configurations and runs the thief scheduler over the
resulting profiles.  Two ablated variants reproduce the factor analysis of
Figure 8:

* ``fixed_resources=True`` (Ekya-FixedRes) keeps the uniform baseline's
  static inference/retraining split but still selects configurations with the
  micro-profiled estimates.
* ``fixed_retraining_config`` (Ekya-FixedConfig) keeps the thief scheduler's
  adaptive allocation but always retrains with one fixed configuration.

The thief runs as :class:`~repro.core.batched_planner.BatchedThiefScheduler`,
which is bit-identical to the scalar :class:`~repro.core.thief.ThiefScheduler`
(the property suite's oracle) and solves many requests in one call.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..cluster.edge_server import EdgeServerSpec
from ..cluster.jobs import inference_job_id, retraining_job_id
from ..configs.retraining import RetrainingConfig
from ..configs.space import ConfigurationSpace
from ..datasets.stream import VideoStream
from ..exceptions import SchedulingError
from ..utils.clock import Clock, Stopwatch
from .baselines import even_stream_share
from .batched_planner import BatchedThiefScheduler
from .microprofiler import ProfileSource
from .pick_configs import pick_configs
from .policy import ProfiledPolicy
from .types import ScheduleRequest, WindowSchedule


class EkyaPolicy(ProfiledPolicy):
    """Full Ekya: joint configuration selection and resource allocation."""

    def __init__(
        self,
        profile_source: ProfileSource,
        config_space: ConfigurationSpace | None = None,
        *,
        steal_quantum: Optional[float] = None,
        fixed_resources: bool = False,
        inference_share_when_fixed: float = 0.5,
        fixed_retraining_config: Optional[RetrainingConfig] = None,
        name: Optional[str] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(profile_source, config_space)
        if not 0.0 < inference_share_when_fixed < 1.0:
            raise SchedulingError("inference_share_when_fixed must be in (0, 1)")
        self._clock = clock
        self._scheduler = BatchedThiefScheduler(steal_quantum=steal_quantum, clock=clock)
        self._fixed_resources = fixed_resources
        self._inference_share = inference_share_when_fixed
        self._fixed_config = fixed_retraining_config
        if name is not None:
            self.name = name
        elif fixed_resources:
            self.name = "ekya-fixedres"
        elif fixed_retraining_config is not None:
            self.name = "ekya-fixedconfig"
        else:
            self.name = "ekya"

    # ------------------------------------------------------------- interface
    @property
    def scheduler(self) -> BatchedThiefScheduler:
        """The thief scheduler instance planning this policy's windows."""
        return self._scheduler

    def prepare_request(
        self,
        streams: Sequence[VideoStream],
        window_index: int,
        spec: EdgeServerSpec,
    ) -> ScheduleRequest:
        """Build (and profile) this window's request without solving it.

        The profiling half of :meth:`plan_window`: all profile-source side
        effects (micro-profiling cost, estimator-error draws) happen here,
        in call order, so a fleet that batches many sites' *solves* into one
        call still profiles site by site, in boundary order.
        """
        request = self.build_request(streams, window_index, spec)
        if self._fixed_config is not None:
            request = self._restrict_to_fixed_config(request)
        return request

    def solve_cohort(
        self, requests: Mapping[str, ScheduleRequest]
    ) -> Dict[str, WindowSchedule]:
        """Solve prepared requests, keyed as given, in one scheduler call.

        The fleet event loop hands it every site planning at one instant;
        :meth:`plan_window` hands it a cohort of one.  Solving commits
        nothing, so batching many sites' solves changes no decision.  The
        fixed-resources ablation keeps its static split per request.
        """
        if self._fixed_resources:
            return {
                key: self._plan_with_fixed_resources(request)
                for key, request in requests.items()
            }
        return self._scheduler.schedule_cohort(requests)

    def plan_window(
        self,
        streams: Sequence[VideoStream],
        window_index: int,
        spec: EdgeServerSpec,
    ) -> WindowSchedule:
        request = self.prepare_request(streams, window_index, spec)
        return self.solve_cohort({"": request})[""]

    # -------------------------------------------------------------- variants
    def _restrict_to_fixed_config(self, request: ScheduleRequest) -> ScheduleRequest:
        """Keep only the fixed retraining configuration in every profile."""
        assert self._fixed_config is not None
        for stream_input in request.streams.values():
            estimates = stream_input.profile.estimates
            kept = {
                config: est for config, est in estimates.items() if config.key() == self._fixed_config.key()
            }
            if kept:
                stream_input.profile.estimates = kept
        return request

    def _plan_with_fixed_resources(self, request: ScheduleRequest) -> WindowSchedule:
        """Static per-stream split, configuration choice still profile-driven."""
        watch = Stopwatch(self._clock)
        per_stream = even_stream_share(request.total_gpus, len(request.streams))
        allocation: Dict[str, float] = {}
        for name in request.streams:
            allocation[inference_job_id(name)] = per_stream * self._inference_share
            allocation[retraining_job_id(name)] = per_stream * (1.0 - self._inference_share)
        decisions, accuracy = pick_configs(request, allocation)
        schedule = WindowSchedule(
            window_index=request.window_index,
            decisions=decisions,
            estimated_average_accuracy=accuracy,
            scheduler_runtime_seconds=watch.elapsed(),
            iterations=1,
        )
        schedule.validate_against(request)
        return schedule
