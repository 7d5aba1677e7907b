"""Trace-driven simulator of joint retraining and inference.

The simulator plays the role of the paper's trace-driven simulator (§6.1): it
executes a :class:`~repro.core.policy.WindowPolicy` window by window against
an accuracy-dynamics substrate, computes every stream's *realised* inference
accuracy over each window (stale model while retraining, retrained model
afterwards, degraded by the chosen inference configuration and allocation),
advances the per-stream model state, and aggregates the metric the paper
optimises — inference accuracy averaged over retraining windows and streams.

Importantly, the realised accuracy uses the dynamics' true values, not the
profiler's estimates, so estimation error shows up as mis-scheduling (exactly
how it hurts the real system), not as mis-measurement.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Mapping, Optional, Tuple

from ..cluster.edge_server import EdgeServer
from ..cluster.placement import place_jobs
from ..core.estimator import AccuracyEstimate, estimate_stream_average_accuracy
from ..core.policy import WindowPolicy
from ..core.types import ScheduleRequest, StreamDecision, WindowSchedule
from ..datasets.stream import VideoStream
from ..exceptions import SimulationError
from ..profiles.dynamics import StreamDynamics
from ..utils.math_utils import safe_mean


@dataclass
class StreamWindowOutcome:
    """Realised result for one stream in one retraining window."""

    stream_name: str
    window_index: int
    decision: StreamDecision
    start_accuracy: float
    post_retraining_accuracy: Optional[float]
    realized_average_accuracy: float
    accuracy_during_retraining: float
    accuracy_after_retraining: float
    retraining_duration: float
    retraining_completed: bool
    minimum_instantaneous_accuracy: float
    #: Duration of the retraining window the outcome was realised over.
    #: Required at construction: a backfilled default of 0.0 used to make
    #: :attr:`timeline` silently emit zero-length segments.
    decision_window_seconds: float

    def __post_init__(self) -> None:
        if self.decision_window_seconds <= 0:
            raise SimulationError(
                "decision_window_seconds must be positive (the retraining "
                "window this outcome was realised over)"
            )

    @property
    def timeline(self) -> List[Tuple[float, float]]:
        """Piecewise-constant (duration, accuracy) segments of this window."""
        if not self.retraining_completed or self.retraining_duration <= 0:
            return [(self.decision_window_seconds, self.accuracy_during_retraining)]
        return [
            (self.retraining_duration, self.accuracy_during_retraining),
            (
                max(0.0, self.decision_window_seconds - self.retraining_duration),
                self.accuracy_after_retraining,
            ),
        ]


@dataclass
class WindowResult:
    """All streams' outcomes plus the schedule for one window."""

    window_index: int
    schedule: WindowSchedule
    outcomes: Dict[str, StreamWindowOutcome] = field(default_factory=dict)
    #: GPU fraction lost to inverse-power-of-two quantisation when the
    #: schedule was packed onto physical devices (``Placement.allocation_loss``).
    allocation_loss: float = 0.0

    @property
    def mean_accuracy(self) -> float:
        return safe_mean([o.realized_average_accuracy for o in self.outcomes.values()])

    @property
    def num_retrained(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.retraining_completed)


@dataclass
class PlannedStream:
    """One stream's share of a planned-but-not-yet-settled window.

    Captures everything :meth:`Simulator.settle_stream` needs to realise the
    stream's outcome later — the scheduler's decision, the dynamics' answers
    for this window (queried once, at plan time) and the planned
    :class:`~repro.core.estimator.AccuracyEstimate`.  The live
    :class:`~repro.datasets.stream.VideoStream` is kept so the dynamics can
    be committed even after the stream has detached from the site (a
    mid-window migration must still settle the window it left behind).
    """

    stream: VideoStream
    decision: StreamDecision
    start_accuracy: float
    post_retraining_accuracy: Optional[float]
    #: Retraining cost at 100 % GPU allocation (0.0 when not retraining).
    retraining_gpu_seconds: float
    #: Planned estimate; settle reuses it verbatim unless overridden.
    estimate: AccuracyEstimate
    #: Seconds into the window before which the retraining cannot start and
    #: burns no GPU (the WAN transfer delay of a migrated-in stream; 0.0
    #: for a retraining that starts at the boundary).  Preemption accounting
    #: must not count this idle wait as reclaimable work, and an accelerated
    #: completion can never land before it.
    retraining_start_offset: float = 0.0
    #: False when the completion time is fixed externally (cloud-offloaded
    #: retraining): extra GPU allocation cannot accelerate such a job.
    allocation_driven: bool = True


@dataclass
class WindowPlan:
    """The plan phase of one retraining window, before anything is realised.

    Produced by :meth:`Simulator.plan_window`: the schedule is computed, the
    placement verified and every stream's accuracy estimate derived — but no
    outcome is realised and the dynamics are untouched, so the settle phase
    can be invoked per stream at its own (possibly early) completion time,
    or cancelled outright.  ``result`` is the incrementally filled
    :class:`WindowResult`; a stream is *settled* once its outcome is in
    ``result.outcomes``.
    """

    window_index: int
    window_seconds: float
    schedule: WindowSchedule
    result: WindowResult
    streams: Dict[str, PlannedStream] = field(default_factory=dict)

    def completion_offsets(self) -> Dict[str, float]:
        """Seconds into the window at which each retraining completes.

        Only streams whose planned retraining finishes inside the window
        appear; the offset is the planned
        :attr:`~repro.core.estimator.AccuracyEstimate.retraining_duration`
        (start delays from WAN transfers already included).
        """
        return {
            name: planned.estimate.retraining_duration
            for name, planned in self.streams.items()
            if planned.estimate.retraining_completes
        }

    def settled(self, stream_name: str) -> bool:
        return stream_name in self.result.outcomes

    def pending_streams(self) -> List[str]:
        """Planned streams not yet settled, in plan order."""
        return [name for name in self.streams if name not in self.result.outcomes]


@dataclass
class SimulationResult:
    """Aggregate outcome of a multi-window simulation run."""

    policy_name: str
    num_gpus: int
    windows: List[WindowResult] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        """The paper's headline metric: accuracy averaged over windows and streams."""
        return safe_mean([w.mean_accuracy for w in self.windows])

    @property
    def per_stream_accuracy(self) -> Dict[str, float]:
        totals: Dict[str, List[float]] = {}
        for window in self.windows:
            for name, outcome in window.outcomes.items():
                totals.setdefault(name, []).append(outcome.realized_average_accuracy)
        return {name: safe_mean(values) for name, values in totals.items()}

    @property
    def mean_scheduler_runtime(self) -> float:
        return safe_mean([w.schedule.scheduler_runtime_seconds for w in self.windows])

    @property
    def mean_allocation_loss(self) -> float:
        """Mean per-window GPU fraction lost to placement quantisation."""
        return safe_mean([w.allocation_loss for w in self.windows])

    @property
    def total_allocation_loss(self) -> float:
        """Total GPU fraction lost to placement quantisation over the run."""
        return float(sum(w.allocation_loss for w in self.windows))

    @property
    def total_retrainings(self) -> int:
        return sum(w.num_retrained for w in self.windows)

    def minimum_instantaneous_accuracy(self) -> float:
        """Lowest instantaneous accuracy observed anywhere in the run."""
        values = [
            outcome.minimum_instantaneous_accuracy
            for window in self.windows
            for outcome in window.outcomes.values()
        ]
        return min(values) if values else 0.0

    def allocation_timeline(self, stream_name: str) -> List[Dict[str, float]]:
        """Per-window inference/retraining allocations for one stream (Figure 9)."""
        timeline = []
        for window in self.windows:
            outcome = window.outcomes.get(stream_name)
            if outcome is None:
                continue
            timeline.append(
                {
                    "window_index": window.window_index,
                    "inference_gpu": outcome.decision.inference_gpu,
                    "retraining_gpu": outcome.decision.retraining_gpu,
                    "retrained": float(outcome.retraining_completed),
                    "accuracy": outcome.realized_average_accuracy,
                }
            )
        return timeline


class Simulator:
    """Executes a window policy against an accuracy-dynamics substrate."""

    def __init__(
        self,
        server: EdgeServer,
        dynamics: StreamDynamics,
        policy: WindowPolicy,
        *,
        sanitize: bool = False,
    ) -> None:
        self._server = server
        self._dynamics = dynamics
        self._policy = policy
        self._sanitizer = None
        if sanitize:
            # Local import: the analysis package is debug tooling layered on
            # top of the engine, not an engine dependency.
            from ..analysis.sanitizer import PuritySanitizer

            self._sanitizer = PuritySanitizer()

    @property
    def server(self) -> EdgeServer:
        return self._server

    @property
    def policy(self) -> WindowPolicy:
        return self._policy

    @property
    def dynamics(self) -> StreamDynamics:
        return self._dynamics

    def prepare_request(self, window_index: int) -> ScheduleRequest:
        """Build (and profile) this window's scheduling request, unsolved.

        The fleet's event loop splits the policy's ``plan_window`` in two:
        the request — including every profiling side effect — is built per
        site, in boundary order, by this method; the pure solve then runs
        once for the whole same-instant cohort
        (:meth:`~repro.core.controller.EkyaPolicy.solve_cohort`), and the
        resulting schedule comes back through
        ``plan_window(..., preplanned=...)``.  Requires a policy exposing
        ``prepare_request`` (e.g. :class:`~repro.core.controller.EkyaPolicy`).
        Sanitized like :meth:`plan_window`, since profiling is planning.
        """
        prepare = getattr(self._policy, "prepare_request", None)
        if prepare is None:
            raise SimulationError(
                f"policy {self._policy.name!r} does not support prepared requests"
            )
        with self._guarded(f"prepare_request({window_index})"):
            return prepare(self._server.streams, window_index, self._server.spec)

    def _guarded(self, context: str) -> ContextManager[None]:
        """The plan-phase purity guard, or a no-op when not sanitizing."""
        if self._sanitizer is None:
            return contextlib.nullcontext()
        return self._sanitizer.guard(
            context,
            dynamics=self._dynamics,
            streams={stream.name: stream for stream in self._server.streams},
            server_spec=self._server.spec,
        )

    # -------------------------------------------------------------- execution
    def run(self, num_windows: int, *, start_window: int = 0) -> SimulationResult:
        """Simulate ``num_windows`` consecutive retraining windows."""
        if num_windows < 1:
            raise SimulationError("num_windows must be >= 1")
        if start_window < 0:
            raise SimulationError("start_window must be non-negative")
        result = SimulationResult(
            policy_name=self._policy.name, num_gpus=self._server.spec.num_gpus
        )
        for window_index in range(start_window, start_window + num_windows):
            result.windows.append(self.run_window(window_index))
        return result

    def run_window(
        self,
        window_index: int,
        *,
        retraining_delays: Optional[Mapping[str, float]] = None,
        preplanned: Optional[WindowSchedule] = None,
    ) -> WindowResult:
        """Plan and settle a single retraining window atomically.

        Equivalent to :meth:`plan_window` immediately followed by
        :meth:`settle_window` — the whole-window path of the single-server
        simulation.

        ``retraining_delays`` maps stream names to seconds their retraining
        cannot start into the window (the fleet layer uses this for the WAN
        transfer of a migrated stream's checkpoint + profile).  The delay
        extends the retraining's wall-clock completion, so a run that no
        longer fits the window realises no benefit *and* is not committed to
        the dynamics — realised accuracy and model state stay consistent.
        """
        return self.settle_window(
            self.plan_window(
                window_index, retraining_delays=retraining_delays, preplanned=preplanned
            )
        )

    def plan_window(
        self,
        window_index: int,
        *,
        retraining_delays: Optional[Mapping[str, float]] = None,
        preplanned: Optional[WindowSchedule] = None,
    ) -> WindowPlan:
        """Plan one window without realising any outcome.

        Runs the policy, verifies placement, queries the dynamics once per
        stream and derives each stream's planned accuracy estimate — whose
        ``retraining_duration`` is the per-stream completion time the fleet
        layer turns into :class:`~repro.fleet.calendar.RetrainingComplete`
        events.  The dynamics are *not* committed: that happens per stream
        in :meth:`settle_stream`, which may fire early (at the completion
        event), with a new completion time (reclaimed capacity accelerated
        the retraining) or as a cancellation (the stream migrated away).
        ``retraining_delays`` is as in :meth:`run_window`.

        ``preplanned`` short-circuits the policy call with a schedule
        already solved for this exact window — the fleet's cohort planning
        hands per-site schedules back through it.  Placement
        verification, accuracy estimates and plan assembly run unchanged.

        With ``sanitize=True`` the plan-phase purity sanitizer digests the
        dynamics, the attached streams and the server spec before and after
        planning and raises :class:`~repro.exceptions.PurityViolationError`
        on mutation (lazy memoisation excepted — see
        :mod:`repro.analysis.sanitizer`).  The GPU fleet is deliberately
        outside the digest: placement verification re-reserves GPUs while
        planning, and those reservations are scheduler scratch, not engine
        state.
        """
        with self._guarded(f"plan_window({window_index})"):
            return self._plan_window(
                window_index, retraining_delays=retraining_delays, preplanned=preplanned
            )

    def _plan_window(
        self,
        window_index: int,
        *,
        retraining_delays: Optional[Mapping[str, float]] = None,
        preplanned: Optional[WindowSchedule] = None,
    ) -> WindowPlan:
        spec = self._server.spec
        streams = self._server.streams
        if preplanned is not None:
            if preplanned.window_index != window_index:
                raise SimulationError(
                    f"preplanned schedule is for window {preplanned.window_index}, "
                    f"not {window_index}"
                )
            schedule = preplanned
        else:
            schedule = self._policy.plan_window(streams, window_index, spec)
        # The schedule must be physically placeable onto the GPUs after
        # quantisation; raises PlacementError otherwise.
        placement = place_jobs(schedule.allocation_map(), self._server.fleet)

        plan = WindowPlan(
            window_index=window_index,
            window_seconds=spec.window_duration,
            schedule=schedule,
            result=WindowResult(
                window_index=window_index,
                schedule=schedule,
                allocation_loss=placement.allocation_loss(),
            ),
        )
        for stream in streams:
            decision = schedule.decision_for(stream.name)
            delay = retraining_delays.get(stream.name, 0.0) if retraining_delays else 0.0
            start_accuracy = self._dynamics.start_accuracy(stream, window_index)
            post_accuracy: Optional[float] = None
            gpu_seconds = 0.0
            if decision.retraining_config is not None and decision.retrains:
                post_accuracy = self._dynamics.candidate_post_accuracy(
                    stream, window_index, decision.retraining_config
                )
                gpu_seconds = self._dynamics.retraining_gpu_seconds(
                    stream, window_index, decision.retraining_config
                )
            # A start delay turns the allocation-driven duration into a fixed
            # wall-clock completion time (the estimator's external path), so
            # the retrained model lands delay + training time into the window.
            external = decision.external_completion_seconds
            if delay > 0:
                if external is not None:
                    external += delay
                elif decision.retraining_gpu > 0 and gpu_seconds > 0:
                    external = delay + gpu_seconds / decision.retraining_gpu
            estimate = estimate_stream_average_accuracy(
                start_accuracy=start_accuracy,
                post_retraining_accuracy=post_accuracy,
                retraining_gpu_seconds=gpu_seconds,
                inference_config=decision.inference_config,
                inference_gpu=decision.inference_gpu,
                retraining_gpu=decision.retraining_gpu,
                window_seconds=spec.window_duration,
                external_retraining_duration=external,
            )
            plan.streams[stream.name] = PlannedStream(
                stream=stream,
                decision=decision,
                start_accuracy=start_accuracy,
                post_retraining_accuracy=post_accuracy,
                retraining_gpu_seconds=gpu_seconds,
                estimate=estimate,
                retraining_start_offset=delay if delay > 0 else 0.0,
                allocation_driven=decision.external_completion_seconds is None,
            )
        return plan

    def settle_stream(
        self,
        plan: WindowPlan,
        stream_name: str,
        *,
        completion_offset: Optional[float] = None,
        cancelled: bool = False,
    ) -> StreamWindowOutcome:
        """Realise one planned stream's outcome and commit the dynamics.

        Three settle modes:

        * default — the planned estimate is realised verbatim (what
          :meth:`settle_window` and the whole-window :meth:`run_window` do);
        * ``completion_offset`` — the retraining's realised wall-clock
          duration changed after planning (reclaimed GPU capacity from a
          cancelled neighbour accelerated it); the estimate is recomputed
          with the new completion time;
        * ``cancelled`` — the retraining was preempted mid-flight: the
          stream keeps its stale model for the whole window, no retrained
          state is committed, and the planned retraining benefit is lost.

        Settling a stream twice is an error — the caller (the fleet's
        event loop) owns exactly-once delivery.
        """
        planned = plan.streams.get(stream_name)
        if planned is None:
            raise SimulationError(
                f"stream {stream_name!r} is not part of window {plan.window_index}'s plan"
            )
        if plan.settled(stream_name):
            raise SimulationError(
                f"stream {stream_name!r} was already settled for window {plan.window_index}"
            )
        if cancelled:
            # No retrained model arrives: stale accuracy for the whole
            # window, exactly the estimator's no-retraining branch.
            estimate = estimate_stream_average_accuracy(
                start_accuracy=planned.start_accuracy,
                post_retraining_accuracy=None,
                retraining_gpu_seconds=0.0,
                inference_config=planned.decision.inference_config,
                inference_gpu=planned.decision.inference_gpu,
                retraining_gpu=planned.decision.retraining_gpu,
                window_seconds=plan.window_seconds,
            )
        elif completion_offset is not None:
            estimate = estimate_stream_average_accuracy(
                start_accuracy=planned.start_accuracy,
                post_retraining_accuracy=planned.post_retraining_accuracy,
                retraining_gpu_seconds=planned.retraining_gpu_seconds,
                inference_config=planned.decision.inference_config,
                inference_gpu=planned.decision.inference_gpu,
                retraining_gpu=planned.decision.retraining_gpu,
                window_seconds=plan.window_seconds,
                external_retraining_duration=completion_offset,
            )
        else:
            estimate = planned.estimate
        outcome = StreamWindowOutcome(
            stream_name=stream_name,
            window_index=plan.window_index,
            decision=planned.decision,
            start_accuracy=planned.start_accuracy,
            post_retraining_accuracy=planned.post_retraining_accuracy,
            realized_average_accuracy=estimate.average_accuracy,
            accuracy_during_retraining=estimate.accuracy_during_retraining,
            accuracy_after_retraining=estimate.accuracy_after_retraining,
            retraining_duration=estimate.retraining_duration,
            retraining_completed=estimate.retraining_completes,
            minimum_instantaneous_accuracy=estimate.minimum_instantaneous_accuracy,
            decision_window_seconds=plan.window_seconds,
        )
        plan.result.outcomes[stream_name] = outcome
        completed_config = (
            planned.decision.retraining_config if outcome.retraining_completed else None
        )
        self._dynamics.commit_window(planned.stream, plan.window_index, completed_config)
        return outcome

    def settle_window(self, plan: WindowPlan) -> WindowResult:
        """Settle every stream still pending in ``plan``, in plan order."""
        for name in plan.pending_streams():
            self.settle_stream(plan, name)
        return plan.result
