"""The thief resource scheduler (Algorithm 1).

The thief scheduler makes the joint retraining/inference problem tractable by
decoupling resource allocation from configuration selection.  Starting from a
fair allocation, every job in turn plays the "thief": it steals GPU quanta Δ
from each other job as long as doing so improves the estimated inference
accuracy averaged over the retraining window (computed by ``PickConfigs``),
and stops as soon as the accuracy stops improving.

Hot-path implementation notes (the behaviour is the paper's Algorithm 1):

* Allocations live on the integer-quantum lattice of
  :class:`~repro.cluster.resources.AllocationVector`; a candidate steal is an
  O(1) integer mutation that is *undone* by the inverse transfer when the
  trajectory is abandoned — no per-candidate vector copies, no float drift.
* A steal perturbs exactly one or two streams, so the window objective is
  maintained incrementally: a running per-stream accuracy sum is updated with
  only the affected streams' deltas instead of re-running PickConfigs over
  every stream per candidate.
* Per-stream decisions come from the vectorised
  :class:`~repro.core.candidate_table.CandidateTable`, which memoises whole
  retraining-level columns on exact integer keys, making almost every
  candidate evaluation a dictionary lookup.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..cluster.jobs import inference_job_id, retraining_job_id
from ..cluster.resources import AllocationVector
from ..exceptions import SchedulingError
from ..utils.clock import Clock, Stopwatch
from ..utils.math_utils import safe_mean
from .candidate_table import CandidateTable, build_candidate_tables
from .pick_configs import IMPROVEMENT_EPS as _IMPROVEMENT_EPS
from .types import ScheduleRequest, Scheduler, WindowSchedule

#: Consecutive non-improving steals a thief tolerates before it moves on to
#: the next victim.  The paper's Algorithm 1 stops at the first
#: non-improving steal (patience 1); a small look-ahead avoids a local
#: minimum where a retraining job needs several quanta before its retraining
#: can complete inside the window at all, so nothing improves until the
#: allocation crosses that threshold.  Both sweeps read it at call time, so
#: tests patch it here.
PATIENCE = 4


class ThiefScheduler(Scheduler):
    """Ekya's accuracy-optimising scheduler.

    Parameters
    ----------
    steal_quantum:
        The stealing increment Δ, positive and finite.  Defaults to the
        request's allocation unit δ; Figure 10 studies its sensitivity.
    release_retraining_gpu_to_inference:
        Whether the accuracy estimator assumes the retraining job's GPUs flow
        back to the stream's inference job after the retraining completes
        (Ekya re-invokes the scheduler at that point, so the default is True).
    clock:
        Clock used to measure ``scheduler_runtime_seconds``; tests inject a
        :class:`~repro.utils.clock.ManualClock` for deterministic schedules.
    """

    name = "ekya-thief"

    def __init__(
        self,
        *,
        steal_quantum: Optional[float] = None,
        release_retraining_gpu_to_inference: bool = True,
        clock: Optional[Clock] = None,
    ) -> None:
        if steal_quantum is not None and not 0 < steal_quantum < math.inf:
            raise SchedulingError(
                f"steal_quantum must be positive and finite, got {steal_quantum}"
            )
        self._steal_quantum = steal_quantum
        self._release = release_retraining_gpu_to_inference
        self._clock = clock

    # ------------------------------------------------------------- interface
    @staticmethod
    def fair_start(request: ScheduleRequest, quantum: float) -> AllocationVector:
        """The thief's lattice-aligned fair starting allocation.

        Remainder quanta that cannot be split evenly go to inference jobs
        (one per stream) before any retraining job: under heavy contention
        every stream should be able to serve its live video before any
        stream retrains.
        """
        job_ids: List[str] = []
        inference_first: List[str] = []
        for name in request.streams:
            job_ids.extend((inference_job_id(name), retraining_job_id(name)))
            inference_first.append(inference_job_id(name))
        inference_first.extend(retraining_job_id(name) for name in request.streams)
        return AllocationVector.fair(
            job_ids,
            request.total_gpus,
            quantum=quantum,
            remainder_priority=inference_first,
        )

    def schedule(self, request: ScheduleRequest) -> WindowSchedule:
        watch = Stopwatch(self._clock)
        quantum = self._steal_quantum if self._steal_quantum is not None else request.delta
        quantum = min(quantum, request.total_gpus)

        stream_names = list(request.streams)
        job_ids: List[str] = []
        job_stream: Dict[str, str] = {}
        stream_jobs: Dict[str, Tuple[str, str]] = {}
        for name in stream_names:
            inference = inference_job_id(name)
            retraining = retraining_job_id(name)
            job_ids.extend((inference, retraining))
            job_stream[inference] = name
            job_stream[retraining] = name
            stream_jobs[name] = (inference, retraining)

        allocation = self.fair_start(request, quantum)
        tables: Dict[str, CandidateTable] = build_candidate_tables(
            request.streams,
            window_seconds=request.window_seconds,
            a_min=request.a_min,
            quantum=allocation.quantum,
            total_units=allocation.total_units,
            release_retraining_gpu_to_inference=self._release,
        )

        # Committed state: per-stream window accuracy under the best-so-far
        # allocation, and its running sum (the incremental objective).
        num_streams = len(stream_names)
        accuracy_of: Dict[str, float] = {}
        for name in stream_names:
            inference, retraining = stream_jobs[name]
            accuracy_of[name] = tables[name].accuracy_at(
                allocation.units(inference), allocation.units(retraining)
            )
        accuracy_sum = sum(accuracy_of.values())
        best_accuracy = accuracy_sum / num_streams
        iterations = 1

        # One sweep, as in the paper: later thieves see the allocations
        # earlier ones left.
        patience = PATIENCE
        for thief_job in job_ids:
            thief_stream = job_stream[thief_job]
            for victim_job in job_ids:
                if thief_job == victim_job:
                    continue
                victim_stream = job_stream[victim_job]
                thief_inf, thief_ret = stream_jobs[thief_stream]
                misses = 0
                pending = 0  # uncommitted quanta moved victim -> thief
                while True:
                    if not allocation.steal_units(thief_job, victim_job, 1):
                        break
                    pending += 1
                    iterations += 1
                    # A steal perturbs at most these two streams; every
                    # other stream's decision — and its contribution to
                    # the window objective — is unchanged.
                    new_thief = tables[thief_stream].accuracy_at(
                        allocation.units(thief_inf), allocation.units(thief_ret)
                    )
                    new_sum = accuracy_sum - accuracy_of[thief_stream] + new_thief
                    if victim_stream != thief_stream:
                        victim_inf, victim_ret = stream_jobs[victim_stream]
                        new_victim = tables[victim_stream].accuracy_at(
                            allocation.units(victim_inf), allocation.units(victim_ret)
                        )
                        new_sum += new_victim - accuracy_of[victim_stream]
                    accuracy = new_sum / num_streams
                    if accuracy > best_accuracy + _IMPROVEMENT_EPS:
                        accuracy_of[thief_stream] = new_thief
                        if victim_stream != thief_stream:
                            accuracy_of[victim_stream] = new_victim
                        accuracy_sum = new_sum
                        best_accuracy = accuracy
                        pending = 0
                        misses = 0
                    else:
                        misses += 1
                        if misses >= patience:
                            break
                if pending:
                    # Abandon the non-improving tail of this trajectory: the
                    # inverse transfer restores the committed lattice point
                    # exactly.
                    allocation.steal_units(victim_job, thief_job, pending)

        decisions = {}
        for name in stream_names:
            inference, retraining = stream_jobs[name]
            decisions[name] = tables[name].decision(
                allocation.units(inference), allocation.units(retraining)
            )
        # Report the window objective with the same arithmetic PickConfigs
        # uses (np.mean over the streams), not the incremental running sum,
        # so the number is comparable bit-for-bit across scheduler paths.
        schedule = WindowSchedule(
            window_index=request.window_index,
            decisions=decisions,
            estimated_average_accuracy=safe_mean(
                [d.estimated_average_accuracy for d in decisions.values()]
            ),
            scheduler_runtime_seconds=watch.elapsed(),
            iterations=iterations,
            pick_configs_evaluations=sum(table.evaluations for table in tables.values()),
        )
        schedule.validate_against(request)
        return schedule
