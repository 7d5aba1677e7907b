"""Vectorised per-stream candidate tables for Algorithm 2 (PickConfigs).

The thief scheduler (Algorithm 1) evaluates thousands of candidate
allocations per window, and every evaluation runs Algorithm 2 for the one or
two streams a steal perturbs.  The scalar implementation in
:mod:`repro.core.pick_configs` walks Python objects per candidate; this
module precomputes, once per window per stream, numpy arrays over the full
retraining×inference candidate grid — post-retraining accuracy, GPU-seconds,
inference accuracy-factors and GPU demands — and reimplements Algorithm 2's
inner search as vectorised masks + argmax over those arrays.

Because the thief moves allocations on an integer-quantum lattice
(:class:`repro.cluster.resources.AllocationVector`), a stream's decision is a
function of the pair ``(inference units, retraining units)``.  The table
evaluates one *column* of that lattice at a time — all retraining levels for
a fixed inference level in a single vectorised pass — and memoises the result
on exact integer keys, so repeated queries along a steal trajectory are O(1)
lookups.

The scalar path (:func:`repro.core.pick_configs.pick_configs_for_stream`)
is retained as the reference oracle; the property suite asserts the two are
equivalent decision-for-decision.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import SchedulingError
from .estimator import estimate_batch_average_accuracy
from .pick_configs import IMPROVEMENT_EPS as _IMPROVEMENT_EPS
from .types import StreamDecision, StreamWindowInput


def _sequential_select(
    avg_row,
    completes_row,
    meets_row,
    base_avg: float,
    base_meets: bool,
) -> Tuple[int, float]:
    """Reference semantics of Algorithm 2's candidate scan.

    Replicates ``pick_configs_for_stream``'s loop exactly, including the
    a_MIN preference rules and the strict-improvement epsilon, over
    precomputed value rows.  Returns ``(config_index, average_accuracy)``
    with ``-1`` meaning "no retraining".
    """
    best_j = -1
    best_avg = base_avg
    best_meets = base_meets
    for j, cand_avg in enumerate(avg_row):
        if not completes_row[j]:
            continue
        cand_meets = meets_row[j]
        better = cand_avg > best_avg + _IMPROVEMENT_EPS
        if cand_meets and not best_meets:
            better = cand_avg >= best_avg - _IMPROVEMENT_EPS or better
        elif not cand_meets and best_meets:
            better = False
        if better:
            best_j = j
            best_avg = cand_avg
            best_meets = cand_meets
    return best_j, best_avg


class _Column:
    """Decisions for every retraining level at one inference level.

    The per-level values are plain Python lists: the thief queries them once
    per candidate steal, and list indexing is several times cheaper than
    numpy scalar extraction on that path.
    """

    __slots__ = ("inference_index", "accuracy", "choice")

    def __init__(self, inference_index: int, accuracy: List[float], choice: List[int]) -> None:
        self.inference_index = inference_index
        self.accuracy = accuracy  # indexed by retraining units
        self.choice = choice  # config index; -1 = no retraining


class CandidateTable:
    """Vectorised Algorithm 2 for one stream over the allocation lattice."""

    def __init__(
        self,
        stream_input: StreamWindowInput,
        *,
        window_seconds: float,
        a_min: float,
        quantum: float,
        total_units: int,
        release_retraining_gpu_to_inference: bool = True,
    ) -> None:
        if window_seconds <= 0:
            raise SchedulingError("window_seconds must be positive")
        if quantum <= 0:
            raise SchedulingError("quantum must be positive")
        if total_units < 0:
            raise SchedulingError("total_units must be non-negative")
        self.stream_name = stream_input.stream_name
        self._window = float(window_seconds)
        self._a_min = float(a_min)
        self._quantum = float(quantum)
        self._total_units = int(total_units)
        self._release = release_retraining_gpu_to_inference

        profile = stream_input.profile
        self._start = float(profile.start_accuracy)
        self._retraining_configs = list(profile.estimates.keys())
        estimates = [profile.estimates[cfg] for cfg in self._retraining_configs]
        self._post = np.array(
            [est.post_retraining_accuracy for est in estimates], dtype=float
        )
        self._gpu_seconds = np.array([est.gpu_seconds for est in estimates], dtype=float)

        self._inference_configs = list(stream_input.inference_configs)
        self._demands = np.array(
            [float(cfg.gpu_demand or 0.0) for cfg in self._inference_configs], dtype=float
        )
        self._base_factors = np.array(
            [cfg.accuracy_factor() for cfg in self._inference_configs], dtype=float
        )
        self._demands_list = self._demands.tolist()
        self._base_list = self._base_factors.tolist()
        # a_MIN viability of each inference config at the stream's current
        # accuracy — allocation independent, so computed once.
        self._above_min = self._start * self._base_factors + 1e-9 >= self._a_min

        self._columns: Dict[int, _Column] = {}
        #: Number of vectorised Algorithm-2 executions (lattice columns
        #: computed).  Every other query is a memoised O(1) lookup.
        self.evaluations = 0

    # ------------------------------------------------------------- inference
    def _pick_inference_index(self, inference_gpu: float) -> int:
        """Vectorised twin of ``pick_inference_config`` (same tie-breaks)."""
        fitting = self._demands <= inference_gpu + 1e-9
        if fitting.any():
            pool = fitting & self._above_min
            if not pool.any():
                pool = fitting
            return int(np.argmax(np.where(pool, self._base_factors, -np.inf)))
        return int(np.argmin(self._demands))

    def _effective_factor(self, index: int, allocated_gpu: float) -> float:
        """``InferenceConfig.effective_accuracy_factor`` on cached scalars.

        Same arithmetic (and therefore bit-identical results), without
        re-deriving the base accuracy factor per call.
        """
        base = self._base_list[index]
        demand = self._demands_list[index]
        if demand <= 0 or allocated_gpu >= demand:
            return base
        if allocated_gpu == 0:
            return 0.0
        return base * float((allocated_gpu / demand) ** 0.4)

    # --------------------------------------------------------------- columns
    def _column(self, inference_units: int) -> _Column:
        column = self._columns.get(inference_units)
        if column is None:
            column = self._compute_column(inference_units)
            self._columns[inference_units] = column
        return column

    def _compute_column(self, inference_units: int) -> _Column:
        if not 0 <= inference_units <= self._total_units:
            raise SchedulingError(
                f"inference_units {inference_units} outside lattice [0, {self._total_units}]"
            )
        self.evaluations += 1
        inference_gpu = inference_units * self._quantum
        inference_index = self._pick_inference_index(inference_gpu)
        factor_during = self._effective_factor(inference_index, inference_gpu)
        accuracy_during = float(min(max(self._start * factor_during, 0.0), 1.0))
        base_meets = accuracy_during + 1e-9 >= self._a_min

        max_level = self._total_units - inference_units
        accuracy = np.full(max_level + 1, accuracy_during, dtype=float)
        choice = np.full(max_level + 1, -1, dtype=np.int64)
        num_configs = len(self._retraining_configs)
        if max_level < 1 or num_configs == 0:
            return _Column(inference_index, accuracy.tolist(), choice.tolist())

        retraining_gpus = np.arange(1, max_level + 1, dtype=float) * self._quantum
        if self._release:
            # Post-retraining the freed GPUs flow back to inference.  Above
            # the config's demand the factor saturates at its base value, so
            # only the handful of under-provisioned levels need the scalar
            # power-law computation (kept in Python for bit-identity with
            # the reference oracle).
            demand = self._demands_list[inference_index]
            base = self._base_list[inference_index]
            factor_after = np.full(max_level, base, dtype=float)
            post_gpus = inference_gpu + retraining_gpus
            if demand > 0:
                under = np.nonzero(post_gpus < demand)[0]
                for level in under.tolist():
                    factor_after[level] = self._effective_factor(
                        inference_index, float(post_gpus[level])
                    )
        else:
            factor_after = np.full(max_level, factor_during, dtype=float)

        batch = estimate_batch_average_accuracy(
            accuracy_during=accuracy_during,
            post_retraining_accuracies=self._post,
            retraining_gpu_seconds=self._gpu_seconds,
            inference_factor_after=factor_after[:, None],
            retraining_gpu=retraining_gpus[:, None],
            window_seconds=self._window,
            a_min=self._a_min,
        )
        avg = batch.average_accuracy
        completes = batch.completes
        meets = batch.meets_minimum

        if base_meets:
            # Fast path: non-meeting candidates can never displace a meeting
            # incumbent, so the winner is a masked argmax per level.  Levels
            # whose eligible values near-tie within the improvement epsilon
            # fall back to the sequential reference scan, which keeps the
            # vector path exactly equivalent to the oracle.
            masked = np.where(completes & meets, avg, -np.inf)
            best_j = np.argmax(masked, axis=1)
            best_vals = masked[np.arange(max_level), best_j]
            has_eligible = best_vals > -np.inf
            near_tie = (
                (masked >= best_vals[:, None] - _IMPROVEMENT_EPS)
                & (masked != best_vals[:, None])
            ).any(axis=1)
            accept = (
                has_eligible
                & ~near_tie
                & (best_vals > accuracy_during + _IMPROVEMENT_EPS)
            )
            choice[1:][accept] = best_j[accept]
            accuracy[1:][accept] = best_vals[accept]
            scan_levels = np.nonzero(has_eligible & near_tie)[0]
        else:
            scan_levels = np.arange(max_level)

        if scan_levels.size:
            avg_list = avg.tolist()
            completes_list = completes.tolist()
            meets_list = meets.tolist()
            for level in scan_levels.tolist():
                j, value = _sequential_select(
                    avg_list[level],
                    completes_list[level],
                    meets_list[level],
                    accuracy_during,
                    base_meets,
                )
                choice[level + 1] = j
                accuracy[level + 1] = value
        return _Column(inference_index, accuracy.tolist(), choice.tolist())

    # --------------------------------------------------------------- queries
    def _retraining_out_of_range(
        self, column: _Column, inference_units: int, retraining_units: int
    ) -> SchedulingError:
        # The memoised column may be a prefix the batched planner wrote, so
        # the bound is its length, not the lattice's.
        return SchedulingError(
            f"stream {self.stream_name!r}: retraining_units {retraining_units} outside "
            f"[0, {len(column.accuracy) - 1}] at inference_units {inference_units}"
        )

    def accuracy_at(self, inference_units: int, retraining_units: int) -> float:
        """Estimated window-average accuracy at one lattice point (memoised)."""
        column = self._columns.get(inference_units)
        if column is None:
            column = self._column(inference_units)
        accuracy = column.accuracy
        if 0 <= retraining_units < len(accuracy):
            return accuracy[retraining_units]
        raise self._retraining_out_of_range(column, inference_units, retraining_units)

    def decision(self, inference_units: int, retraining_units: int) -> StreamDecision:
        """Full :class:`StreamDecision` at one lattice point."""
        column = self._column(inference_units)
        if not 0 <= retraining_units < len(column.accuracy):
            raise self._retraining_out_of_range(column, inference_units, retraining_units)
        config_index = column.choice[retraining_units]
        retraining_config = (
            self._retraining_configs[config_index] if config_index >= 0 else None
        )
        return StreamDecision(
            stream_name=self.stream_name,
            inference_config=self._inference_configs[column.inference_index],
            inference_gpu=inference_units * self._quantum,
            retraining_config=retraining_config,
            retraining_gpu=(
                retraining_units * self._quantum if retraining_config is not None else 0.0
            ),
            estimated_average_accuracy=float(column.accuracy[retraining_units]),
        )


def build_candidate_tables(
    streams: Dict[str, StreamWindowInput],
    *,
    window_seconds: float,
    a_min: float,
    quantum: float,
    total_units: int,
    release_retraining_gpu_to_inference: bool = True,
) -> Dict[str, CandidateTable]:
    """One :class:`CandidateTable` per stream for a schedule request."""
    return {
        name: CandidateTable(
            stream_input,
            window_seconds=window_seconds,
            a_min=a_min,
            quantum=quantum,
            total_units=total_units,
            release_retraining_gpu_to_inference=release_retraining_gpu_to_inference,
        )
        for name, stream_input in streams.items()
    }
