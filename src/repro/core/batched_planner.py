"""Fleet-batched planning: the thief scheduler over stacked lattice tensors.

:mod:`repro.core.candidate_table` vectorised Algorithm 2 *within* one stream:
a lattice column — every retraining level at one inference level — is a single
masked argmax.  This module batches *across* streams (and, at the fleet layer,
across every site whose ``WindowBoundary`` fires at the same instant): pending
columns are stacked into numpy evaluations over
``(row, retraining_level, retraining_config)`` tensors, where a *row* is one
``(site, stream, inference_level)`` triple, :data:`ROW_BLOCK` rows at a time.
Per-row scalars (window length, a_min, quantum, lattice size) broadcast
elementwise, so heterogeneous sites — different GPU counts, degraded
capacity, different window durations — stack into the same block.

Correctness contract: the scalar path (:class:`~repro.core.thief.
ThiefScheduler` over per-stream :class:`~repro.core.candidate_table.
CandidateTable` columns, with :func:`repro.core.pick_configs.pick_configs` as
the root oracle) remains the reference, and
:class:`BatchedThiefScheduler` is **bit-identical** to it: same decisions,
same estimated accuracies, same iteration and evaluation counters.  Two rules
make that hold:

* every stacked operation is an IEEE-exact elementwise twin (add/sub/mul/div/
  min/max/compare) of the scalar op on the same operands — vectorisation
  cannot change those results;
* anything transcendental (the under-provisioned inference power law) stays
  on the scalar code path shared with :class:`CandidateTable`, and every
  epsilon-near-tie or below-a_min level runs the *reference* candidate scan —
  ``_sequential_select``'s automaton — elementwise across all pending levels,
  looping only over the config axis, so its comparisons are the scalar
  loop's verbatim.

The property suite (``tests/property/test_property_batched_planner.py``)
fuzzes randomized fleets against the oracle to enforce the contract.

Why batching wins: the thief's steal trajectories visit only a handful of
distinct inference levels, but visit them for *every* stream.  Computing a
missed column for all of a cohort's streams at once replaces hundreds of
small per-stream numpy dispatches with a few large ones; the speculative
columns land in each table's memo, where the sibling streams' queries find
them.  ``pick_configs_evaluations`` keeps the oracle's meaning — distinct
columns actually *queried* — so the counter is comparable across both paths.

Why prefixes win: the sweep reads only the first few retraining levels of a
column, so a column is evaluated as a prefix (:data:`PREFIX_FLOOR` levels, or
up to the level about to be read) and extended in place when a read passes
its end.  Levels are independent of one another, so a prefix is bit for bit
the start of the oracle's full column.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.jobs import inference_job_id, retraining_job_id
from ..exceptions import SchedulingError
from ..utils.clock import Stopwatch
from ..utils.math_utils import safe_mean
from .candidate_table import CandidateTable, _Column, build_candidate_tables
from . import thief
from .pick_configs import IMPROVEMENT_EPS as _IMPROVEMENT_EPS
from .thief import ThiefScheduler
from .types import ScheduleRequest, WindowSchedule


class _HeavyRow:
    """One non-trivial column in a stacked batch (lattice has room to retrain).

    The block evaluates retraining levels ``first .. first + width - 1`` of
    the column; ``first`` is 1 for a new column and the current prefix end
    for an extension.
    """

    __slots__ = (
        "table",
        "units",
        "inference_index",
        "factor_during",
        "accuracy_during",
        "base_meets",
        "first",
        "width",
        "num_configs",
    )

    def __init__(
        self,
        table: CandidateTable,
        units: int,
        inference_index: int,
        factor_during: float,
        accuracy_during: float,
        base_meets: bool,
        first: int,
        width: int,
        num_configs: int,
    ) -> None:
        self.table = table
        self.units = units
        self.inference_index = inference_index
        self.factor_during = factor_during
        self.accuracy_during = accuracy_during
        self.base_meets = base_meets
        self.first = first
        self.width = width
        self.num_configs = num_configs


#: Rows per stacked evaluation.  Every stacked op is elementwise per row or
#: reduces along the config axis, so splitting a batch into blocks cannot
#: change a bit; it bounds the ``(row, level, config)`` working set, which
#: prefix columns keep to a few levels per row.  Measured on a 2-core host:
#: on ``make_fleet(16, 400)`` over 3 windows, peak RSS 222-224 MiB at 16 to
#: 1024 rows and 244 MiB unblocked, with 64-256 rows fastest (10.5-12.8 s,
#: 16 rows 12.8-13.5 s); on the end-to-end ``dense_sites`` workload, 256
#: rows (one block per cohort) planned 26 % more stream-windows per second
#: than 16 at +0.4 % peak RSS.
ROW_BLOCK = 256

#: Fewest retraining levels a new column is evaluated to.  The steal sweep
#: reads only the first few levels of a column: over one seed-0 repetition
#: of each end-to-end workload, the p99 of the deepest level read in a
#: column is 4-9 (max 26), and levels at or below it are 1-9 % of the full
#: columns.  So a column starts as this prefix and grows geometrically when
#: a read passes its end.
PREFIX_FLOOR = 8


def compute_columns_batched(rows: Sequence[Tuple[CandidateTable, int, int]]) -> None:
    """Seed many tables' lattice columns from stacked evaluations.

    Each ``(table, inference_units, level)`` triple makes sure the table's
    memoised column at ``inference_units`` holds every retraining level up
    to ``level`` (capped at the lattice).  A new column is evaluated to at
    least :data:`PREFIX_FLOOR` levels; a memoised column that ends short of
    ``level`` is extended in place to at least twice its deepest level, so
    list objects a caller holds stay valid.  Each column written is a prefix of
    the :class:`_Column` that ``table._compute_column(inference_units)``
    would produce — the stacked arithmetic mirrors it operation for
    operation — and ``table.evaluations`` is *not* touched: the batched
    scheduler counts queries itself, so the counter keeps the oracle's
    first-query semantics.  Rows are evaluated :data:`ROW_BLOCK` at a time.
    """
    wanted: Dict[Tuple[CandidateTable, int], int] = {}
    for table, units, level in rows:
        key = (table, units)
        if level > wanted.get(key, -1):
            wanted[key] = level
    pending: List[Tuple[CandidateTable, int, int, int]] = []
    for (table, units), level in wanted.items():
        top = table._total_units - units
        column = table._columns.get(units)
        if column is None:
            if not 0 <= units <= table._total_units:
                raise SchedulingError(
                    f"inference_units {units} outside lattice [0, {table._total_units}]"
                )
            first, last = 1, max(level, PREFIX_FLOOR)
        else:
            first = len(column.accuracy)
            if min(level, top) < first:
                continue
            last = max(level, 2 * (first - 1))
        pending.append((table, units, first, min(last, top)))
    for start in range(0, len(pending), ROW_BLOCK):
        _compute_block(pending[start : start + ROW_BLOCK])


def _compute_block(pending: Sequence[Tuple[CandidateTable, int, int, int]]) -> None:
    """Write levels ``first..last`` of at most :data:`ROW_BLOCK` pending rows."""
    # ---- inference-config pick, stacked (twin of _pick_inference_index).
    # Padding: demands +inf (never fits, never argmin), factors -inf (never
    # argmax), above_min False — padded slots can never win a tie-break.
    num_rows = len(pending)
    max_inference = max(len(row[0]._demands_list) for row in pending)
    demands = np.full((num_rows, max_inference), np.inf, dtype=float)
    base_factors = np.full((num_rows, max_inference), -np.inf, dtype=float)
    above_min = np.zeros((num_rows, max_inference), dtype=bool)
    inference_gpu = np.empty(num_rows, dtype=float)
    for row, (table, units, _, _) in enumerate(pending):
        count = len(table._demands_list)
        demands[row, :count] = table._demands
        base_factors[row, :count] = table._base_factors
        above_min[row, :count] = table._above_min
        inference_gpu[row] = units * table._quantum
    fitting = demands <= inference_gpu[:, None] + 1e-9
    any_fitting = fitting.any(axis=1)
    pool = fitting & above_min
    pool = np.where(pool.any(axis=1)[:, None], pool, fitting)
    fitting_index = np.argmax(np.where(pool, base_factors, -np.inf), axis=1)
    fallback_index = np.argmin(demands, axis=1)
    inference_index = np.where(any_fitting, fitting_index, fallback_index)

    # ---- scalar prologue per row (pure-Python floats, as in the oracle).
    heavy: List[_HeavyRow] = []
    for row, (table, units, first, last) in enumerate(pending):
        index = int(inference_index[row])
        factor_during = table._effective_factor(index, units * table._quantum)
        accuracy_during = float(min(max(table._start * factor_during, 0.0), 1.0))
        base_meets = accuracy_during + 1e-9 >= table._a_min
        max_level = table._total_units - units
        num_configs = len(table._retraining_configs)
        if max_level < 1 or num_configs == 0:
            # Nothing to retrain: the whole column is one value, written in
            # full, so it never needs extending.
            table._columns[units] = _Column(
                index, [accuracy_during] * (max_level + 1), [-1] * (max_level + 1)
            )
            continue
        heavy.append(
            _HeavyRow(
                table,
                units,
                index,
                factor_during,
                accuracy_during,
                base_meets,
                first,
                last - first + 1,
                num_configs,
            )
        )
    if not heavy:
        return

    # ---- stacked (row, level, config) evaluation.  Padded configs carry
    # gpu_seconds = 0, so `completes` is False and they mask to -inf; padded
    # levels hold valid positive allocations (the row's range just ends
    # earlier) and are sliced away before write-back.
    num_heavy = len(heavy)
    max_width = max(item.width for item in heavy)
    max_configs = max(item.num_configs for item in heavy)
    post = np.zeros((num_heavy, max_configs), dtype=float)
    gpu_seconds = np.zeros((num_heavy, max_configs), dtype=float)
    quanta = np.empty(num_heavy, dtype=float)
    windows = np.empty(num_heavy, dtype=float)
    a_mins = np.empty(num_heavy, dtype=float)
    accuracy_during_col = np.empty(num_heavy, dtype=float)
    firsts = np.empty(num_heavy, dtype=float)
    widths = np.empty(num_heavy, dtype=np.int64)
    for row, item in enumerate(heavy):
        table = item.table
        post[row, : item.num_configs] = table._post
        gpu_seconds[row, : item.num_configs] = table._gpu_seconds
        quanta[row] = table._quantum
        windows[row] = table._window
        a_mins[row] = table._a_min
        accuracy_during_col[row] = item.accuracy_during
        firsts[row] = item.first
        widths[row] = item.width

    # Levels are integer-valued floats, so ``level * quantum`` is the same
    # IEEE product as the oracle's ``arange(1, ...) * quantum`` at that level.
    levels = firsts[:, None] + np.arange(max_width, dtype=float)[None, :]
    retraining_gpus = levels * quanta[:, None]

    # Post-retraining inference factor.  With release the retraining share
    # rejoins inference after the window, so the factor depends on the level
    # only for rows whose *smallest* post-window share in this block (the
    # row's first level — post_gpus grows monotonically) still
    # under-provisions the chosen config; those run the scalar power law
    # (shared with CandidateTable) for bit-identity.  Without release it is
    # the prologue's factor_during verbatim.  Nearly every row is
    # level-constant, which collapses the factor — and everything derived
    # from it alone — from (row, level, config) tensors to (row, config)
    # matrices.
    factor_row = np.empty(num_heavy, dtype=float)
    varying: List[int] = []
    for row, item in enumerate(heavy):
        table = item.table
        index = item.inference_index
        if table._release:
            factor_row[row] = table._base_list[index]
            demand = table._demands_list[index]
            if (
                demand > 0
                and inference_gpu_of(table, item.units) + retraining_gpus[row, 0] < demand
            ):
                varying.append(row)
        else:
            factor_row[row] = item.factor_during

    # estimate_batch_average_accuracy, elementwise with per-row scalars.
    # Every op below is the scalar estimate's IEEE twin on the same
    # operands; in-place variants and the shared `window_remainder`
    # subexpression change only where intermediates live, never their bits.
    # `average` and `meets` are only ever consumed where `completes` holds —
    # the fast path masks with ``completes & meets`` and the reference
    # automaton gates every state update on completes — so the scalar
    # estimate's non-completing fallback branch never needs materialising.
    windows3 = windows[:, None, None]
    acc_during3 = accuracy_during_col[:, None, None]
    duration = gpu_seconds[:, None, :] / retraining_gpus[:, :, None]
    completes = duration < windows3
    completes &= (gpu_seconds > 0)[:, None, :]
    if varying:
        factor_after = np.empty((num_heavy, max_width), dtype=float)
        factor_after[:] = factor_row[:, None]
        for row in varying:
            item = heavy[row]
            table = item.table
            index = item.inference_index
            demand = table._demands_list[index]
            post_gpus = inference_gpu_of(table, item.units) + retraining_gpus[row]
            for level in np.nonzero(post_gpus < demand)[0].tolist():
                factor_after[row, level] = table._effective_factor(
                    index, float(post_gpus[level])
                )
        accuracy_after = post[:, None, :] * factor_after[:, :, None]
        np.maximum(accuracy_after, 0.0, out=accuracy_after)
        np.minimum(accuracy_after, 1.0, out=accuracy_after)
        tail_after = accuracy_after
    else:
        accuracy_after = None
        accuracy_after2 = post * factor_row[:, None]
        np.maximum(accuracy_after2, 0.0, out=accuracy_after2)
        np.minimum(accuracy_after2, 1.0, out=accuracy_after2)
        tail_after = accuracy_after2[:, None, :]
    # ``windows3 - duration`` feeds both the weighted tail and total_time in
    # the scalar estimate; computing it once reuses identical bits.
    window_remainder = windows3 - duration
    weighted = duration * acc_during3
    weighted += window_remainder * tail_after
    total_time = np.add(duration, window_remainder, out=window_remainder)
    average = np.divide(weighted, total_time, out=weighted)
    if accuracy_after is not None:
        minimum = np.minimum(acc_during3, accuracy_after, out=accuracy_after)
        minimum += 1e-9
        meets3: Optional[np.ndarray] = minimum >= a_mins[:, None, None]
        meets2: Optional[np.ndarray] = None
    else:
        minimum2 = np.minimum(accuracy_during_col[:, None], accuracy_after2, out=accuracy_after2)
        minimum2 += 1e-9
        meets3 = None
        meets2 = minimum2 >= a_mins[:, None]

    base_meets_col = np.array([item.base_meets for item in heavy], dtype=bool)
    level_valid = np.arange(max_width, dtype=np.int64)[None, :] < widths[:, None]

    result_choice = np.full((num_heavy, max_width), -1, dtype=np.int64)
    result_accuracy = np.empty((num_heavy, max_width), dtype=float)
    result_accuracy[:] = accuracy_during_col[:, None]
    scan = level_valid.copy()

    # Fast path (rows whose base accuracy meets a_min): non-meeting
    # candidates can never displace a meeting incumbent, so the winner is a
    # masked argmax per level — exactly as CandidateTable — and only levels
    # whose eligible values near-tie within the improvement epsilon fall
    # through to the reference scan.
    fast = np.nonzero(base_meets_col)[0]
    if fast.size:
        # Usually every row is fast; a plain slice then views the block
        # instead of copying it through a fancy index.
        fast_rows = slice(None) if fast.size == num_heavy else fast
        meets_fast = meets3[fast_rows] if meets3 is not None else meets2[fast_rows][:, None, :]
        masked = np.where(completes[fast_rows] & meets_fast, average[fast_rows], -np.inf)
        acc_fast = accuracy_during_col[fast_rows]
        valid_fast = level_valid[fast_rows]
        best_j = np.argmax(masked, axis=2)
        best_vals = np.take_along_axis(masked, best_j[:, :, None], axis=2)[:, :, 0]
        has_eligible = best_vals > -np.inf
        ties = masked >= (best_vals - _IMPROVEMENT_EPS)[:, :, None]
        ties &= masked != best_vals[:, :, None]
        near_tie = ties.any(axis=2)
        accept = (
            valid_fast
            & has_eligible
            & ~near_tie
            & (best_vals > acc_fast[:, None] + _IMPROVEMENT_EPS)
        )
        result_choice[fast_rows] = np.where(accept, best_j, np.int64(-1))
        result_accuracy[fast_rows] = np.where(accept, best_vals, acc_fast[:, None])
        scan[fast_rows] = valid_fast & has_eligible & near_tie

    # Every remaining level runs the reference candidate scan — the
    # _sequential_select automaton — elementwise across all scan elements,
    # looping only over the config axis.  The state updates are the scalar
    # loop's comparisons verbatim, so the result is bit-identical.
    scan_rows, scan_levels = np.nonzero(scan)
    if scan_rows.size:
        avg_scan = average[scan_rows, scan_levels]
        completes_scan = completes[scan_rows, scan_levels]
        meets_scan = (
            meets3[scan_rows, scan_levels] if meets3 is not None else meets2[scan_rows]
        )
        state_avg = accuracy_during_col[scan_rows]
        state_meets = base_meets_col[scan_rows]
        state_j = np.full(scan_rows.size, -1, dtype=np.int64)
        for config in range(max_configs):
            cand_avg = avg_scan[:, config]
            cand_meets = meets_scan[:, config]
            better = cand_avg > state_avg + _IMPROVEMENT_EPS
            flips_up = cand_meets & ~state_meets
            better = np.where(
                flips_up, (cand_avg >= state_avg - _IMPROVEMENT_EPS) | better, better
            )
            better &= ~(~cand_meets & state_meets)
            update = completes_scan[:, config] & better
            state_avg = np.where(update, cand_avg, state_avg)
            state_meets = np.where(update, cand_meets, state_meets)
            state_j = np.where(update, np.int64(config), state_j)
        result_choice[scan_rows, scan_levels] = state_j
        result_accuracy[scan_rows, scan_levels] = state_avg

    # ---- write-back per row (level 0 is the no-retraining base point).  An
    # extension appends to the memoised column's lists in place.
    accuracy_rows = result_accuracy.tolist()
    choice_rows = result_choice.tolist()
    for row, item in enumerate(heavy):
        width = item.width
        if item.first == 1:
            column = _Column(item.inference_index, [item.accuracy_during], [-1])
            item.table._columns[item.units] = column
        else:
            column = item.table._columns[item.units]
        column.accuracy.extend(accuracy_rows[row][:width])
        column.choice.extend(choice_rows[row][:width])


def inference_gpu_of(table: CandidateTable, units: int) -> float:
    """The scalar path's ``inference_units * quantum`` product, verbatim."""
    return units * table._quantum


class _CohortContext:
    """Per-request state for one sweep of the batched thief.

    ``units`` is the lattice point, two entries per stream (inference, then
    retraining units); ``accuracy_of``, ``accuracy_sum`` and
    ``best_accuracy`` are the committed objective.  ``queried`` holds each
    stream's accuracy rows *queried* so far, indexed by inference level: a
    miss there is exactly one oracle evaluation (the memo may hold
    speculatively batched columns the count must not include until
    queried).  A row is a prefix of its column: ``load`` runs on a miss
    *or* before a read past the row's end and extends the column in place,
    so the list a caller holds stays the row.
    """

    __slots__ = (
        "request",
        "stream_names",
        "tables_list",
        "column_maps",
        "units",
        "base_runtime",
        "queried",
        "evaluations",
        "accuracy_of",
        "accuracy_sum",
        "best_accuracy",
    )

    def __init__(
        self,
        request: ScheduleRequest,
        stream_names: List[str],
        tables_list: List[CandidateTable],
        units: List[int],
    ) -> None:
        self.request = request
        self.stream_names = stream_names
        self.tables_list = tables_list
        self.column_maps = [table._columns for table in tables_list]
        self.units = units
        self.base_runtime = 0.0
        self.queried: List[List[Optional[List[float]]]] = [
            [None] * (table._total_units + 1) for table in tables_list
        ]
        self.evaluations = 0
        self.accuracy_of: List[float] = []
        self.accuracy_sum = 0.0
        self.best_accuracy = 0.0

    def load(self, stream: int, level: int, index: int) -> List[float]:
        """Query ``stream``'s row at inference ``level``, covering ``index``.

        A missed column is computed for every stream of the cohort, to the
        retraining level about to be read.
        """
        column = self.column_maps[stream].get(level)
        if column is None:
            compute_columns_batched([(table, level, index) for table in self.tables_list])
            column = self.column_maps[stream][level]
        elif index >= len(column.accuracy):
            compute_columns_batched([(self.tables_list[stream], level, index)])
        row = column.accuracy
        if self.queried[stream][level] is None:
            self.evaluations += 1
            self.queried[stream][level] = row
        return row

    def accuracy_after(self, job: int, gained: int) -> float:
        """``job``'s stream accuracy once ``job`` gains ``gained`` units (gives
        them up if negative), loading the row only where the walk would."""
        stream = job >> 1
        level = self.units[2 * stream]
        index = self.units[2 * stream + 1]
        if job & 1:
            index += gained
        else:
            level += gained
        row = self.queried[stream][level]
        if row is None or len(row) <= index:
            row = self.load(stream, level, index)
        return row[index]

    def delta(self, victim_job: int, step: int) -> float:
        """The victim term of the sweep's objective at ``step``, verbatim."""
        return self.accuracy_after(victim_job, -step) - self.accuracy_of[victim_job >> 1]

    def guard(self, thief_job: int, step: int) -> float:
        """A victim delta at or below this makes ``thief_job``'s ``step``-th
        steal from another stream non-improving.

        The bound is verified on the sweep's own expression, and
        round-to-nearest ``+`` and ``/`` are monotone, so every smaller
        delta fails the improvement test too — exactly, with no tolerance.
        """
        acc_thief = self.accuracy_of[thief_job >> 1]
        base = self.accuracy_sum - acc_thief + self.accuracy_after(thief_job, step)
        threshold = self.best_accuracy + _IMPROVEMENT_EPS
        num_streams = len(self.accuracy_of)
        bound = threshold * num_streams - base
        decrement = math.ulp(base)
        while (base + bound) / num_streams > threshold:
            bound -= decrement
            decrement *= 2
        return bound

    def walk(self, thief_job: int, victim_job: int) -> Tuple[int, bool]:
        """The scalar visit: ``thief_job`` steals from ``victim_job`` unit by unit.

        Each improving steal is committed; the visit ends after
        :data:`~repro.core.thief.PATIENCE` non-improving steals in a row or
        when the victim runs dry, and hands the non-improving tail back.
        This is the oracle's loop with the allocation vector flattened into
        local integers: a steal touches at most four unit counters (thief /
        victim × inference / retraining), written back once, and a row is
        re-fetched only when its stream's *inference* level moved — the
        only key a column depends on.  Returns the steals tried and whether
        any was committed.
        """
        patience = thief.PATIENCE
        eps = _IMPROVEMENT_EPS
        units = self.units
        accuracy_of = self.accuracy_of
        num_streams = len(accuracy_of)
        accuracy_sum = self.accuracy_sum
        best_accuracy = self.best_accuracy
        load = self.load
        iterations = 0
        improved = False
        misses = 0
        pending = 0
        thief_stream = thief_job >> 1
        thief_inf = thief_stream * 2
        thief_ret = thief_inf + 1
        thief_rows = self.queried[thief_stream]
        thief_is_inf = thief_job == thief_inf
        thief_inf_units = units[thief_inf]
        thief_ret_units = units[thief_ret]
        acc_thief = accuracy_of[thief_stream]
        victim_stream = victim_job >> 1
        if victim_stream == thief_stream:
            # Intra-stream: units move between one stream's own inference
            # and retraining jobs.
            while True:
                if thief_is_inf:
                    if thief_ret_units == 0:
                        break
                    thief_ret_units -= 1
                    thief_inf_units += 1
                else:
                    if thief_inf_units == 0:
                        break
                    thief_inf_units -= 1
                    thief_ret_units += 1
                pending += 1
                iterations += 1
                row = thief_rows[thief_inf_units]
                if row is None or len(row) <= thief_ret_units:
                    row = load(thief_stream, thief_inf_units, thief_ret_units)
                new_thief = row[thief_ret_units]
                new_sum = accuracy_sum - acc_thief + new_thief
                accuracy = new_sum / num_streams
                if accuracy > best_accuracy + eps:
                    acc_thief = new_thief
                    accuracy_sum = new_sum
                    best_accuracy = accuracy
                    pending = 0
                    misses = 0
                    improved = True
                else:
                    misses += 1
                    if misses >= patience:
                        break
            if pending:
                if thief_is_inf:
                    thief_inf_units -= pending
                    thief_ret_units += pending
                else:
                    thief_inf_units += pending
                    thief_ret_units -= pending
            units[thief_inf] = thief_inf_units
            units[thief_ret] = thief_ret_units
            accuracy_of[thief_stream] = acc_thief
            self.accuracy_sum = accuracy_sum
            self.best_accuracy = best_accuracy
            return iterations, improved
        victim_inf = victim_stream * 2
        victim_ret = victim_inf + 1
        victim_rows = self.queried[victim_stream]
        victim_is_inf = victim_job == victim_inf
        victim_inf_units = units[victim_inf]
        victim_ret_units = units[victim_ret]
        acc_victim = accuracy_of[victim_stream]
        # Both streams' current points were read, so their rows are queried
        # and cover them; reads past a row's end can only come from a newly
        # loaded row or a growing retraining index, and only those are
        # checked.
        if thief_is_inf:
            thief_row = None
        else:
            # Retraining thief: its inference level is fixed for the whole
            # visit, so its column row is too.
            thief_row = thief_rows[thief_inf_units]
        if victim_is_inf:
            victim_row = None
        else:
            victim_row = victim_rows[victim_inf_units]
        while True:
            if victim_is_inf:
                if victim_inf_units == 0:
                    break
                victim_inf_units -= 1
                victim_row = victim_rows[victim_inf_units]
                if victim_row is None or len(victim_row) <= victim_ret_units:
                    victim_row = load(victim_stream, victim_inf_units, victim_ret_units)
            else:
                if victim_ret_units == 0:
                    break
                victim_ret_units -= 1
            if thief_is_inf:
                thief_inf_units += 1
                thief_row = thief_rows[thief_inf_units]
                if thief_row is None or len(thief_row) <= thief_ret_units:
                    thief_row = load(thief_stream, thief_inf_units, thief_ret_units)
            else:
                thief_ret_units += 1
                if len(thief_row) <= thief_ret_units:
                    load(thief_stream, thief_inf_units, thief_ret_units)
            pending += 1
            iterations += 1
            new_thief = thief_row[thief_ret_units]
            new_sum = accuracy_sum - acc_thief + new_thief
            new_victim = victim_row[victim_ret_units]
            new_sum += new_victim - acc_victim
            accuracy = new_sum / num_streams
            if accuracy > best_accuracy + eps:
                acc_thief = new_thief
                acc_victim = new_victim
                accuracy_sum = new_sum
                best_accuracy = accuracy
                pending = 0
                misses = 0
                improved = True
            else:
                misses += 1
                if misses >= patience:
                    break
        if pending:
            if victim_is_inf:
                victim_inf_units += pending
            else:
                victim_ret_units += pending
            if thief_is_inf:
                thief_inf_units -= pending
            else:
                thief_ret_units -= pending
        units[thief_inf] = thief_inf_units
        units[thief_ret] = thief_ret_units
        units[victim_inf] = victim_inf_units
        units[victim_ret] = victim_ret_units
        accuracy_of[thief_stream] = acc_thief
        accuracy_of[victim_stream] = acc_victim
        self.accuracy_sum = accuracy_sum
        self.best_accuracy = best_accuracy
        return iterations, improved


class BatchedThiefScheduler(ThiefScheduler):
    """The thief scheduler with cross-stream (and cross-site) column batching.

    Bit-identical to :class:`~repro.core.thief.ThiefScheduler` — same steal
    trajectory, same decisions, accuracies and counters — but every lattice
    column the trajectory misses is computed for *all* streams of the cohort
    in stacked numpy blocks (:func:`compute_columns_batched`), as a prefix
    that grows only when the sweep reads past it; the steal loop runs on
    flat integer lists instead of the allocation vector's dict operations,
    and settles every visit that provably commits nothing with one exact
    guard comparison per step instead of walking it.  :meth:`schedule_cohort` extends the batch
    across many requests: all same-instant sites' fair-start columns stack
    into one blocked ``(site, stream, level, config)`` evaluation before the
    per-site sweeps run.  It is the only scheduler the fleet plans with;
    :class:`~repro.core.thief.ThiefScheduler` stays as its test oracle.

    ``scheduler_runtime_seconds`` attributes the shared cohort precompute
    evenly across the cohort's requests; with a
    :class:`~repro.utils.clock.ManualClock` it is 0.0 either way.
    """

    name = "ekya-thief-batched"

    def schedule(self, request: ScheduleRequest) -> WindowSchedule:
        return self.schedule_cohort({"": request})[""]

    def schedule_cohort(
        self, requests: Mapping[str, ScheduleRequest]
    ) -> Dict[str, WindowSchedule]:
        """Plan every request of one boundary cohort; keys are preserved."""
        if not requests:
            return {}
        contexts: List[Tuple[str, _CohortContext]] = []
        prepare_elapsed: List[float] = []
        fair_rows: List[Tuple[CandidateTable, int, int]] = []
        for key, request in requests.items():
            watch = Stopwatch(self._clock)
            context = self._prepare(request)
            contexts.append((key, context))
            prepare_elapsed.append(watch.elapsed())
            units = context.units
            for index, table in enumerate(context.tables_list):
                fair_rows.append((table, units[2 * index], units[2 * index + 1]))
        shared_watch = Stopwatch(self._clock)
        compute_columns_batched(fair_rows)
        shared = shared_watch.elapsed() / len(contexts)
        schedules: Dict[str, WindowSchedule] = {}
        for (key, context), prepared in zip(contexts, prepare_elapsed):
            context.base_runtime = prepared + shared
            schedules[key] = self._sweep(context)
        return schedules

    # ----------------------------------------------------------------- setup
    def _prepare(self, request: ScheduleRequest) -> _CohortContext:
        quantum = self._steal_quantum if self._steal_quantum is not None else request.delta
        quantum = min(quantum, request.total_gpus)
        allocation = self.fair_start(request, quantum)
        tables = build_candidate_tables(
            request.streams,
            window_seconds=request.window_seconds,
            a_min=request.a_min,
            quantum=allocation.quantum,
            total_units=allocation.total_units,
            release_retraining_gpu_to_inference=self._release,
        )
        stream_names = list(request.streams)
        tables_list = [tables[name] for name in stream_names]
        units: List[int] = []
        for name in stream_names:
            units.append(allocation.units(inference_job_id(name)))
            units.append(allocation.units(retraining_job_id(name)))
        return _CohortContext(request, stream_names, tables_list, units)

    # ----------------------------------------------------------------- sweep
    def _sweep(self, context: _CohortContext) -> WindowSchedule:
        watch = Stopwatch(self._clock)
        request = context.request
        units = context.units
        num_jobs = len(units)
        patience = thief.PATIENCE
        accuracy_of = context.accuracy_of
        for stream in range(len(context.tables_list)):
            index = units[2 * stream + 1]
            accuracy_of.append(context.load(stream, units[2 * stream], index)[index])
        context.accuracy_sum = sum(accuracy_of)
        context.best_accuracy = context.accuracy_sum / len(accuracy_of)
        iterations = 1

        # The oracle's sweep, visit for visit.  A visit that commits nothing
        # changes no state, and one to another stream's victim commits
        # nothing when every step's victim delta sits at or below the
        # thief's guard for that step (``_CohortContext.guard``).  Such a
        # visit is settled without walking: it counts the steals the walk
        # would try, and the rows the walk would query were queried when
        # its deltas and guards were computed, lazily, at the visit whose
        # walk would first read them.  ``deltas`` caches each job's victim
        # deltas per step, and ``first_delta`` is the one comparison most
        # visits need: a one-unit job's delta, -inf for a job without units
        # (skipped, as the oracle's steal fails at once), +inf to send the
        # visit down the slow path (deltas not yet computed, several units,
        # or the thief's own stream, which each thief refreshes so that its
        # sibling is always walked).  A commit changes the two streams it
        # touches and the thief's state, so it refreshes exactly their
        # deltas and the guards.
        first_delta = [-math.inf if held == 0 else math.inf for held in units]
        deltas: List[Optional[List[float]]] = [None] * num_jobs

        def refresh(stream: int) -> None:
            for job in (2 * stream, 2 * stream + 1):
                deltas[job] = None
                first_delta[job] = -math.inf if units[job] == 0 else math.inf

        for thief_job in range(num_jobs):
            thief_stream = thief_job >> 1
            refresh(thief_stream)
            guards: List[float] = []
            guard = -math.inf
            for victim_job in chain(range(thief_job), range(thief_job + 1, num_jobs)):
                if first_delta[victim_job] <= guard:
                    iterations += units[victim_job]
                    continue
                victim_stream = victim_job >> 1
                if victim_stream != thief_stream:
                    steps = min(units[victim_job], patience)
                    victim_deltas = deltas[victim_job]
                    if victim_deltas is None:
                        victim_deltas = deltas[victim_job] = []
                    for step in range(steps):
                        if step == len(guards):
                            guards.append(context.guard(thief_job, step + 1))
                            guard = guards[0]
                        if step == len(victim_deltas):
                            victim_deltas.append(context.delta(victim_job, step + 1))
                            if units[victim_job] == 1:
                                first_delta[victim_job] = victim_deltas[0]
                        if victim_deltas[step] > guards[step]:
                            break
                    else:
                        iterations += steps
                        continue
                made, improved = context.walk(thief_job, victim_job)
                iterations += made
                if improved:
                    refresh(thief_stream)
                    refresh(victim_stream)
                    guards = []
                    guard = -math.inf

        decisions = {}
        for stream, name in enumerate(context.stream_names):
            inference_units = units[2 * stream]
            if context.queried[stream][inference_units] is None:
                # Unreachable in practice (the final lattice point was always
                # queried), but keeps the counter oracle-exact regardless.
                context.load(stream, inference_units, units[2 * stream + 1])
            decisions[name] = context.tables_list[stream].decision(
                inference_units, units[2 * stream + 1]
            )
        schedule = WindowSchedule(
            window_index=request.window_index,
            decisions=decisions,
            estimated_average_accuracy=safe_mean(
                [d.estimated_average_accuracy for d in decisions.values()]
            ),
            scheduler_runtime_seconds=context.base_runtime + watch.elapsed(),
            iterations=iterations,
            pick_configs_evaluations=context.evaluations,
        )
        schedule.validate_against(request)
        return schedule
