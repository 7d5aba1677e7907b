"""Unit tests for the batched planner's API surface and guard rails.

The equivalence guarantees live in the property suite
(``tests/property/test_property_batched_planner.py``); this module pins
the plumbing around them — the prepare/solve split, cohort scheduling over
explicit request maps, the preplanned-window handoff, how the fleet plans
sites whose policy is not the plain thief, the prefix columns and the
guarded steal sweep.
"""

import math
import re
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cluster import AllocationVector, EdgeServer, EdgeServerSpec
from repro.configs import ConfigurationSpace, InferenceConfig, RetrainingConfig
from repro.core import (
    EkyaPolicy,
    OracleProfileSource,
    ScheduleRequest,
    StreamWindowInput,
    ThiefScheduler,
    UniformPolicy,
)
from repro.core import batched_planner, thief
from repro.core.batched_planner import (
    PREFIX_FLOOR,
    BatchedThiefScheduler,
    compute_columns_batched,
    inference_gpu_of,
)
from repro.core.candidate_table import _Column, build_candidate_tables
from repro.core.pick_configs import IMPROVEMENT_EPS
from repro.datasets import make_workload
from repro.exceptions import FleetError, SchedulingError, SimulationError
from repro.fleet import EdgeSite, FleetController, FleetSimulator, SiteSpec
from repro.fleet.admission import LeastLoadedAdmission
from repro.fleet.calendar import EventCalendar, WindowBoundary
from repro.profiles import AnalyticDynamics, RetrainingEstimate, StreamWindowProfile
from repro.simulation import Simulator, make_config_space


def _policy(seed=0, dynamics=None, **kwargs):
    dynamics = dynamics if dynamics is not None else AnalyticDynamics(seed=seed)
    return EkyaPolicy(
        OracleProfileSource(dynamics, seed=seed),
        ConfigurationSpace.small(),
        steal_quantum=0.25,
        **kwargs,
    )


def _problem(num_streams=3, seed=0):
    streams = make_workload("cityscapes", num_streams, seed=seed)
    spec = EdgeServerSpec(num_gpus=2, delta=0.25, window_duration=200.0)
    return streams, spec


def _simulator(num_streams=3, seed=0):
    """A single-site simulator whose policy profiles the same substrate."""
    streams, spec = _problem(num_streams=num_streams, seed=seed)
    dynamics = AnalyticDynamics(seed=seed)
    policy = _policy(seed=seed, dynamics=dynamics)
    return Simulator(EdgeServer(spec, streams), dynamics, policy), policy


class TestPolicyWiring:
    def test_prepare_request_then_solve_matches_plan_window(self):
        streams, spec = _problem()
        policy = _policy()
        request = policy.prepare_request(streams, 0, spec)
        solved = policy.scheduler.schedule(request)
        direct = _policy().plan_window(streams, 0, spec)
        assert solved.decisions == direct.decisions
        assert solved.estimated_average_accuracy == direct.estimated_average_accuracy


class TestScheduleCohort:
    def test_cohort_matches_per_request_schedules(self):
        policy = _policy()
        requests = {}
        for index, seed in enumerate((0, 7)):
            streams, spec = _problem(num_streams=2 + index, seed=seed)
            requests[f"site-{index}"] = policy.prepare_request(streams, 0, spec)
        cohort = policy.scheduler.schedule_cohort(requests)
        assert set(cohort) == set(requests)
        for key, request in requests.items():
            solo = BatchedThiefScheduler(steal_quantum=0.25).schedule(request)
            assert cohort[key].decisions == solo.decisions
            assert (
                cohort[key].estimated_average_accuracy
                == solo.estimated_average_accuracy
            )

    def test_empty_cohort_is_empty(self):
        assert _policy().scheduler.schedule_cohort({}) == {}


class TestSimulatorHandoff:
    def test_preplanned_window_index_mismatch_raises(self):
        simulator, policy = _simulator()
        request = simulator.prepare_request(0)
        schedule = policy.scheduler.schedule(request)
        with pytest.raises(SimulationError, match="window"):
            simulator.settle_window(simulator.plan_window(1, preplanned=schedule))

    def test_preplanned_run_matches_unassisted_run(self):
        planned, policy = _simulator()
        request = planned.prepare_request(0)
        schedule = policy.scheduler.schedule(request)
        assisted = planned.settle_window(planned.plan_window(0, preplanned=schedule))
        unassisted = _simulator()[0].run_window(0)
        assert assisted.mean_accuracy == unassisted.mean_accuracy


def _fleet(policy_for, num_sites=2, streams_per_site=2):
    """A fleet whose sites each run the policy ``policy_for(index, dynamics)``."""
    dynamics = AnalyticDynamics(seed=0)
    sites = [
        EdgeSite(
            SiteSpec(name=f"site-{index}", num_gpus=2),
            dynamics=dynamics,
            policy=policy_for(index, dynamics),
        )
        for index in range(num_sites)
    ]
    controller = FleetController(sites, dynamics=dynamics, admission=LeastLoadedAdmission())
    controller.admit_all(make_workload("cityscapes", num_sites * streams_per_site, seed=0))
    return controller


class TestFleetPlanning:
    def test_fixed_resources_sites_keep_their_static_split(self):
        """The cohort solve goes through the policy, never around it."""
        fixed = _policy(fixed_resources=True, inference_share_when_fixed=0.25)
        window = FleetSimulator(_fleet(lambda index, dynamics: fixed)).run(1).windows[0]
        assert len(window.site_results) == 2
        for result in window.site_results.values():
            # 2 GPUs over 2 streams, a quarter of each share for inference.
            assert result.schedule.iterations == 1
            assert {d.inference_gpu for d in result.schedule.decisions.values()} == {0.25}

    def test_site_without_prepare_and_solve_fails_before_any_window(self):
        def policy_for(index, dynamics):
            if index == 0:
                return _policy(dynamics=dynamics)
            return UniformPolicy(OracleProfileSource(dynamics), ConfigurationSpace.small())

        controller = _fleet(policy_for)
        with pytest.raises(FleetError, match="'site-1'.*prepare"):
            FleetSimulator(controller)


class TestHelpers:
    def test_inference_gpu_of_matches_lattice_units(self):
        streams, spec = _problem(num_streams=1)
        policy = _policy()
        request = policy.prepare_request(streams, 0, spec)
        quantum = request.delta
        tables = build_candidate_tables(
            request.streams,
            window_seconds=request.window_seconds,
            a_min=request.a_min,
            quantum=quantum,
            total_units=int(round(request.total_gpus / quantum)),
        )
        table = next(iter(tables.values()))
        for units in (0, 1, 3):
            assert inference_gpu_of(table, units) == units * quantum

    def test_calendar_peek_does_not_pop(self):
        calendar = EventCalendar()
        assert calendar.peek() is None
        event = WindowBoundary(time=200.0, site="site-0", window_index=0)
        calendar.schedule(event)
        assert calendar.peek() is event
        assert calendar.pop() is event
        assert calendar.peek() is None


def _tables(num_streams=3, num_gpus=4, quantum=0.1, seed=0):
    """Fresh candidate tables of an oracle-profiled request."""
    streams = make_workload("cityscapes", num_streams, seed=seed)
    spec = EdgeServerSpec(num_gpus=num_gpus, delta=quantum, window_duration=200.0)
    policy = EkyaPolicy(
        OracleProfileSource(AnalyticDynamics(seed=seed), seed=seed + 1),
        make_config_space(),
        steal_quantum=quantum,
    )
    request = policy.prepare_request(streams, 0, spec)
    return list(
        build_candidate_tables(
            request.streams,
            window_seconds=request.window_seconds,
            a_min=request.a_min,
            quantum=quantum,
            total_units=int(round(num_gpus / quantum)),
        ).values()
    )


def _dense_site():
    """The 150-stream × 24-GPU request of the ``dense_sites`` workload shape."""
    streams = make_workload("cityscapes", 150, seed=0)
    spec = EdgeServerSpec(num_gpus=24, delta=0.1, window_duration=200.0)
    policy = EkyaPolicy(
        OracleProfileSource(AnalyticDynamics(seed=0), seed=1),
        make_config_space(),
        steal_quantum=0.1,
    )
    return policy, policy.prepare_request(streams, 0, spec)


class TestPrefixColumns:
    """A column is evaluated only as far as it is read, and grows in place."""

    @pytest.mark.parametrize("level", [0, 3, PREFIX_FLOOR, 17])
    def test_prefix_is_the_start_of_the_oracle_column(self, level):
        tables = _tables()
        reference = _tables()
        for units in (0, 1, 5, 39, 40):
            compute_columns_batched([(table, units, level) for table in tables])
            for table, oracle in zip(tables, reference):
                column = table._columns[units]
                full = oracle._compute_column(units)
                length = len(column.accuracy)
                assert length == min(max(level, PREFIX_FLOOR), 40 - units) + 1
                assert column.inference_index == full.inference_index
                assert column.accuracy == full.accuracy[:length]
                assert column.choice == full.choice[:length]

    def test_extension_keeps_the_list_objects_and_grows_geometrically(self):
        table, oracle = _tables(num_streams=1)[0], _tables(num_streams=1)[0]
        compute_columns_batched([(table, 2, 0)])
        column = table._columns[2]
        accuracy, choice = column.accuracy, column.choice
        assert len(accuracy) == PREFIX_FLOOR + 1
        compute_columns_batched([(table, 2, PREFIX_FLOOR + 1)])
        assert table._columns[2] is column
        assert column.accuracy is accuracy and column.choice is choice
        assert len(accuracy) == 2 * PREFIX_FLOOR + 1
        # A read short of twice the prefix still doubles it.
        compute_columns_batched([(table, 2, 3 * PREFIX_FLOOR)])
        assert column.accuracy is accuracy
        assert len(accuracy) == 4 * PREFIX_FLOOR + 1
        full = oracle._compute_column(2)
        assert accuracy == full.accuracy[: len(accuracy)]
        assert choice == full.choice[: len(accuracy)]

    def test_read_past_a_prefix_raises_naming_the_stream(self):
        table = _tables(num_streams=1)[0]
        compute_columns_batched([(table, 2, 0)])
        expected = re.escape(f"stream {table.stream_name!r}: retraining_units")
        with pytest.raises(SchedulingError, match=expected):
            table.accuracy_at(2, PREFIX_FLOOR + 1)

    def test_dense_site_writes_a_small_share_of_the_full_columns(self):
        """150 streams on 24 GPUs: the planner writes under a tenth of the
        levels full columns would hold, so full columns cannot come back."""
        built = []

        def recording(*args, **kwargs):
            tables = build_candidate_tables(*args, **kwargs)
            built.extend(tables.values())
            return tables

        policy, request = _dense_site()
        with mock.patch.object(batched_planner, "build_candidate_tables", recording):
            policy.scheduler.schedule(request)
        written = sum(len(c.accuracy) - 1 for t in built for c in t._columns.values())
        full = sum(t._total_units - units for t in built for units in t._columns)
        assert full > 0
        assert written < 0.1 * full


@contextmanager
def hand_built_columns(columns):
    """Both sweeps read ``columns[stream][inference_units]`` as the lattice.

    The oracle's tables return the hand-built column where they would run
    Algorithm 2, counting it as the oracle does; the batched planner's
    stacked evaluation becomes the same lookup, and it counts the rows it
    queries itself, as always.  Every config choice is "no retraining".
    """

    def column(name, units):
        accuracy = list(columns[name][units])
        return _Column(0, accuracy, [-1] * len(accuracy))

    def build(streams, **kwargs):
        tables = build_candidate_tables(streams, **kwargs)
        for name, table in tables.items():

            def compute(units, table=table, name=name):
                table.evaluations += 1
                return column(name, units)

            table._compute_column = compute
        return tables

    def compute_columns(rows):
        for table, units, _ in rows:
            if units not in table._columns:
                table._columns[units] = column(table.stream_name, units)

    with mock.patch.object(thief, "build_candidate_tables", build), mock.patch.object(
        batched_planner, "build_candidate_tables", build
    ), mock.patch.object(batched_planner, "compute_columns_batched", compute_columns):
        yield


def _plain_stream(name):
    """A stream input whose lattice values come from :func:`hand_built_columns`."""
    profile = StreamWindowProfile(stream_name=name, window_index=0, start_accuracy=0.5)
    profile.add(
        RetrainingEstimate(
            config=RetrainingConfig(epochs=15), post_retraining_accuracy=0.9, gpu_seconds=30.0
        )
    )
    return StreamWindowInput(
        stream_name=name,
        profile=profile,
        inference_configs=[InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25)],
    )


def assert_same_schedule(scalar, batched):
    """The oracle-equivalence contract, field by field."""
    assert batched.decisions == scalar.decisions
    assert batched.iterations == scalar.iterations
    assert batched.pick_configs_evaluations == scalar.pick_configs_evaluations
    assert batched.estimated_average_accuracy == scalar.estimated_average_accuracy


def improves(base, delta, threshold, num_streams):
    """The sweep's acceptance test for a victim delta, verbatim."""
    return (base + delta) / num_streams > threshold


def exact_cutoff(base, threshold, num_streams):
    """The largest victim delta whose steal does not improve, found one ulp
    at a time from the real-valued cutoff."""
    delta = threshold * num_streams - base
    while improves(base, delta, threshold, num_streams):
        delta = math.nextafter(delta, -math.inf)
    while not improves(base, math.nextafter(delta, math.inf), threshold, num_streams):
        delta = math.nextafter(delta, math.inf)
    return delta


def oracle_unit_holding_visits(request, quantum):
    """(thief, victim) visits of the oracle's sweep whose victim holds units.

    Each visit starts with a one-unit steal, which succeeds exactly when the
    victim holds a unit; the hand-back of an abandoned tail is the reversed
    pair and is not a visit.  Needs two or more streams: with one, the
    second thief's first visit is the reversed pair of the first's last.
    """
    visits = 0
    last = None
    steal_units = AllocationVector.steal_units

    def counting(vector, thief_id, victim_id, units):
        nonlocal visits, last
        moved = steal_units(vector, thief_id, victim_id, units)
        if (victim_id, thief_id) != last and (thief_id, victim_id) != last:
            last = (thief_id, victim_id)
            visits += moved
        return moved

    with mock.patch.object(AllocationVector, "steal_units", counting):
        schedule = ThiefScheduler(steal_quantum=quantum).schedule(request)
    return visits, schedule


class TestGuardedSweep:
    """The guards settle the no-op visits, and only those."""

    def test_victims_at_and_one_ulp_above_the_cutoff_decide_as_the_oracle(self):
        """Three streams, one unit per job.  Stream 0's inference job steals
        first; stream 1's inference victim loses exactly the cutoff, stream
        2's one ulp more than the cutoff allows, so only the second steal
        improves the objective.  Every other lattice point is 0.0."""
        names = ("s0", "s1", "s2")
        start = (0.51, 0.309, 0.3)
        thief_value = 0.639  # stream 0 after its inference job gains a unit
        accuracy_sum = sum(start)
        threshold = accuracy_sum / 3 + IMPROVEMENT_EPS
        base = accuracy_sum - start[0] + thief_value
        cutoff = exact_cutoff(base, threshold, 3)
        above = math.nextafter(cutoff, math.inf)
        # The real-valued first guess lies above the cutoff, so a guard
        # that skipped its verification would settle the improving visit.
        assert improves(base, threshold * 3 - base, threshold, 3)
        at_cutoff, one_above = start[1] + cutoff, start[2] + above
        assert at_cutoff - start[1] == cutoff and one_above - start[2] == above

        columns = {name: [[0.0] * (7 - level) for level in range(7)] for name in names}
        for name, accuracy in zip(names, start):
            columns[name][1][1] = accuracy
        columns["s0"][2][1] = thief_value
        columns["s1"][0][1] = at_cutoff
        columns["s2"][0][1] = one_above
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=6.0,
            delta=1.0,
            a_min=0.0,
            streams={name: _plain_stream(name) for name in names},
        )
        with hand_built_columns(columns):
            scalar = ThiefScheduler(steal_quantum=1.0).schedule(request)
            batched = BatchedThiefScheduler(steal_quantum=1.0).schedule(request)
        assert_same_schedule(scalar, batched)
        inference = {name: d.inference_gpu for name, d in batched.decisions.items()}
        assert inference == {"s0": 2.0, "s1": 1.0, "s2": 0.0}

    def test_dense_site_walks_under_five_percent_of_unit_holding_visits(self):
        """150 streams on 24 GPUs: nearly every visit is settled by one
        comparison, so a silent return to walking every visit fails here."""
        policy, request = _dense_site()
        walks = 0
        walk = batched_planner._CohortContext.walk

        def counting(context, thief_job, victim_job):
            nonlocal walks
            walks += 1
            return walk(context, thief_job, victim_job)

        with mock.patch.object(batched_planner._CohortContext, "walk", counting):
            batched = policy.scheduler.schedule(request)
        visits, scalar = oracle_unit_holding_visits(request, 0.1)
        assert_same_schedule(scalar, batched)
        assert 0 < walks < 0.05 * visits

    def test_rows_read_only_by_settled_visits_still_count(self):
        """Two streams, two units per job.  Both of stream 0's thieves visit
        stream 1's inference job and are settled, reading stream 1's rows
        at inference levels 1 and 0; then stream 1's inference job takes
        every stream-0 unit, so no walk ever reads those two rows.  Only
        the settled visits can count them as PickConfigs evaluations."""
        columns = {
            "s0": [[0.5] * (9 - level) for level in range(9)],
            "s1": [[0.0] * (9 - level) for level in range(9)],
        }
        for level, accuracy in ((2, 0.5), (3, 0.6), (4, 0.7), (5, 0.8), (6, 0.9)):
            columns["s1"][level][2] = accuracy
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=8.0,
            delta=1.0,
            a_min=0.0,
            streams={name: _plain_stream(name) for name in columns},
        )
        with hand_built_columns(columns):
            scalar = ThiefScheduler(steal_quantum=1.0).schedule(request)
            batched = BatchedThiefScheduler(steal_quantum=1.0).schedule(request)
        assert_same_schedule(scalar, batched)
        inference = {name: d.inference_gpu for name, d in batched.decisions.items()}
        assert inference == {"s0": 0.0, "s1": 6.0}
