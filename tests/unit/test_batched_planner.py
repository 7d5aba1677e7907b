"""Unit tests for the batched planner's API surface and guard rails.

The equivalence guarantees live in the property suite
(``tests/property/test_property_batched_planner.py``); this module pins
the plumbing around them — the prepare/solve split, cohort scheduling over
explicit request maps, the preplanned-window handoff, how the fleet plans
sites whose policy is not the plain thief, and the prefix columns.
"""

import re
from unittest import mock

import pytest

from repro.cluster import EdgeServer, EdgeServerSpec
from repro.configs import ConfigurationSpace
from repro.core import EkyaPolicy, OracleProfileSource, UniformPolicy
from repro.core import batched_planner
from repro.core.batched_planner import (
    PREFIX_FLOOR,
    BatchedThiefScheduler,
    compute_columns_batched,
    inference_gpu_of,
)
from repro.core.candidate_table import build_candidate_tables
from repro.datasets import make_workload
from repro.exceptions import FleetError, SchedulingError, SimulationError
from repro.fleet import EdgeSite, FleetController, FleetSimulator, SiteSpec
from repro.fleet.admission import LeastLoadedAdmission
from repro.fleet.calendar import EventCalendar, WindowBoundary
from repro.profiles import AnalyticDynamics
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

        streams = make_workload("cityscapes", 150, seed=0)
        spec = EdgeServerSpec(num_gpus=24, delta=0.1, window_duration=200.0)
        policy = EkyaPolicy(
            OracleProfileSource(AnalyticDynamics(seed=0), seed=1),
            make_config_space(),
            steal_quantum=0.1,
        )
        request = policy.prepare_request(streams, 0, spec)
        with mock.patch.object(batched_planner, "build_candidate_tables", recording):
            policy.scheduler.schedule(request)
        written = sum(len(c.accuracy) - 1 for t in built for c in t._columns.values())
        full = sum(t._total_units - units for t in built for units in t._columns)
        assert full > 0
        assert written < 0.1 * full
