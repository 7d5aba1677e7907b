"""Golden parity under the plan-phase purity sanitizer.

Two properties, both acceptance gates for the determinism analyzer:

* **Observation changes nothing.**  The golden scenario (the same fixture
  ``TestEngineParity`` pins) run with ``make_fleet(..., sanitize=True)``
  reproduces the recorded result bit for bit — digesting engine state
  before/after every plan and control scan must not perturb the run.
* **Mutation is caught.**  A dynamics implementation deliberately injected
  to commit per-stream state while planning raises
  :class:`~repro.exceptions.PurityViolationError` from inside the fleet
  event loop, naming the guarded call.

A long sanitized chaos run covers the path the short ones never reach: a
predictive migration whose departure cancels an in-flight retraining
settles ``commit_window(stream, w, None)`` *inside* the guarded control
scan, so an idle commit must leave every cache it touches shape-stable.
"""

import json
from pathlib import Path

import pytest

from repro.exceptions import PurityViolationError
from repro.fleet import (
    FlashCrowd,
    FleetSimulator,
    Scenario,
    SiteFailure,
    WanDegradation,
    make_fleet,
)
from repro.fleet.chaos import ChaosInjector, check_invariants
from repro.profiles import AnalyticDynamics
from repro.utils.clock import ManualClock

#: ``make_fleet``'s default window duration: ``k * WINDOW`` is the start of
#: window ``k``.
WINDOW = 200.0
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "fleet_parity_golden.json"


def golden_scenario():
    return Scenario(
        events=[
            WanDegradation(
                at_seconds=WINDOW, site="site-0", uplink_factor=0.02, until_at=6 * WINDOW
            ),
            FlashCrowd(at_seconds=2 * WINDOW, num_streams=3, dataset="urban_traffic"),
            SiteFailure(at_seconds=3 * WINDOW, site="site-0", recovery_at=5 * WINDOW),
            WanDegradation(
                at_seconds=4 * WINDOW, site="site-2", uplink_factor=0.3, until_at=6 * WINDOW
            ),
        ]
    )


class TestSanitizedGoldenParity:
    def test_sanitized_run_reproduces_the_golden_result_bit_identically(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        clock = ManualClock()
        controller = make_fleet(
            3, 2, gpus_per_site=2, admission="least_loaded", seed=0, clock=clock,
            sanitize=True,
        )
        result = FleetSimulator(controller, golden_scenario(), clock=clock).run(7)

        assert result.admission_policy == golden["admission_policy"]
        assert result.num_sites == golden["num_sites"]
        assert result.wall_clock_seconds == golden["wall_clock_seconds"]
        assert result.mean_accuracy == golden["mean_accuracy"]
        assert result.worst_stream_accuracy(10.0) == golden["p10_worst_stream_accuracy"]
        assert len(result.windows) == len(golden["windows"])
        for window, expected in zip(result.windows, golden["windows"]):
            assert window.window_index == expected["window_index"]
            assert window.mean_accuracy == expected["mean_accuracy"]
            assert window.admitted_streams == expected["admitted_streams"]
            assert window.failed_sites == expected["failed_sites"]
            assert [
                [e.stream_name, e.source, e.destination, e.window_index,
                 e.transfer_seconds, e.reason]
                for e in window.migrations
            ] == expected["migrations"]
            assert {
                name: [stats.num_streams, stats.utilization, stats.allocation_loss,
                       stats.mean_accuracy, stats.scheduler_runtime_seconds]
                for name, stats in window.site_stats.items()
            } == expected["site_stats"]
            assert {
                name: [o.site, o.effective_average_accuracy, o.transfer_seconds,
                       o.outcome.retraining_completed, o.outcome.retraining_duration]
                for name, o in window.stream_outcomes.items()
            } == expected["stream_outcomes"]

        # The guards actually ran: every planned window on every healthy
        # site went through a digest/verify cycle.
        plan_checks = sum(
            site._simulator._sanitizer.checks for site in controller.sites
        )
        assert plan_checks > 0
        assert controller._sanitizer is not None
        assert controller._sanitizer.checks > 0

    def test_sanitized_preemptive_predictive_run_completes_clean(self):
        """The widest engine surface: profile sharing + predictive policy."""
        clock = ManualClock()
        controller = make_fleet(
            3, 2, gpus_per_site=2, seed=0, clock=clock, profile_sharing=True,
            control_policy="predictive", sanitize=True,
        )
        result = FleetSimulator(controller, golden_scenario(), clock=clock).run(5)
        assert len(result.windows) == 5


CHAOS_WINDOWS = 12


def run_chaos_fleet(seed, *, sanitize):
    """The ``chaos_fleet`` shape of the end-to-end benchmark."""
    injector = ChaosInjector(seed, intensity=1.5)
    clock = ManualClock()
    controller = make_fleet(
        6, 12, gpus_per_site=4, profile_sharing=True,
        wan_faults=injector.wan_faults(), control_policy="predictive", seed=seed,
        clock=clock, sanitize=sanitize,
    )
    scenario = injector.compile(
        [site.name for site in controller.sites],
        window_duration=controller.window_duration,
        num_windows=CHAOS_WINDOWS,
        gpus_per_site=4,
    )
    initial_streams = controller.num_streams
    simulator = FleetSimulator(controller, scenario, control_interval=50.0, clock=clock)
    return controller, simulator.run(CHAOS_WINDOWS), initial_streams


class TestSanitizedLongChaosRun:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_twelve_chaos_windows_run_clean_and_match_the_unsanitized_run(self, seed):
        controller, result, initial_streams = run_chaos_fleet(seed, sanitize=True)
        _, reference, _ = run_chaos_fleet(seed, sanitize=False)

        assert len(result.windows) == CHAOS_WINDOWS
        assert check_invariants(controller, result, initial_streams=initial_streams) == []
        assert result.mean_accuracy == reference.mean_accuracy
        summary = result.summary()
        # The run reached the cancel-on-departure path under guarded scans.
        assert summary["migrations_by_reason"].get("predictive", 0) > 0
        assert summary["retrainings_cancelled"] > 0
        assert controller._sanitizer.checks > 0


class LeakyDynamics(AnalyticDynamics):
    """Deliberately impure: planning commits per-stream serving state."""

    def start_accuracy(self, stream, window_index):
        value = super().start_accuracy(stream, window_index)
        state = self._state(stream)
        state.accuracy_when_trained = value - 0.01
        return value


class TestInjectedMutationIsDetected:
    def test_fleet_run_raises_at_the_leaky_plan(self):
        controller = make_fleet(2, 1, gpus_per_site=1, seed=0, sanitize=True)
        site = controller.sites[0]
        leaky = LeakyDynamics(seed=0)
        # Prime the serving state so its paths pre-date the guarded plan;
        # state first created during planning is allowed growth.
        for stream in site.streams:
            leaky._state(stream)
        site._simulator._dynamics = leaky
        simulator = FleetSimulator(controller)
        with pytest.raises(PurityViolationError, match=r"plan_window\(0\)"):
            simulator.run(1)

    def test_leaky_profiling_raises_at_the_prepared_request(self):
        """Profiling runs before the cohort solve, under a guard of its own."""
        controller = make_fleet(2, 1, gpus_per_site=1, seed=0, sanitize=True)
        site = controller.sites[0]
        leaky = LeakyDynamics(seed=0)
        for stream in site.streams:
            leaky._state(stream)
        site._simulator._dynamics = leaky
        site.policy.profile_source._dynamics = leaky
        simulator = FleetSimulator(controller)
        with pytest.raises(PurityViolationError, match=r"prepare_request\(0\)"):
            simulator.run(1)

    def test_unsanitized_fleet_does_not_guard(self):
        controller = make_fleet(2, 1, gpus_per_site=1, seed=0)
        assert controller._sanitizer is None
        assert all(site._simulator._sanitizer is None for site in controller.sites)
