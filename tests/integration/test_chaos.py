"""Integration tests for the seeded chaos harness (repro.fleet.chaos).

The acceptance gates for the partial-failure fault model: a ≥20-seed sweep
of compiled fault schedules violates no fleet-wide invariant, a fixed seed
reproduces its ``FleetResult.summary()`` bit for bit, the zero-intensity
point of the sweep *is* the lossless engine, and accuracy degrades
monotonically as the fault intensity rises.
"""

import statistics

from repro.fleet import (
    FleetSimulator,
    InferenceReconfigured,
    MigrationStarted,
    make_fleet,
)
from repro.fleet.calendar import EventCalendar
from repro.fleet.chaos import (
    ChaosInjector,
    run_chaos_trial,
)
from repro.utils.clock import ManualClock
from repro.utils.rng import stable_seed

SWEEP_SEEDS = range(20)


class TestChaosSweep:
    def test_invariants_hold_across_the_seed_sweep(self):
        reports = [run_chaos_trial(seed, quick=True) for seed in SWEEP_SEEDS]
        broken = [(r.seed, r.violations) for r in reports if not r.ok]
        assert not broken, f"invariant violations: {broken}"
        # The sweep must actually exercise the fault paths, not skate by
        # with empty schedules.
        assert all(r.num_fault_events > 0 for r in reports)
        assert any(r.summary["transfers_failed"] > 0 for r in reports)
        assert any(r.summary["transfer_retries"] > 0 for r in reports)

    def test_fixed_seed_reproduces_identical_summaries(self):
        first = run_chaos_trial(7, quick=True)
        second = run_chaos_trial(7, quick=True)
        assert first.summary == second.summary
        assert first.violations == second.violations
        assert first.num_fault_events == second.num_fault_events

    def test_zero_intensity_is_exactly_the_lossless_engine(self):
        report = run_chaos_trial(3, quick=True, intensity=0.0)
        assert report.num_fault_events == 0
        assert report.summary["transfers_failed"] == 0
        clock = ManualClock()
        controller = make_fleet(
            3,
            2,
            gpus_per_site=4,
            window_duration=200.0,
            seed=3,
            clock=clock,
            profile_sharing=True,
            wan_faults=None,
        )
        baseline = FleetSimulator(controller, clock=clock).run(6).summary()
        assert report.summary == baseline

    def test_accuracy_degrades_monotonically_with_fault_intensity(self):
        seeds = range(8)

        def mean_accuracy(intensity):
            return statistics.mean(
                run_chaos_trial(seed, quick=True, intensity=intensity).summary[
                    "mean_accuracy"
                ]
                for seed in seeds
            )

        lossless = mean_accuracy(0.0)
        moderate = mean_accuracy(1.0)
        hostile = mean_accuracy(3.0)
        assert lossless >= moderate >= hostile
        # And the ordering is not vacuous: faults must actually cost accuracy.
        assert lossless > hostile

    def test_trace_only_markers_never_reach_the_calendar(self, monkeypatch):
        """Allocation changes and migration starts are written into the
        telemetry ring when they happen; only events with a handler are
        scheduled.  Seed 3 evacuates, completes and loses a whole site's
        GPUs, so every marker reason shows up."""
        scheduled = []
        schedule = EventCalendar.schedule

        def spy(calendar, event):
            scheduled.append(type(event))
            return schedule(calendar, event)

        monkeypatch.setattr(EventCalendar, "schedule", spy)
        injector = ChaosInjector(seed=stable_seed("chaos-schedule", 3), intensity=1.0)
        clock = ManualClock()
        controller = make_fleet(
            3,
            2,
            gpus_per_site=4,
            seed=3,
            clock=clock,
            profile_sharing=True,
            wan_faults=injector.wan_faults(),
        )
        scenario = injector.compile(
            [site.name for site in controller.sites],
            window_duration=200.0,
            num_windows=6,
            gpus_per_site=4,
        )
        simulator = FleetSimulator(controller, scenario, clock=clock)
        simulator.run(6)
        assert scheduled
        assert InferenceReconfigured not in scheduled
        assert MigrationStarted not in scheduled
        trace = simulator.event_trace
        assert any(isinstance(event, MigrationStarted) for event in trace)
        reasons = {
            event.reason for event in trace if isinstance(event, InferenceReconfigured)
        }
        assert reasons == {"retraining_complete", "retraining_cancelled", "gpu_failure"}


class TestChaosInjector:
    def test_schedule_is_a_pure_function_of_seed_and_intensity(self):
        sites = ["site-0", "site-1", "site-2"]
        kwargs = dict(window_duration=200.0, num_windows=6, gpus_per_site=4)
        first = ChaosInjector(seed=11, intensity=1.5).compile(sites, **kwargs)
        second = ChaosInjector(seed=11, intensity=1.5).compile(sites, **kwargs)
        assert first.events == second.events
        different = ChaosInjector(seed=12, intensity=1.5).compile(sites, **kwargs)
        assert first.events != different.events

    def test_concurrent_distinct_site_failures_stay_below_fleet_size(self):
        sites = ["site-0", "site-1", "site-2"]
        scenario = ChaosInjector(seed=5, intensity=6.0).compile(
            sites, window_duration=200.0, num_windows=8, gpus_per_site=4
        )
        failures = [
            e for e in scenario.events if type(e).__name__ == "SiteFailure"
        ]
        assert failures, "a hostile schedule must contain site failures"
        instants = sorted(
            {f.at_seconds for f in failures} | {f.recovery_at for f in failures}
        )
        for t in instants:
            down = {
                f.site
                for f in failures
                if f.at_seconds <= t < f.recovery_at
            }
            assert len(down) < len(sites)

    def test_zero_intensity_compiles_nothing(self):
        injector = ChaosInjector(seed=1, intensity=0.0)
        assert injector.wan_faults() is None
        scenario = injector.compile(
            ["site-0"], window_duration=200.0, num_windows=4
        )
        assert scenario.events == []
