"""Unit tests for the fleet orchestration layer and the clock helper."""

import pytest

from repro.cluster import CELLULAR_4G, CELLULAR_4G_X2, EdgeServer, EdgeServerSpec
from repro.core import CloudRetrainingPolicy, OracleProfileSource
from repro.datasets import make_stream, make_workload
from repro.exceptions import FleetError, SchedulingError, SimulationError
from repro.fleet import (
    AccuracyGreedyAdmission,
    EdgeSite,
    FleetController,
    FleetSimulator,
    FleetStreamOutcome,
    LeastLoadedAdmission,
    MigrationCostModel,
    MigrationEvent,
    RandomAdmission,
    Scenario,
    SiteSpec,
    build_admission,
    make_fleet,
)
from repro.profiles import AnalyticDynamics
from repro.simulation import Simulator, make_setup, run_experiment
from repro.simulation.simulator import StreamWindowOutcome
from repro.utils.clock import ManualClock, Stopwatch, SystemClock


def _fleet(num_sites=3, streams_per_site=2, **kwargs):
    kwargs.setdefault("gpus_per_site", 2)
    kwargs.setdefault("seed", 0)
    return make_fleet(num_sites, streams_per_site, **kwargs)


# --------------------------------------------------------------------- clock
class TestClock:
    def test_manual_clock_is_frozen_by_default(self):
        clock = ManualClock()
        watch = Stopwatch(clock)
        assert watch.elapsed() == 0.0

    def test_manual_clock_tick_and_advance(self):
        clock = ManualClock(start=10.0, tick=1.0)
        assert clock.now() == 10.0
        assert clock.now() == 11.0
        clock.advance(5.0)
        assert clock.now() == 17.0

    def test_manual_clock_rejects_negative(self):
        with pytest.raises(SimulationError):
            ManualClock(tick=-1.0)
        with pytest.raises(SimulationError):
            ManualClock().advance(-1.0)

    def test_system_clock_is_monotonic(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()

    def test_cloud_policy_runtime_is_deterministic_with_manual_clock(self):
        dynamics = AnalyticDynamics(seed=0)
        policy = CloudRetrainingPolicy(
            OracleProfileSource(dynamics, seed=1),
            CELLULAR_4G,
            clock=ManualClock(),
        )
        streams = make_workload("cityscapes", 2, seed=0)
        spec = EdgeServerSpec(num_gpus=1)
        schedule = policy.plan_window(streams, 0, spec)
        assert schedule.scheduler_runtime_seconds == 0.0


# --------------------------------------------------------- edge-server growth
class TestEdgeServerMutation:
    def test_allow_empty_and_attach_detach(self):
        server = EdgeServer(EdgeServerSpec(num_gpus=1), [], allow_empty=True)
        assert server.num_streams == 0
        stream = make_stream("cityscapes", 0, seed=0)
        server.attach_stream(stream)
        assert server.stream_names == [stream.name]
        assert server.detach_stream(stream.name) is stream
        assert server.num_streams == 0

    def test_empty_without_flag_raises(self):
        with pytest.raises(SchedulingError):
            EdgeServer(EdgeServerSpec(num_gpus=1), [])

    def test_duplicate_attach_raises(self):
        stream = make_stream("cityscapes", 0, seed=0)
        server = EdgeServer(EdgeServerSpec(num_gpus=1), [stream])
        with pytest.raises(SchedulingError):
            server.attach_stream(stream)

    def test_detach_unknown_raises(self):
        server = EdgeServer(EdgeServerSpec(num_gpus=1), [], allow_empty=True)
        with pytest.raises(SchedulingError):
            server.detach_stream("nope")


# ---------------------------------------------------------------------- sites
class TestEdgeSite:
    def test_site_state_transitions(self):
        controller = _fleet(2, 1)
        site = controller.site("site-0")
        assert site.healthy and site.load == pytest.approx(0.5)
        site.fail()
        assert site.plan_window(0) is None
        with pytest.raises(FleetError):
            site.attach(make_stream("waymo", 0, seed=0))
        site.recover()
        assert site.healthy

    def test_wan_degradation_and_restore(self):
        site = _fleet(1, 0).site("site-0")
        base_uplink = site.link.uplink_mbps
        site.degrade_wan(uplink_factor=0.5)
        assert site.link.uplink_mbps == pytest.approx(base_uplink / 2)
        site.restore_wan()
        assert site.link.uplink_mbps == pytest.approx(base_uplink)

    def test_empty_site_is_idle(self):
        controller = _fleet(1, 0)
        assert controller.site("site-0").plan_window(0) is None

    def test_spec_requires_name(self):
        with pytest.raises(FleetError):
            SiteSpec(name="")

    def test_spec_validates_capacity_and_window_up_front(self):
        """Regression: SiteSpec(num_gpus=0) used to be accepted and blow up
        later as a bare ZeroDivisionError from EdgeSite.load (or confusingly
        from EdgeServerSpec); it must fail at construction as a FleetError."""
        with pytest.raises(FleetError):
            SiteSpec(name="x", num_gpus=0)
        with pytest.raises(FleetError):
            SiteSpec(name="x", num_gpus=-1)
        with pytest.raises(FleetError):
            SiteSpec(name="x", window_duration=0.0)
        with pytest.raises(FleetError):
            SiteSpec(name="x", window_duration=-200.0)
        with pytest.raises(FleetError):
            SiteSpec(name="x", delta=0.0)
        with pytest.raises(FleetError):
            SiteSpec(name="x", num_gpus=2, delta=3.0)  # delta > num_gpus
        with pytest.raises(FleetError):
            SiteSpec(name="x", min_inference_accuracy=1.0)
        with pytest.raises(FleetError):
            SiteSpec(name="x", min_inference_accuracy=-0.1)
        # A valid spec still builds and its server spec agrees field by field.
        spec = SiteSpec(name="ok", num_gpus=2, delta=0.5, window_duration=150.0)
        server_spec = spec.server_spec()
        assert server_spec.num_gpus == 2
        assert server_spec.window_duration == pytest.approx(150.0)


# ------------------------------------------------------------------ admission
class TestAdmissionPolicies:
    def _sites(self, loads, dynamics):
        sites = []
        for index, num_streams in enumerate(loads):
            site = EdgeSite(
                SiteSpec(name=f"site-{index}", num_gpus=1),
                dynamics=dynamics,
                policy=None,
            )
            for stream_index in range(num_streams):
                site.attach(make_stream("cityscapes", 100 * index + stream_index, seed=1))
            sites.append(site)
        return sites

    def test_least_loaded_picks_emptiest(self):
        dynamics = AnalyticDynamics(seed=0)
        sites = self._sites([3, 0, 2], dynamics)
        stream = make_stream("waymo", 0, seed=0)
        chosen = LeastLoadedAdmission().choose_site(stream, sites, 0)
        assert chosen.name == "site-1"

    def test_random_is_seed_deterministic(self):
        dynamics = AnalyticDynamics(seed=0)
        sites = self._sites([1, 1, 1], dynamics)
        stream = make_stream("waymo", 0, seed=0)
        first = [RandomAdmission(seed=7).choose_site(stream, sites, 0).name for _ in range(5)]
        second = [RandomAdmission(seed=7).choose_site(stream, sites, 0).name for _ in range(5)]
        assert first == second

    def test_accuracy_greedy_avoids_contended_site(self):
        dynamics = AnalyticDynamics(seed=0)
        sites = self._sites([6, 0], dynamics)
        stream = make_stream("waymo", 0, seed=0)
        policy = AccuracyGreedyAdmission(dynamics)
        chosen = policy.choose_site(stream, sites, 0)
        assert chosen.name == "site-1"
        assert policy.score(stream, sites[1], 0) >= policy.score(stream, sites[0], 0)

    def test_no_healthy_sites_raises(self):
        with pytest.raises(FleetError):
            LeastLoadedAdmission().choose_site(make_stream("waymo", 0, seed=0), [], 0)

    def test_full_ties_break_on_smallest_site_name_for_both_policies(self):
        """Regression: AccuracyGreedyAdmission's max() over a (score, -load,
        name) key resolved full ties to the lexicographically *largest*
        name, contradicting the documented smallest-name convention that
        LeastLoadedAdmission follows."""
        dynamics = AnalyticDynamics(seed=0)
        stream = make_stream("waymo", 0, seed=0)
        # Empty identical sites: identical load and identical scores.
        sites = self._sites([0, 0, 0], dynamics)
        greedy = AccuracyGreedyAdmission(dynamics)
        scores = [greedy.score(stream, site, 0) for site in sites]
        assert scores[0] == scores[1] == scores[2]
        assert greedy.choose_site(stream, sites, 0).name == "site-0"
        assert LeastLoadedAdmission().choose_site(stream, sites, 0).name == "site-0"
        # Order of the candidate list must not matter.
        assert greedy.choose_site(stream, list(reversed(sites)), 0).name == "site-0"
        assert (
            LeastLoadedAdmission().choose_site(stream, list(reversed(sites)), 0).name
            == "site-0"
        )
        # A score tie with unequal load still prefers the less-loaded site.
        uneven = [sites[2], sites[0]]
        uneven[1].attach(make_stream("cityscapes", 900, seed=1))
        if greedy.score(stream, uneven[0], 0) == greedy.score(stream, uneven[1], 0):
            assert greedy.choose_site(stream, uneven, 0).name == "site-2"

    def test_shared_profiles_mode_scores_with_post_retraining_curve(self):
        from repro.profiles import (
            FleetProfileStore,
            RetrainingEstimate,
            StreamWindowProfile,
            stream_profile_key,
        )
        from repro.configs import RetrainingConfig

        dynamics = AnalyticDynamics(seed=0)
        stream = make_stream("cityscapes", 0, seed=0)
        sites = self._sites([0, 0], dynamics)
        store = FleetProfileStore()
        shared = AccuracyGreedyAdmission(dynamics, shared_profiles=store)
        stale = AccuracyGreedyAdmission(dynamics)
        # Empty store: identical to the stale no-retraining estimate.
        assert shared.score(stream, sites[0], 0) == stale.score(stream, sites[0], 0)
        # Seed the stream's key with a high post-retraining curve: the score
        # must now exceed the stale estimate (retraining pays off in-window).
        profile = StreamWindowProfile(
            stream_name="cityscapes-9", window_index=0, start_accuracy=0.5
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=5),
                post_retraining_accuracy=0.99,
                gpu_seconds=10.0,
            )
        )
        store.push(stream_profile_key(stream), profile)
        assert shared.score(stream, sites[0], 0) > stale.score(stream, sites[0], 0)
        chosen = shared.choose_site(stream, sites, 0)
        assert chosen.name == "site-0"  # determinism unchanged

    def test_profiling_settings_require_profile_sharing(self):
        from repro.core import MicroProfilerSettings

        with pytest.raises(FleetError):
            make_fleet(1, 1, profiling_settings=MicroProfilerSettings(max_configs=4))
        # With sharing on the settings are honoured.
        controller = make_fleet(
            1,
            1,
            profile_sharing=True,
            profiling_settings=MicroProfilerSettings(max_configs=4),
        )
        assert controller.profile_sharing is not None

    def test_build_admission_names(self):
        dynamics = AnalyticDynamics(seed=0)
        assert build_admission("least_loaded", dynamics).name == "least-loaded"
        assert build_admission("accuracy_greedy", dynamics).name == "accuracy-greedy"
        assert build_admission("random", dynamics).name == "random"
        with pytest.raises(FleetError):
            build_admission("nope", dynamics)


# ------------------------------------------------------------------ migration
class TestMigrationCost:
    def test_transfer_uses_source_uplink_and_destination_downlink(self):
        cost = MigrationCostModel(checkpoint_mbits=100.0, profile_mbits=0.0)
        seconds = cost.transfer_seconds(CELLULAR_4G, CELLULAR_4G_X2)
        expected = CELLULAR_4G.upload_seconds(100.0) + CELLULAR_4G_X2.download_seconds(100.0)
        assert seconds == pytest.approx(expected)

    def test_degraded_wan_slows_migration(self):
        cost = MigrationCostModel()
        fast = cost.transfer_seconds(CELLULAR_4G_X2, CELLULAR_4G_X2)
        slow = cost.transfer_seconds(CELLULAR_4G_X2.scaled(0.25, 1.0), CELLULAR_4G_X2)
        assert slow > fast

    def test_event_validation(self):
        with pytest.raises(FleetError):
            MigrationEvent("s", "a", "a", 0, 1.0, "overload")
        with pytest.raises(FleetError):
            MigrationEvent("s", "a", "b", 0, -1.0, "overload")
        with pytest.raises(FleetError):
            MigrationCostModel(checkpoint_mbits=0.0)


# ----------------------------------------------------------------- controller
class TestFleetController:
    @staticmethod
    def _make_site(dynamics, name, duration=200.0):
        return EdgeSite(
            SiteSpec(name=name, window_duration=duration), dynamics=dynamics, policy=None
        )

    def test_requires_unique_sites(self):
        dynamics = AnalyticDynamics(seed=0)
        with pytest.raises(FleetError):
            FleetController([], dynamics=dynamics, admission=LeastLoadedAdmission())
        with pytest.raises(FleetError):
            FleetController(
                [self._make_site(dynamics, "a"), self._make_site(dynamics, "a")],
                dynamics=dynamics,
                admission=LeastLoadedAdmission(),
            )

    def test_heterogeneous_windows_have_no_shared_duration(self):
        dynamics = AnalyticDynamics(seed=0)
        mixed = FleetController(
            [self._make_site(dynamics, "a", 200.0), self._make_site(dynamics, "b", 100.0)],
            dynamics=dynamics,
            admission=LeastLoadedAdmission(),
        )
        assert not mixed.homogeneous_windows
        assert mixed.reference_window_duration == pytest.approx(200.0)
        with pytest.raises(FleetError):
            mixed.window_duration
        shared = FleetController(
            [self._make_site(dynamics, "a", 150.0), self._make_site(dynamics, "b", 150.0)],
            dynamics=dynamics,
            admission=LeastLoadedAdmission(),
        )
        assert shared.homogeneous_windows
        assert shared.window_duration == pytest.approx(150.0)
        assert shared.reference_window_duration == pytest.approx(150.0)

    def test_boundary_settled_engine_is_gone(self):
        """Every site is event-driven; the transitional keyword accepts only
        ``True`` and asking for the removed engine fails loudly."""
        assert _fleet(1, 1, preemptive_sites=True).num_streams == 1
        with pytest.raises(FleetError, match="boundary-settled"):
            _fleet(1, 1, preemptive_sites=False)

    def test_admit_duplicate_and_failed_site(self):
        controller = _fleet(2, 1)
        stream = controller.site("site-0").streams[0]
        with pytest.raises(FleetError):
            controller.admit(stream, 0)
        controller.site("site-1").fail()
        with pytest.raises(FleetError):
            controller.admit(make_stream("waymo", 0, seed=0), 0, site="site-1")

    def test_site_of_tracks_membership(self):
        controller = _fleet(2, 2)
        for site in controller.sites:
            for name in site.stream_names:
                assert controller.site_of(name) is site
        with pytest.raises(FleetError):
            controller.site_of("unknown-stream")

    def test_rebalance_caps_migrations_and_reduces_gap(self):
        controller = _fleet(2, 0, max_migrations_per_window=2)
        for index in range(8):
            controller.admit(make_stream("cityscapes", index, seed=3), 0, site="site-0")
        before_gap = controller.site("site-0").load - controller.site("site-1").load
        events = controller.rebalance(0)
        after_gap = controller.site("site-0").load - controller.site("site-1").load
        assert 0 < len(events) <= 2
        assert after_gap < before_gap
        assert all(event.reason == "overload" for event in events)
        # Membership stays consistent after the moves.
        for event in events:
            assert controller.site_of(event.stream_name).name == event.destination

    def test_fail_site_evacuates_everything(self):
        controller = _fleet(3, 2)
        evacuated = controller.fail_site("site-0", 1)
        assert controller.site("site-0").num_streams == 0
        assert len(evacuated) == 2
        assert all(event.reason == "evacuation" for event in evacuated)
        assert all(event.source == "site-0" for event in evacuated)
        # Idempotent: failing again evacuates nothing.
        assert controller.fail_site("site-0", 1) == []
        controller.recover_site("site-0")
        assert controller.site("site-0").healthy

    def test_last_site_failure_raises(self):
        controller = _fleet(1, 1)
        with pytest.raises(FleetError):
            controller.fail_site("site-0", 0)

    def test_spawn_streams_generates_unique_names(self):
        controller = _fleet(2, 2)  # initial workload already uses cityscapes-0..3
        spawned = controller.spawn_streams("cityscapes", 3, 0)
        names = [stream.name for stream in spawned]
        assert len(set(names)) == 3
        existing = {
            name for site in controller.sites for name in site.stream_names
        }
        assert set(names) <= existing
        assert controller.num_streams == 7


# -------------------------------------------------------------------- metrics
class TestFleetMetrics:
    def _outcome(self, **overrides):
        kwargs = dict(
            stream_name="s",
            window_index=0,
            decision=None,
            start_accuracy=0.8,
            post_retraining_accuracy=0.9,
            realized_average_accuracy=0.85,
            accuracy_during_retraining=0.7,
            accuracy_after_retraining=0.9,
            retraining_duration=100.0,
            retraining_completed=True,
            minimum_instantaneous_accuracy=0.7,
            decision_window_seconds=200.0,
        )
        kwargs.update(overrides)
        return StreamWindowOutcome(**kwargs)

    def test_effective_accuracy_mirrors_site_outcome(self):
        fleet_outcome = FleetStreamOutcome("s", "site-0", self._outcome())
        assert fleet_outcome.effective_average_accuracy == pytest.approx(0.85)
        assert not fleet_outcome.migrated
        hops = (
            MigrationEvent("s", "site-0", "site-1", 0, 50.0, "evacuation"),
            MigrationEvent("s", "site-1", "site-2", 0, 30.0, "overload"),
        )
        bounced = FleetStreamOutcome("s", "site-2", self._outcome(), migrations=hops)
        assert bounced.migrated
        assert bounced.transfer_seconds == pytest.approx(80.0)

    def _delayed_outcome(self, delay, *, seed=0):
        setup = make_setup(
            "ekya", num_streams=2, num_gpus=2, seed=seed, profiler_error_std=0.0
        )
        simulator = Simulator(setup.server, setup.dynamics, setup.policy)
        name = setup.server.stream_names[0]
        delays = {name: delay} if delay else None
        outcome = simulator.run_window(0, retraining_delays=delays).outcomes[name]
        return outcome, setup

    def test_migration_delay_shifts_retraining_completion(self):
        base, _ = self._delayed_outcome(0.0)
        delayed, _ = self._delayed_outcome(60.0)
        assert base.retraining_completed
        assert delayed.retraining_completed
        # The retrained model lands transfer + training time into the window,
        # so the realised window average drops by exactly the delayed span.
        assert delayed.retraining_duration == pytest.approx(
            base.retraining_duration + 60.0
        )
        assert delayed.realized_average_accuracy < base.realized_average_accuracy

    def test_transfer_longer_than_window_forfeits_and_does_not_commit(self):
        base, base_setup = self._delayed_outcome(0.0)
        stalled, stalled_setup = self._delayed_outcome(10_000.0)
        assert base.retraining_completed
        assert not stalled.retraining_completed
        # Whole window at the stale degraded accuracy...
        assert stalled.realized_average_accuracy == pytest.approx(
            stalled.accuracy_during_retraining
        )
        # ...and the dynamics were not advanced: the next window still starts
        # from the stale model, unlike the committed no-delay run.
        stream_name = base_setup.server.stream_names[0]
        committed = base_setup.dynamics.start_accuracy(
            base_setup.server.stream(stream_name), 1
        )
        uncommitted = stalled_setup.dynamics.start_accuracy(
            stalled_setup.server.stream(stream_name), 1
        )
        assert uncommitted < committed

    def test_manual_clock_makes_fleet_results_bit_identical(self):
        """One injected clock covers site schedulers AND the fleet layer."""

        def run():
            clock = ManualClock()
            controller = make_fleet(2, 2, gpus_per_site=2, seed=0, clock=clock)
            return FleetSimulator(controller, clock=clock).run(2)

        first, second = run(), run()
        assert first.wall_clock_seconds == 0.0
        for window in first.windows:
            for stats in window.site_stats.values():
                assert stats.scheduler_runtime_seconds == 0.0
        for window_a, window_b in zip(first.windows, second.windows):
            assert window_a.site_stats == window_b.site_stats
            assert window_a.mean_accuracy == window_b.mean_accuracy

    def test_fleet_result_percentile_and_summary(self):
        controller = _fleet(2, 2)
        result = FleetSimulator(controller, Scenario(), clock=ManualClock()).run(2)
        assert result.wall_clock_seconds == 0.0
        per_stream = result.per_stream_accuracy
        assert len(per_stream) == 4
        assert result.worst_stream_accuracy(0.0) == pytest.approx(min(per_stream.values()))
        assert result.worst_stream_accuracy(100.0) == pytest.approx(max(per_stream.values()))
        summary = result.summary()
        assert summary["num_sites"] == 2
        assert summary["num_streams"] == 4
        assert 0.0 < summary["mean_accuracy"] <= 1.0

    def test_summary_key_set_matches_the_documented_contract(self):
        """FleetResult.summary() keys are a documented API.

        Every key is described in docs/events.md's metrics appendix; this
        pins the exact set so documentation and code cannot drift — extend
        both together, deliberately.
        """
        controller = _fleet(2, 2)
        summary = FleetSimulator(controller, Scenario(), clock=ManualClock()).run(1).summary()
        assert set(summary) == {
            "admission_policy",
            "num_sites",
            "num_windows",
            "num_streams",
            "mean_accuracy",
            "p10_worst_stream_accuracy",
            "migration_count",
            "total_migration_seconds",
            "migrations_by_reason",
            "mean_utilization",
            "mean_allocation_loss",
            "profiling_gpu_seconds",
            "profiling_gpu_seconds_saved",
            "retrainings_cancelled",
            "reclaimed_gpu_seconds",
            "wasted_gpu_seconds",
            "control_policy",
            "control_scans_skipped",
            "migrations_rejected",
            "proactive_cancellations",
            "transfers_failed",
            "transfer_retries",
            "retry_seconds",
            "wall_clock_seconds",
            "telemetry_events_dropped",
            "telemetry_sampled_streams",
            "telemetry_ring_occupancy",
        }


# ----------------------------------------------------- allocation-loss surface
class TestAllocationLossExposure:
    def test_simulation_result_exposes_quantisation_loss(self):
        result = run_experiment(
            "ekya", num_streams=4, num_gpus=1, num_windows=2, seed=0
        )
        for window in result.windows:
            assert window.allocation_loss >= 0.0
        assert result.mean_allocation_loss >= 0.0
        assert result.total_allocation_loss == pytest.approx(
            sum(w.allocation_loss for w in result.windows)
        )

    def test_fleet_surfaces_allocation_loss(self):
        controller = _fleet(2, 2)
        result = FleetSimulator(controller).run(1)
        window = result.windows[0]
        assert window.allocation_loss == pytest.approx(
            sum(stats.allocation_loss for stats in window.site_stats.values())
        )
        assert result.mean_allocation_loss >= 0.0
