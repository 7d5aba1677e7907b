"""Integration tests for multi-site fleet simulation and scenario events.

The headline acceptance scenarios: when a site fails, its streams are
force-evacuated over the WAN (paying real checkpoint + profile transfer
cost, visible as an accuracy dip in the migration window) and recover to the
no-failure counterfactual's accuracy within two windows of the migration;
and the event-calendar engine reproduces the shared-window-index engine's
results bit for bit (``TestEngineParity``, against a golden fixture recorded
from the PR-2 implementation).
"""

import json
import math
from pathlib import Path

import pytest

from repro.exceptions import FleetError
from repro.fleet import (
    ADMISSION_NAMES,
    FlashCrowd,
    FleetSimulator,
    MigrationStarted,
    Scenario,
    SiteFailure,
    TransferArrival,
    TransferFailed,
    WanDegradation,
    WindowBoundary,
    make_fleet,
)
from repro.utils.clock import ManualClock

SEED = 0
#: ``make_fleet``'s default window duration: ``k * WINDOW`` is the start of
#: window ``k``.
WINDOW = 200.0
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "fleet_parity_golden.json"


def _run(
    events,
    *,
    num_sites=3,
    streams_per_site=2,
    gpus_per_site=4,
    num_windows=7,
    admission="least_loaded",
    seed=SEED,
):
    controller = make_fleet(
        num_sites,
        streams_per_site,
        gpus_per_site=gpus_per_site,
        admission=admission,
        seed=seed,
    )
    return FleetSimulator(controller, Scenario(events=events)).run(num_windows)


class TestFleetEndToEnd:
    @pytest.mark.parametrize("admission", ADMISSION_NAMES)
    def test_every_admission_policy_serves_all_streams(self, admission):
        result = _run([], admission=admission, num_windows=3)
        assert len(result.windows) == 3
        for window in result.windows:
            assert window.num_streams == 6
            assert 0.0 < window.mean_accuracy <= 1.0
            for stats in window.site_stats.values():
                assert 0.0 <= stats.utilization <= 1.0 + 1e-6
        assert 0.0 < result.mean_accuracy <= 1.0
        assert 0.0 < result.worst_stream_accuracy(10.0) <= result.mean_accuracy + 1e-9

    def test_fleet_run_is_deterministic(self):
        events = [SiteFailure(at_seconds=2 * WINDOW, site="site-0", recovery_at=4 * WINDOW)]
        first = _run(events)
        second = _run(events)
        assert first.mean_accuracy == second.mean_accuracy
        assert [
            (e.stream_name, e.source, e.destination) for w in first.windows for e in w.migrations
        ] == [
            (e.stream_name, e.source, e.destination) for w in second.windows for e in w.migrations
        ]


class TestSiteFailure:
    FAIL_WINDOW = 3

    def test_evacuated_streams_recover_within_two_windows(self):
        """The acceptance scenario: dip at migration, recovery by +2 windows."""
        failed = _run([SiteFailure(at_seconds=self.FAIL_WINDOW * WINDOW, site="site-0")])
        counterfactual = _run([])

        evacuated = sorted(
            {
                event.stream_name
                for window in failed.windows
                for event in window.migrations
                if event.reason == "evacuation"
            }
        )
        assert evacuated, "the failure must actually evacuate streams"

        def evacuee_mean(result, window_index):
            outcomes = result.windows[window_index].stream_outcomes
            return sum(
                outcomes[name].effective_average_accuracy for name in evacuated
            ) / len(evacuated)

        deficit = {
            w: evacuee_mean(counterfactual, w) - evacuee_mean(failed, w)
            for w in range(self.FAIL_WINDOW, self.FAIL_WINDOW + 3)
        }
        # Migration window: the WAN transfer cost shows up as a real dip...
        assert deficit[self.FAIL_WINDOW] > 0.02
        # ...and within two windows of the migration the evacuees are back at
        # the no-failure counterfactual's accuracy (small residual tolerance
        # for the survivors' extra contention).
        recovery = (deficit[self.FAIL_WINDOW + 1] + deficit[self.FAIL_WINDOW + 2]) / 2.0
        assert recovery < 0.03
        assert recovery < deficit[self.FAIL_WINDOW] / 2.0

    def test_failed_site_serves_nothing_until_recovery(self):
        result = _run(
            [SiteFailure(at_seconds=2 * WINDOW, site="site-1", recovery_at=4 * WINDOW)]
        )
        for window in result.windows:
            if 2 <= window.window_index < 4:
                assert "site-1" in window.failed_sites
                assert "site-1" not in window.site_stats
            else:
                assert "site-1" not in window.failed_sites
        # Every admitted stream is still served in every window.
        for window in result.windows:
            assert window.num_streams == 6

    def test_evacuation_pays_migration_cost(self):
        result = _run([SiteFailure(at_seconds=2 * WINDOW, site="site-0")])
        migration_window = result.windows[2]
        assert migration_window.migrations
        for event in migration_window.migrations:
            assert event.transfer_seconds > 0
            outcome = migration_window.stream_outcomes[event.stream_name]
            assert outcome.migrated
            assert outcome.transfer_seconds >= event.transfer_seconds
            # The WAN transfer delays the retraining start, so any completed
            # run took at least the transfer time of wall-clock.
            if outcome.outcome.retraining_completed:
                assert (
                    outcome.outcome.retraining_duration
                    >= outcome.transfer_seconds - 1e-9
                )


class TestFlashCrowd:
    def test_burst_streams_are_admitted_and_served(self):
        result = _run(
            [FlashCrowd(at_seconds=2 * WINDOW, num_streams=5, dataset="urban_traffic")]
        )
        assert result.windows[1].num_streams == 6
        assert result.windows[2].admitted_streams
        for window in result.windows[2:]:
            assert window.num_streams == 11
        assert 0.0 < result.mean_accuracy <= 1.0

    def test_pinned_burst_lands_on_named_site_then_rebalances(self):
        result = _run(
            [FlashCrowd(at_seconds=WINDOW, num_streams=8, dataset="waymo", site="site-0")],
            gpus_per_site=1,
        )
        boundary = result.windows[1]
        assert len(boundary.admitted_streams) == 8
        # The pinned site is now overloaded; rebalancing must kick in within
        # the simulated horizon and spread streams out again.
        overload_moves = [
            event
            for window in result.windows
            for event in window.migrations
            if event.reason == "overload"
        ]
        assert overload_moves
        assert all(event.source == "site-0" for event in overload_moves)


class TestWanDegradation:
    def test_degraded_site_pays_more_per_migration(self):
        events_degraded = [
            WanDegradation(at_seconds=WINDOW, site="site-0", uplink_factor=0.1),
            SiteFailure(at_seconds=2 * WINDOW, site="site-0"),
        ]
        events_clean = [SiteFailure(at_seconds=2 * WINDOW, site="site-0")]
        degraded = _run(events_degraded)
        clean = _run(events_clean)
        degraded_cost = degraded.windows[2].migration_seconds
        clean_cost = clean.windows[2].migration_seconds
        assert degraded.windows[2].migrations and clean.windows[2].migrations
        assert degraded_cost > clean_cost

    def test_transfer_longer_than_a_window_carries_over(self):
        """A checkpoint still in flight keeps delaying retraining next window."""
        events = [
            # Uplink cut to 1%: the ~400 Mbit checkpoint takes far longer
            # than one 200 s window to leave the failing site.
            WanDegradation(at_seconds=WINDOW, site="site-0", uplink_factor=0.01),
            SiteFailure(at_seconds=2 * WINDOW, site="site-0"),
        ]
        result = _run(events, num_windows=5)
        evacuated = {
            event.stream_name
            for event in result.windows[2].migrations
            if event.reason == "evacuation"
        }
        assert evacuated
        window_seconds = 200.0
        transfer = max(
            event.transfer_seconds for event in result.windows[2].migrations
        )
        assert transfer > 2 * window_seconds
        # While the checkpoint is in flight the evacuees cannot realise any
        # retraining benefit — not in the migration window, and (the
        # carryover) not in the next one either.
        for name in evacuated:
            in_flight = result.windows[2].stream_outcomes[name]
            assert not in_flight.outcome.retraining_completed
            next_window = result.windows[3].stream_outcomes[name]
            assert not next_window.outcome.retraining_completed

    def test_degradation_expires_at_until_window(self):
        result_controller = make_fleet(2, 1, gpus_per_site=2, seed=SEED)
        simulator = FleetSimulator(
            result_controller,
            Scenario(
                events=[
                    WanDegradation(
                        at_seconds=WINDOW, site="site-0", uplink_factor=0.5, until_at=3 * WINDOW
                    )
                ]
            ),
        )
        base_uplink = result_controller.site("site-0").spec.link.uplink_mbps
        simulator.run_window(0)
        assert result_controller.site("site-0").link.uplink_mbps == pytest.approx(base_uplink)
        simulator.run_window(1)
        assert result_controller.site("site-0").link.uplink_mbps == pytest.approx(
            base_uplink / 2
        )
        simulator.run_window(2)
        assert result_controller.site("site-0").link.uplink_mbps == pytest.approx(
            base_uplink / 2
        )
        simulator.run_window(3)
        assert result_controller.site("site-0").link.uplink_mbps == pytest.approx(base_uplink)

    def test_overlapping_degradations_latest_event_owns_the_link(self):
        """A superseded degradation's expiry must not restore the link early."""
        controller = make_fleet(2, 1, gpus_per_site=2, seed=SEED)
        simulator = FleetSimulator(
            controller,
            Scenario(
                events=[
                    WanDegradation(
                        at_seconds=WINDOW, site="site-0", uplink_factor=0.1, until_at=2 * WINDOW
                    ),
                    WanDegradation(
                        at_seconds=2 * WINDOW,
                        site="site-0",
                        uplink_factor=0.5,
                        until_at=5 * WINDOW,
                    ),
                ]
            ),
        )
        base = controller.site("site-0").spec.link.uplink_mbps
        for window_index, expected in [
            (0, base),
            (1, base * 0.1),
            (2, base * 0.5),  # replaced, not restored, at the first expiry
            (3, base * 0.5),
            (4, base * 0.5),
            (5, base),  # the owning (latest) event's expiry fires
        ]:
            simulator.run_window(window_index)
            assert controller.site("site-0").link.uplink_mbps == pytest.approx(expected)

    def test_refailure_extends_the_outage(self):
        """A second failure while down must push recovery out, not pull it in."""
        result = _run(
            [
                SiteFailure(at_seconds=WINDOW, site="site-0", recovery_at=3 * WINDOW),
                SiteFailure(at_seconds=2 * WINDOW, site="site-0", recovery_at=5 * WINDOW),
            ],
            num_windows=6,
        )
        for window in result.windows:
            expected_down = 1 <= window.window_index < 5
            assert ("site-0" in window.failed_sites) == expected_down

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(FleetError):
            SiteFailure(at_seconds=3 * WINDOW, site="s", recovery_at=3 * WINDOW)
        with pytest.raises(FleetError):
            WanDegradation(at_seconds=WINDOW, site="s", uplink_factor=0.0)
        with pytest.raises(FleetError):
            FlashCrowd(at_seconds=0.0, num_streams=0)


class TestEngineParity:
    """The event-calendar engine must reproduce the PR-2 shared-window-index
    engine bit for bit on homogeneous-window fleets under a ManualClock.

    The golden fixture was recorded from the PR-2 implementation on a
    scenario exercising every mechanism at once: a WAN degradation slow
    enough that evacuation checkpoints stay in flight for multiple windows,
    a flash crowd, a site failure with recovery, and overload rebalancing.
    """

    def golden_scenario(self):
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

    def test_run_reproduces_pr2_fleet_result_bit_identically(self):
        """Sites settle stream by stream, yet sum each site's mean in plan
        order, so every value matches."""
        golden = json.loads(GOLDEN_PATH.read_text())
        clock = ManualClock()
        controller = make_fleet(
            3, 2, gpus_per_site=2, admission="least_loaded", seed=0, clock=clock
        )
        result = FleetSimulator(controller, self.golden_scenario(), clock=clock).run(7)

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

    def test_stepwise_run_window_matches_run(self):
        def build():
            clock = ManualClock()
            controller = make_fleet(3, 2, gpus_per_site=2, seed=0, clock=clock)
            return FleetSimulator(controller, self.golden_scenario(), clock=clock)

        batch = build().run(5)
        stepper = build()
        stepwise = [stepper.run_window(w) for w in range(5)]
        for window_a, window_b in zip(batch.windows, stepwise):
            assert window_a.mean_accuracy == window_b.mean_accuracy
            assert window_a.site_stats == window_b.site_stats

    def test_windows_must_advance_in_order(self):
        simulator = FleetSimulator(make_fleet(2, 1, gpus_per_site=2, seed=SEED))
        simulator.run_window(0)
        with pytest.raises(FleetError):
            simulator.run_window(0)
        with pytest.raises(FleetError):
            simulator.run_window(5)

    def test_non_dyadic_window_durations_never_drift(self):
        """Boundary times are multiplied from the origin, not accumulated.

        Regression test: with an inexact duration like 0.1 s, accumulating
        ``time + duration`` lands an ulp below ``(k+1) * duration`` after a
        few windows, popping a boundary one window early and silently
        dropping a cycle.
        """
        controller = make_fleet(2, 2, gpus_per_site=2, window_duration=0.1, seed=SEED)
        result = FleetSimulator(controller, clock=ManualClock()).run(12)
        assert [w.window_index for w in result.windows] == list(range(12))
        for window in result.windows:
            assert len(window.site_results) == 2


class TestHeterogeneousWindows:
    """Per-site window durations on one shared event calendar."""

    def _simulator(self, **kwargs):
        clock = ManualClock()
        controller = make_fleet(
            2, 2, gpus_per_site=2, window_duration=[150.0, 200.0], seed=SEED,
            clock=clock, **kwargs
        )
        return FleetSimulator(controller, clock=clock)

    def test_sites_advance_at_their_own_cadence(self):
        result = self._simulator().run_until(600.0)
        # Cycle starts: 0 (both), 150, 200, 300, 400, 450.
        assert [w.start_seconds for w in result.windows] == [0.0, 150.0, 200.0, 300.0, 400.0, 450.0]
        ran = {name: 0 for name in ("site-0", "site-1")}
        for window in result.windows:
            for name, outcome in window.site_results.items():
                ran[name] += 1
                expected = 150.0 if name == "site-0" else 200.0
                for stream_outcome in outcome.outcomes.values():
                    assert stream_outcome.decision_window_seconds == expected
        assert ran == {"site-0": 4, "site-1": 3}
        assert 0.0 < result.mean_accuracy <= 1.0

    def test_streams_follow_their_site_cadence(self):
        """Admission, flash crowds, and migrations all re-size the stream's
        windows to the owning site's duration on heterogeneous fleets."""
        controller = make_fleet(
            2, 3, gpus_per_site=2, window_duration=[150.0, 200.0], seed=SEED
        )
        for site in controller.sites:
            for stream in site.streams:
                assert stream.window_duration == site.spec.window_duration
        # Policy-placed flash crowd (no pinned site).
        spawned = controller.spawn_streams("waymo", 4, 0)
        for stream in spawned:
            site = controller.site_of(stream.name)
            assert stream.window_duration == site.spec.window_duration
        # Evacuation moves streams across cadences.
        evacuated = controller.fail_site("site-0", 1)
        assert evacuated
        for event in evacuated:
            site = controller.site_of(event.stream_name)
            stream = site.server.stream(event.stream_name)
            assert stream.window_duration == site.spec.window_duration

    def test_run_for_continues_the_timeline(self):
        simulator = self._simulator()
        first = simulator.run_until(300.0)
        second = simulator.run_for(300.0)
        assert [w.start_seconds for w in first.windows] == [0.0, 150.0, 200.0]
        assert [w.start_seconds for w in second.windows] == [300.0, 400.0, 450.0]
        assert [w.window_index for w in second.windows] == [3, 4, 5]

    def test_run_for_anchors_to_the_simulated_horizon_not_the_last_event(self):
        """Regression: run_until(399) pops nothing after t=300, but a
        following run_for(10) must still reach t=409 and fire the t=400
        boundary — anchoring to the last event time skipped due windows."""
        simulator = self._simulator()
        simulator.run_until(399.0)
        follow_up = simulator.run_for(10.0)
        assert [w.start_seconds for w in follow_up.windows] == [400.0]

    def test_empty_cycles_do_not_drag_the_fleet_mean_to_zero(self):
        """Regression: cycles covering only a failed site served nothing and
        used to average in as 0.0 accuracy."""
        clock = ManualClock()
        controller = make_fleet(
            2, 2, gpus_per_site=2, window_duration=[150.0, 200.0], seed=SEED,
            clock=clock,
        )
        scenario = Scenario(events=[SiteFailure(at_seconds=100.0, site="site-0")])
        result = FleetSimulator(controller, scenario, clock=clock).run_until(900.0)
        empty = [w for w in result.windows if not w.stream_outcomes]
        served = [w for w in result.windows if w.stream_outcomes]
        assert empty, "test premise: the failed 150s site leaves empty cycles"
        floor = min(w.mean_accuracy for w in served)
        assert result.mean_accuracy >= floor > 0.0

    def test_run_until_continues_through_mid_cycle_events(self):
        """A t_end that cuts a cycle short must not strand its late events.

        Regression test: control ticks (or time-indexed triggers) between
        the cut point and the next boundary used to crash the continuation
        with "no simulation cycle is open"; each cycle is returned exactly
        once.
        """
        clock = ManualClock()
        controller = make_fleet(2, 2, gpus_per_site=2, seed=SEED, clock=clock)
        simulator = FleetSimulator(controller, clock=clock, control_interval=75.0)
        first = simulator.run_until(100.0)   # tick at t=75 fired, t=150 pending
        second = simulator.run_until(400.0)  # must fire the t=150 tick mid-cycle
        assert [w.window_index for w in first.windows] == [0]
        assert [w.window_index for w in second.windows] == [1]
        scenario = Scenario(events=[FlashCrowd(at_seconds=150.0, num_streams=2)])
        controller = make_fleet(2, 2, gpus_per_site=2, seed=SEED)
        simulator = FleetSimulator(controller, scenario)
        cut = simulator.run_until(120.0)
        simulator.run_until(500.0)
        # The trigger fired into cycle 0, which was already returned — the
        # same result object accumulates it.
        assert cut.windows[0].admitted_streams == [
            "cityscapes-4", "cityscapes-5"
        ]

    def test_heterogeneous_run_is_deterministic(self):
        first = self._simulator().run_until(600.0)
        second = self._simulator().run_until(600.0)
        assert first.mean_accuracy == second.mean_accuracy
        for window_a, window_b in zip(first.windows, second.windows):
            assert window_a.site_stats == window_b.site_stats

    def test_shared_window_compat_api_is_rejected(self):
        simulator = self._simulator()
        with pytest.raises(FleetError):
            simulator.run(3)
        with pytest.raises(FleetError):
            simulator.run_window(0)


class TestTransferArrivalSemantics:
    """WAN transfers are absolute-time events; windows pay remaining time."""

    WINDOW = 200.0

    def test_mid_window_migration_charges_only_remaining_transfer(self):
        """A transfer in flight for 30 s before the boundary costs 30 s less."""

        def run(fail_at):
            controller = make_fleet(2, 2, gpus_per_site=2, seed=SEED)
            scenario = Scenario(events=[SiteFailure(at_seconds=fail_at, site="site-0")])
            return FleetSimulator(controller, scenario, clock=ManualClock()).run(4)

        mid = run(370.0)       # fails 30 s before window 2 starts
        boundary = run(400.0)  # fails exactly at the window-2 boundary

        evacuated = sorted(
            e.stream_name for w in mid.windows for e in w.migrations
        )
        assert evacuated == sorted(
            e.stream_name for w in boundary.windows for e in w.migrations
        )
        assert evacuated
        transfer = mid.windows[1].migrations[0].transfer_seconds
        assert transfer > 30.0
        compared = 0
        for name in evacuated:
            out_mid = mid.windows[2].stream_outcomes[name].outcome
            out_boundary = boundary.windows[2].stream_outcomes[name].outcome
            if out_mid.retraining_completed and out_boundary.retraining_completed:
                # Same schedule, 30 s less transfer left when the window starts.
                assert out_boundary.retraining_duration - out_mid.retraining_duration == (
                    pytest.approx(30.0)
                )
                compared += 1
        assert compared > 0

    def test_transfer_arriving_before_the_boundary_costs_nothing(self):
        """An arrival mid-window delays nothing in the following window."""
        controller = make_fleet(2, 2, gpus_per_site=2, seed=SEED)
        scenario = Scenario(events=[SiteFailure(at_seconds=250.0, site="site-0")])
        simulator = FleetSimulator(controller, scenario, clock=ManualClock())
        result = simulator.run(3)
        migrations = [e for w in result.windows for e in w.migrations]
        assert migrations
        transfer = migrations[0].transfer_seconds
        assert 250.0 + transfer < 400.0, "test premise: arrival lands mid-window"
        arrivals = [e for e in simulator.event_trace if isinstance(e, TransferArrival)]
        assert arrivals and all(250.0 < e.time < 400.0 for e in arrivals)
        # Window 2 pays no delay: every evacuee that retrains does so at the
        # pure allocation-driven duration (no external completion clamp).
        for event in migrations:
            outcome = result.windows[2].stream_outcomes[event.stream_name].outcome
            decision = outcome.decision
            if outcome.retraining_completed and decision.retraining_gpu > 0:
                assert outcome.retraining_duration < transfer + 1e-9 or (
                    outcome.retraining_duration > 0
                )

    def test_same_boundary_multi_hop_pays_every_hop_and_carries_over(self):
        """Old carryover-dict semantics: a stream bounced twice at one
        boundary pays the summed transfer, and a checkpoint taking n.x
        windows to arrive delays retraining in all n+1 of them."""
        controller = make_fleet(3, 2, gpus_per_site=2, seed=SEED)
        scenario = Scenario(
            events=[
                WanDegradation(at_seconds=WINDOW, site="site-0", uplink_factor=0.06),
                SiteFailure(at_seconds=2 * WINDOW, site="site-0"),
                SiteFailure(at_seconds=2 * WINDOW, site="site-1"),
            ]
        )
        result = FleetSimulator(controller, scenario, clock=ManualClock()).run(7)

        bounced = {
            name: outcome
            for name, outcome in result.windows[2].stream_outcomes.items()
            if len(outcome.migrations) >= 2
        }
        assert bounced, "double failure must double-bounce at least one stream"
        for name, outcome in bounced.items():
            hops = outcome.migrations
            assert [hop.reason for hop in hops] == ["evacuation"] * len(hops)
            assert outcome.transfer_seconds == pytest.approx(
                sum(hop.transfer_seconds for hop in hops)
            )
            total = outcome.transfer_seconds
            # The slow uplink makes the first hop span multiple windows.
            full_windows = math.floor(total / self.WINDOW)
            assert full_windows >= 2, "test premise: transfer spans >2 windows"
            for offset in range(full_windows):
                blocked = result.windows[2 + offset].stream_outcomes[name].outcome
                assert not blocked.retraining_completed
            landing = result.windows[2 + full_windows].stream_outcomes[name].outcome
            if landing.retraining_completed:
                remaining = total - full_windows * self.WINDOW
                assert landing.retraining_duration >= remaining - 1e-9


    def test_chained_hops_charge_the_queued_transfer_too(self):
        """A hop queued behind an in-flight transfer departs when that
        transfer lands — the wall time it spent queued is not credited.

        Regression test: the hop charge used to be anchored to the
        migration's registration time, waiving ~one window of delay for a
        mid-window second hop.
        """
        from repro.cluster.network import NetworkLink

        slow = NetworkLink(name="slow", uplink_mbps=2.0, downlink_mbps=100.0)
        controller = make_fleet(3, 2, gpus_per_site=2, links=[slow] * 3, seed=SEED)
        scenario = Scenario(
            events=[
                SiteFailure(at_seconds=410.0, site="site-0"),
                SiteFailure(at_seconds=450.0, site="site-1"),
            ]
        )
        result = FleetSimulator(controller, scenario, clock=ManualClock()).run_until(1600.0)
        bounced = {
            name: outcome
            for window in result.windows
            for name, outcome in window.stream_outcomes.items()
            if len(outcome.migrations) == 2
        }
        assert bounced, "the second failure must re-evacuate a stream in flight"
        for name, outcome in bounced.items():
            arrival = 410.0 + sum(hop.transfer_seconds for hop in outcome.migrations)
            for window in result.windows:
                observed = window.stream_outcomes.get(name)
                if observed is None or not (410.0 <= window.start_seconds < arrival):
                    continue
                # No window that starts before the chained checkpoint lands
                # may realise a retraining faster than the remaining transfer.
                if observed.outcome.retraining_completed:
                    assert observed.outcome.retraining_duration >= (
                        arrival - window.start_seconds - 1e-6
                    )


class TestAsyncControlPlane:
    """control_interval decouples rebalancing from window boundaries."""

    def test_rebalance_fires_mid_window(self):
        controller = make_fleet(2, 2, gpus_per_site=1, seed=SEED)
        scenario = Scenario(
            events=[FlashCrowd(at_seconds=10.0, num_streams=8, site="site-0")]
        )
        simulator = FleetSimulator(
            controller, scenario, clock=ManualClock(), control_interval=50.0
        )
        result = simulator.run(3)
        moves = [
            event
            for marker in simulator.event_trace
            if isinstance(marker, MigrationStarted)
            for event in [marker.migration]
            if event.reason == "overload"
        ]
        assert moves, "the pinned burst must trigger overload rebalancing"
        mid_window = [
            marker
            for marker in simulator.event_trace
            if isinstance(marker, MigrationStarted)
            and marker.time % 200.0 not in (0.0,)
        ]
        assert mid_window, "with a 50 s control cadence migrations start mid-window"
        assert result.migration_count == len(
            [m for m in simulator.event_trace if isinstance(m, MigrationStarted)]
        )

    def test_default_cadence_matches_window_boundaries(self):
        controller = make_fleet(2, 2, gpus_per_site=1, seed=SEED)
        scenario = Scenario(events=[FlashCrowd(at_seconds=WINDOW, num_streams=8, site="site-0")])
        simulator = FleetSimulator(controller, scenario, clock=ManualClock())
        simulator.run(3)
        boundary_times = {
            e.time for e in simulator.event_trace if isinstance(e, WindowBoundary)
        }
        for marker in simulator.event_trace:
            if isinstance(marker, MigrationStarted):
                assert marker.time in boundary_times

    def test_invalid_control_interval_rejected(self):
        controller = make_fleet(2, 1, gpus_per_site=2, seed=SEED)
        with pytest.raises(FleetError):
            FleetSimulator(controller, control_interval=0.0)


class TestScenarioValidationUpFront:
    def test_unknown_site_rejected_at_construction(self):
        controller = make_fleet(2, 1, gpus_per_site=2, seed=SEED)
        for event in (
            SiteFailure(at_seconds=WINDOW, site="site-9"),
            WanDegradation(at_seconds=WINDOW, site="nope", uplink_factor=0.5),
            FlashCrowd(at_seconds=WINDOW, num_streams=2, site="site-9"),
        ):
            with pytest.raises(FleetError, match="unknown site"):
                FleetSimulator(controller, Scenario(events=[event]))

    def test_trigger_indexing_is_exclusive(self):
        """``at_seconds`` is the only trigger, and it is required."""
        with pytest.raises(FleetError, match="at_seconds"):
            SiteFailure(site="s")
        with pytest.raises(FleetError):
            FlashCrowd(at_seconds=-1.0, num_streams=1)
        with pytest.raises(TypeError):
            SiteFailure(window=1, site="s")

    def test_expiry_must_match_trigger_indexing_and_follow_it(self):
        with pytest.raises(TypeError):
            SiteFailure(at_seconds=100.0, site="s", recovery_window=3)
        with pytest.raises(FleetError):
            SiteFailure(at_seconds=100.0, site="s", recovery_at=100.0)
        with pytest.raises(FleetError):
            WanDegradation(at_seconds=100.0, site="s", uplink_factor=0.5, until_at=50.0)
        # Valid time-indexed expiries construct fine.
        SiteFailure(at_seconds=100.0, site="s", recovery_at=300.0)
        WanDegradation(at_seconds=100.0, site="s", uplink_factor=0.5, until_at=300.0)

    def test_time_indexed_events_fire_mid_window(self):
        controller = make_fleet(2, 2, gpus_per_site=2, seed=SEED)
        scenario = Scenario(
            events=[FlashCrowd(at_seconds=250.0, num_streams=3, dataset="waymo")]
        )
        result = FleetSimulator(controller, scenario, clock=ManualClock()).run(3)
        # Admitted mid-window 1; first served in window 2.
        assert result.windows[1].admitted_streams
        assert result.windows[1].num_streams == 4
        assert result.windows[2].num_streams == 7


class TestProfileSharing:
    """Cross-site profile sharing: warm-started micro-profiling over the
    event calendar, strictly opt-in via ``make_fleet(profile_sharing=True)``."""

    def _flash_crowd_run(self, *, profile_sharing, num_windows=4):
        controller = make_fleet(
            2,
            3,
            gpus_per_site=2,
            seed=SEED,
            profile_sharing=profile_sharing,
        )
        scenario = Scenario(
            events=[FlashCrowd(at_seconds=2 * WINDOW, num_streams=2, dataset="cityscapes")]
        )
        simulator = FleetSimulator(controller, scenario)
        return simulator, simulator.run(num_windows)

    def test_flash_crowd_stream_warm_starts_below_cold_start_cost(self):
        simulator, result = self._flash_crowd_run(profile_sharing=True)
        source = simulator.controller.profile_sharing.source
        # Cold start: an initial stream's first window profiled the full
        # grid.  Warm start: a flash-crowd stream of the same (dataset,
        # drift-regime) arrives after the window-0/1 pushes have crossed the
        # WAN, so its first window profiles the pruned candidate set.
        cold = source.local_store.get("cityscapes-0", 0).profiling_gpu_seconds
        assert cold > 0
        admitted = result.windows[2].admitted_streams
        assert admitted
        for name in admitted:
            warm = source.local_store.get(name, 2).profiling_gpu_seconds
            assert 0 < warm < cold
        assert result.summary()["profiling_gpu_seconds_saved"] > 0
        assert result.summary()["profiling_gpu_seconds"] > 0
        # Per-window attribution: the savings land in the flash-crowd window.
        assert result.windows[2].profiling_gpu_seconds_saved > 0
        assert result.windows[0].profiling_gpu_seconds_saved == 0.0

    def test_pushes_ride_the_calendar_and_pay_the_uplink(self):
        from repro.fleet import ProfilePush

        simulator, _ = self._flash_crowd_run(profile_sharing=True)
        pushes = [
            event
            for event in simulator.event_trace
            if isinstance(event, ProfilePush)
        ]
        assert pushes
        boundary_times = {
            event.time
            for event in simulator.event_trace
            if isinstance(event, WindowBoundary)
        }
        # Arrival strictly after the boundary the curves were profiled at:
        # the push pays real WAN uplink time.
        assert all(push.time not in boundary_times for push in pushes)
        store = simulator.controller.profile_sharing.store
        assert store.num_pushes == sum(len(push.profiles) for push in pushes)

    def test_degraded_uplink_delays_the_push(self):
        def arrival_of_first_push(events):
            from repro.fleet import ProfilePush

            controller = make_fleet(
                2, 3, gpus_per_site=2, seed=SEED, profile_sharing=True
            )
            simulator = FleetSimulator(controller, Scenario(events=events))
            simulator.run(2)
            return min(
                event.time
                for event in simulator.event_trace
                if isinstance(event, ProfilePush) and event.site == "site-0"
            )

        healthy = arrival_of_first_push([])
        degraded = arrival_of_first_push(
            [WanDegradation(at_seconds=0.0, site="site-0", uplink_factor=0.05)]
        )
        assert degraded > healthy

    def test_sharing_is_off_by_default_and_schedules_no_pushes(self):
        from repro.fleet import ProfilePush

        simulator, result = self._flash_crowd_run(profile_sharing=False)
        assert simulator.controller.profile_sharing is None
        assert not any(
            isinstance(event, ProfilePush) for event in simulator.event_trace
        )
        summary = result.summary()
        assert summary["profiling_gpu_seconds"] == 0.0
        assert summary["profiling_gpu_seconds_saved"] == 0.0

    def test_sharing_off_accuracy_metrics_are_bit_identical_to_seedless_run(self):
        """profile_sharing=False must not perturb the existing engine at all
        (the golden-parity and fleet-baseline gates depend on it)."""
        _, default_run = self._flash_crowd_run(profile_sharing=False)
        controller = make_fleet(2, 3, gpus_per_site=2, seed=SEED)
        explicit_off = FleetSimulator(
            controller,
            Scenario(
                events=[FlashCrowd(at_seconds=2 * WINDOW, num_streams=2, dataset="cityscapes")]
            ),
        ).run(4)
        assert default_run.mean_accuracy == explicit_off.mean_accuracy
        assert default_run.worst_stream_accuracy(10.0) == explicit_off.worst_stream_accuracy(10.0)
        for ours, theirs in zip(default_run.windows, explicit_off.windows):
            assert ours.mean_accuracy == theirs.mean_accuracy

    def test_shared_admission_uses_post_retraining_curves_for_flash_crowds(self):
        controller = make_fleet(
            2,
            3,
            gpus_per_site=2,
            admission="accuracy_greedy",
            seed=SEED,
            profile_sharing=True,
        )
        policy = controller.admission_policy
        assert policy.name == "accuracy-greedy"
        scenario = Scenario(
            events=[FlashCrowd(at_seconds=2 * WINDOW, num_streams=2, dataset="cityscapes")]
        )
        result = FleetSimulator(controller, scenario).run(4)
        # The flash crowd was placed and served; scoring went through the
        # shared store (it has curves for the key by window 2).
        assert result.windows[2].admitted_streams
        assert controller.profile_sharing.store.num_pushes > 0


class TestPreemptiveSiteFailure:
    """The acceptance scenario for event-driven site internals: a site fails
    *while retrainings are in flight*.  The evacuation cancels those
    retrainings mid-window — the evacuees keep their stale models and the
    remaining GPU-seconds show up as reclaimed.
    """

    #: Ten seconds into window 1 of 200 s windows: retrainings planned at
    #: the t=200 boundary are still in flight.
    FAIL_AT = 210.0

    def _scenario(self):
        return Scenario(
            events=[SiteFailure(at_seconds=self.FAIL_AT, site="site-0", recovery_at=800.0)]
        )

    def _run(self):
        controller = make_fleet(3, 4, gpus_per_site=2, seed=SEED)
        simulator = FleetSimulator(controller, self._scenario())
        return simulator, simulator.run(5)

    def test_failure_during_retraining_cancels_and_reclaims(self):
        simulator, result = self._run()
        summary = result.summary()
        assert summary["retrainings_cancelled"] >= 1
        assert summary["reclaimed_gpu_seconds"] > 0.0
        window = result.windows[1]
        stats = window.site_stats["site-0"]
        assert stats.retrainings_cancelled >= 1
        assert stats.reclaimed_gpu_seconds > 0.0
        # Every cancelled retraining's stream settled without the benefit,
        # still attributed to the failed site's window.
        cancelled = [
            outcome
            for outcome in window.stream_outcomes.values()
            if outcome.site == "site-0" and not outcome.outcome.retraining_completed
        ]
        assert len(cancelled) >= stats.retrainings_cancelled
        # The failure evacuates the site's streams as well as cancelling.
        assert any(
            event.reason == "evacuation"
            for window in result.windows
            for event in window.migrations
        )

    def test_preemption_events_ride_the_calendar(self):
        from repro.fleet import InferenceReconfigured, RetrainingComplete

        simulator, _ = self._run()
        trace = simulator.event_trace
        assert any(isinstance(event, RetrainingComplete) for event in trace)
        reasons = {
            event.reason
            for event in trace
            if isinstance(event, InferenceReconfigured)
        }
        assert "retraining_cancelled" in reasons
        assert "retraining_complete" in reasons


class TestFailureOwnerReentrancy:
    """Satellite: overlapping same-site failures — the later event owns
    recovery, and the superseded event's expiry is a strict no-op."""

    def _simulator(self):
        clock = ManualClock()
        controller = make_fleet(3, 2, gpus_per_site=4, seed=SEED, clock=clock)
        scenario = Scenario(
            events=[
                SiteFailure(site="site-0", at_seconds=50.0, recovery_at=250.0),
                SiteFailure(site="site-0", at_seconds=100.0, recovery_at=400.0),
            ]
        )
        return controller, FleetSimulator(controller, scenario, clock=clock)

    def test_later_failure_owns_recovery_and_stale_expiry_is_a_no_op(self):
        controller, simulator = self._simulator()
        site = controller.site("site-0")
        # First failure fires mid-window 0; site goes dark and evacuates.
        simulator.run_until(120.0)
        assert not site.healthy
        assert site.num_streams == 0
        # t=300 is past the FIRST failure's recovery (250) but inside the
        # second's outage: the stale-owner expiry must not have revived it.
        simulator.run_until(300.0)
        assert not site.healthy
        # The second (owning) event's recovery at 400 brings it back.
        simulator.run_until(450.0)
        assert site.healthy

    def test_second_failure_does_not_double_evacuate(self):
        controller, simulator = self._simulator()
        result = simulator.run_until(600.0)
        evacuations = [
            event
            for window in result.windows
            for event in window.migrations
            if event.reason == "evacuation"
        ]
        # Only the first failure found streams to evacuate; the second hit
        # an already-dark site and must not have re-emitted migrations.
        assert evacuations
        assert all(event.source == "site-0" for event in evacuations)
        seen = [event.stream_name for event in evacuations]
        assert len(seen) == len(set(seen))


class TestFailureDuringInflightTransfer:
    """Satellite: a site fails while a checkpoint transfer *into* it is in
    flight — the stream chains onward to a survivor; the stale arrival at
    the dead site is a no-op, not a checkpoint applied to a corpse."""

    def _run(self):
        clock = ManualClock()
        controller = make_fleet(3, 2, gpus_per_site=4, seed=SEED, clock=clock)
        # site-0 dies at t=210: its streams evacuate (least-loaded spreads
        # them over site-1/site-2) with ~50 s transfers in flight.  site-1
        # then dies at t=230, before those transfers land.
        scenario = Scenario(
            events=[
                SiteFailure(site="site-0", at_seconds=210.0),
                SiteFailure(site="site-1", at_seconds=230.0),
            ]
        )
        simulator = FleetSimulator(controller, scenario, clock=clock)
        result = simulator.run(5)
        return controller, simulator, result

    def test_stream_chains_to_a_survivor(self):
        controller, simulator, result = self._run()
        # Some stream was first evacuated into site-1, then re-evacuated out
        # of it while its checkpoint was still crossing the WAN.
        hops = {}
        for window in result.windows:
            for event in window.migrations:
                hops.setdefault(event.stream_name, []).append(
                    (event.source, event.destination)
                )
        rerouted = [
            name
            for name, path in hops.items()
            if any(d == "site-1" for _, d in path)
            and any(s == "site-1" for s, _ in path)
        ]
        assert rerouted, "no stream was re-evacuated out of the failing site"
        # Every stream ends on the sole survivor, none on the dead sites.
        assert controller.site("site-2").num_streams == 6
        assert controller.site("site-0").num_streams == 0
        assert controller.site("site-1").num_streams == 0

    def test_stale_arrival_at_the_dead_site_is_not_applied(self):
        controller, simulator, result = self._run()
        # Both hops' arrivals fire as events; the first (into the now-dead
        # site-1) must be stale: after it fires, the stream is still marked
        # in flight until the *chained* hop's arrival.
        arrivals = [
            event
            for event in simulator.event_trace
            if isinstance(event, TransferArrival)
        ]
        by_stream = {}
        for event in arrivals:
            by_stream.setdefault(event.stream, []).append(event.time)
        chained = {
            name: times for name, times in by_stream.items() if len(times) > 1
        }
        assert chained, "expected a stream with a superseded first arrival"
        for times in chained.values():
            # The chained arrival lands strictly after the stale one, and
            # after the second failure that rerouted the stream.
            assert times[-1] > times[0]
            assert times[-1] > 230.0
        # The dead site holds no streams and serves no windows afterwards.
        later = [w for w in result.windows if w.start_seconds >= 400.0]
        assert later
        for window in later:
            assert "site-1" not in window.site_results

    def test_replays_bit_identically(self):
        _, _, first = self._run()
        _, _, second = self._run()
        assert first.summary() == second.summary()


class TestWanFaults:
    """Flaky-WAN integration: retries, cold restarts and loss accounting
    riding the calendar (``make_fleet(wan_faults=...)``)."""

    def _run(self, *, loss_rate, max_retries=2, seed=SEED, num_windows=6,
             push_loss_rate=None, profile_sharing=False, link_loss=0.0):
        from repro.cluster.network import CELLULAR_4G_X2, NetworkLink
        from repro.fleet import WanFaultModel

        clock = ManualClock()
        links = None
        if link_loss:
            links = [
                NetworkLink(
                    name="lossy",
                    uplink_mbps=CELLULAR_4G_X2.uplink_mbps,
                    downlink_mbps=CELLULAR_4G_X2.downlink_mbps,
                    rtt_seconds=CELLULAR_4G_X2.rtt_seconds,
                    loss_rate=link_loss,
                )
            ]
        controller = make_fleet(
            3,
            2,
            gpus_per_site=4,
            seed=seed,
            clock=clock,
            links=links,
            profile_sharing=profile_sharing,
            wan_faults=WanFaultModel(
                loss_rate=loss_rate,
                max_retries=max_retries,
                backoff_seconds=4.0,
                push_loss_rate=push_loss_rate,
                seed=seed,
            ),
        )
        scenario = Scenario(
            events=[SiteFailure(site="site-0", at_seconds=210.0, recovery_at=450.0)]
        )
        simulator = FleetSimulator(controller, scenario, clock=clock)
        return simulator, simulator.run(num_windows)

    def test_lossy_checkpoints_retry_and_are_accounted(self):
        simulator, result = self._run(loss_rate=0.6)
        summary = result.summary()
        assert summary["transfers_failed"] > 0
        assert summary["transfer_retries"] <= summary["transfers_failed"]
        assert summary["retry_seconds"] > 0.0
        failures = [
            event
            for event in simulator.event_trace
            if isinstance(event, TransferFailed) and event.kind == "checkpoint"
        ]
        assert failures
        # Attempt numbers within a retry chain are 1-based and increasing.
        assert all(event.attempt >= 1 for event in failures)

    def test_exhausted_retries_give_up_and_restart_cold(self):
        # Loss so high every transfer exhausts its (zero-retry) budget.
        simulator, result = self._run(loss_rate=0.95, max_retries=0)
        give_ups = [
            event
            for event in simulator.event_trace
            if isinstance(event, TransferFailed)
            and event.kind == "checkpoint"
            and event.final
        ]
        assert give_ups
        # A given-up transfer schedules no arrival at its would-be landing.
        arrival_times = {
            (event.stream, event.time)
            for event in simulator.event_trace
            if isinstance(event, TransferArrival)
        }
        for event in give_ups:
            assert (event.stream, event.time) not in arrival_times
        # The cold restart costs accuracy, never a stream: every window
        # still serves all six.
        assert all(len(w.stream_outcomes) == 6 for w in result.windows)

    def test_lost_profile_pushes_fall_back_silently(self):
        simulator, _ = self._run(
            loss_rate=0.0, push_loss_rate=0.97, profile_sharing=True
        )
        losses = [
            event
            for event in simulator.event_trace
            if isinstance(event, TransferFailed) and event.kind == "profile_push"
        ]
        assert losses
        assert all(event.final and event.stream == "" for event in losses)

    def test_link_loss_composes_with_the_model(self):
        # A lossless model over a very lossy link still fails transfers.
        simulator, result = self._run(loss_rate=0.0, link_loss=0.8)
        assert result.summary()["transfers_failed"] > 0

    def test_faulty_runs_replay_bit_identically(self):
        _, first = self._run(loss_rate=0.5)
        _, second = self._run(loss_rate=0.5)
        assert first.summary() == second.summary()
