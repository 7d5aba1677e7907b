"""Unit tests for event-driven site internals with mid-window preemption.

Two layers under test:

* the plan/settle split of :class:`repro.simulation.simulator.Simulator` —
  ``plan_window`` + ``settle_window`` must reproduce ``run_window`` bit for
  bit, per-stream settles must be exactly-once, and the cancelled /
  completion-override settle modes must realise the right outcomes; and
* the fleet's event loop — ``RetrainingComplete`` /
  ``InferenceReconfigured`` scheduling, the stale-event guard at the exact
  completion instant (event already popped vs. still pending), double-cancel
  idempotence, and the chained evacuation in which the second hop cancels a
  retraining the first hop rescheduled.
"""

import pytest

from repro.exceptions import SimulationError
from repro.fleet import (
    FleetSimulator,
    InferenceReconfigured,
    RetrainingComplete,
    Scenario,
    SiteFailure,
    make_fleet,
)
from repro.simulation.experiments import make_setup
from repro.simulation.simulator import Simulator

SEED = 0


def _simulator(seed=SEED, num_streams=4, num_gpus=2):
    setup = make_setup("ekya", num_streams=num_streams, num_gpus=num_gpus, seed=seed)
    return Simulator(setup.server, setup.dynamics, setup.policy)


class TestPlanSettleSplit:
    def test_plan_then_settle_matches_run_window_bit_for_bit(self):
        atomic = _simulator().run_window(0)
        split_sim = _simulator()
        plan = split_sim.plan_window(0)
        assert plan.pending_streams() == list(plan.streams)
        split = split_sim.settle_window(plan)
        assert list(split.outcomes) == list(atomic.outcomes)
        for name, outcome in atomic.outcomes.items():
            other = split.outcomes[name]
            assert other.realized_average_accuracy == outcome.realized_average_accuracy
            assert other.retraining_completed == outcome.retraining_completed
            assert other.retraining_duration == outcome.retraining_duration
        assert split.allocation_loss == atomic.allocation_loss

    def test_completion_offsets_are_the_planned_retraining_durations(self):
        plan = _simulator().plan_window(0)
        offsets = plan.completion_offsets()
        assert offsets, "the thief schedules at least one retraining"
        for name, offset in offsets.items():
            planned = plan.streams[name]
            assert planned.estimate.retraining_completes
            assert offset == planned.estimate.retraining_duration
            assert 0.0 < offset < plan.window_seconds

    def test_settle_stream_is_exactly_once(self):
        simulator = _simulator()
        plan = simulator.plan_window(0)
        name = next(iter(plan.streams))
        simulator.settle_stream(plan, name)
        assert plan.settled(name)
        with pytest.raises(SimulationError):
            simulator.settle_stream(plan, name)

    def test_settle_unknown_stream_raises(self):
        simulator = _simulator()
        plan = simulator.plan_window(0)
        with pytest.raises(SimulationError):
            simulator.settle_stream(plan, "no-such-stream")

    def test_cancelled_settle_loses_the_retraining_benefit(self):
        """A cancelled stream keeps its stale model for the whole window."""
        simulator = _simulator()
        plan = simulator.plan_window(0)
        name = next(iter(plan.completion_offsets()))
        planned = plan.streams[name]
        outcome = simulator.settle_stream(plan, name, cancelled=True)
        assert not outcome.retraining_completed
        assert outcome.retraining_duration == 0.0
        assert outcome.realized_average_accuracy == outcome.accuracy_during_retraining
        assert (
            outcome.realized_average_accuracy
            == planned.estimate.accuracy_during_retraining
        )
        # The planned estimate would have realised the retraining benefit.
        assert planned.estimate.retraining_completes
        assert outcome.realized_average_accuracy < planned.estimate.average_accuracy

    def test_cancelled_settle_does_not_advance_the_dynamics(self):
        """Next window's start accuracy must reflect the *stale* model."""
        cancelled_sim = _simulator()
        plan = cancelled_sim.plan_window(0)
        name = next(iter(plan.completion_offsets()))
        stream = plan.streams[name].stream
        cancelled_sim.settle_stream(plan, name, cancelled=True)
        cancelled_next = cancelled_sim.dynamics.start_accuracy(stream, 1)

        completed_sim = _simulator()
        other_plan = completed_sim.plan_window(0)
        other_stream = other_plan.streams[name].stream
        completed_sim.settle_stream(other_plan, name)
        completed_next = completed_sim.dynamics.start_accuracy(other_stream, 1)
        assert cancelled_next < completed_next

    def test_completion_offset_override_realises_the_earlier_finish(self):
        """Reclaimed capacity finishes a retraining earlier: more benefit."""
        simulator = _simulator()
        plan = simulator.plan_window(0)
        name, offset = next(iter(plan.completion_offsets().items()))
        planned = plan.streams[name]
        outcome = simulator.settle_stream(plan, name, completion_offset=offset / 2.0)
        assert outcome.retraining_completed
        assert outcome.retraining_duration == offset / 2.0
        assert outcome.realized_average_accuracy > planned.estimate.average_accuracy


def _fleet_simulator(scenario=None, *, num_sites=2, streams_per_site=4, seed=SEED):
    controller = make_fleet(num_sites, streams_per_site, gpus_per_site=2, seed=seed)
    return FleetSimulator(controller, scenario)


def _completion_times(simulator, site):
    """Absolute in-flight completion times of ``site``'s open window."""
    return dict(simulator._open_windows[site].expected)


class TestPreemptiveEventLoop:
    def test_retrainings_settle_at_their_own_events(self):
        simulator = _fleet_simulator()
        result = simulator.run(2)
        completions = [
            event
            for event in simulator.event_trace
            if isinstance(event, RetrainingComplete)
        ]
        assert completions, "sites must schedule completion events"
        reconfigured = [
            event
            for event in simulator.event_trace
            if isinstance(event, InferenceReconfigured)
        ]
        assert reconfigured, "each completion settles with a reconfiguration"
        for event in reconfigured:
            assert event.reason == "retraining_complete"
            assert event.inference_gpu > 0.0
        # No cancellations without departures.
        summary = result.summary()
        assert summary["retrainings_cancelled"] == 0
        assert summary["reclaimed_gpu_seconds"] == 0.0
        for window in result.windows:
            assert window.num_streams == 8

    def test_cancel_pending_at_exact_completion_instant_wins(self):
        """A failure at exactly the completion time preempts the pending event.

        ``ScenarioTrigger`` (priority 2 slot) pops before
        ``RetrainingComplete`` at an equal timestamp, so the completion is
        still pending when the evacuation cancels it: the stream must lose
        the retraining even though zero GPU-seconds remained to reclaim.
        """
        probe = _fleet_simulator()
        probe.run_until(201.0)  # window 1 planned at t=200
        completions = _completion_times(probe, "site-0")
        victim, instant = min(completions.items(), key=lambda item: (item[1], item[0]))

        scenario = Scenario(events=[SiteFailure(at_seconds=instant, site="site-0")])
        simulator = _fleet_simulator(scenario)
        result = simulator.run(3)
        outcome = result.windows[1].stream_outcomes[victim]
        assert outcome.site == "site-0"
        assert not outcome.outcome.retraining_completed
        stats = result.windows[1].site_stats["site-0"]
        assert stats.retrainings_cancelled >= 1

    def test_cancel_after_all_completions_popped_is_a_noop(self):
        """A failure after the last completion fired cancels nothing."""
        probe = _fleet_simulator()
        probe.run_until(201.0)
        last = max(_completion_times(probe, "site-0").values())
        scenario = Scenario(
            events=[SiteFailure(at_seconds=last + 1e-6, site="site-0")]
        )
        simulator = _fleet_simulator(scenario)
        result = simulator.run(3)
        summary = result.summary()
        assert summary["retrainings_cancelled"] == 0
        assert summary["reclaimed_gpu_seconds"] == 0.0
        # The evacuated streams all kept their window-1 retrained models.
        for name, outcome in result.windows[1].stream_outcomes.items():
            if outcome.site == "site-0" and name in _completion_times(probe, "site-0"):
                assert outcome.outcome.retraining_completed

    def test_double_cancel_is_idempotent(self):
        """Cancelling a stream twice reclaims its remaining work only once."""
        simulator = _fleet_simulator()
        simulator.run_until(201.0)
        open_window = simulator._open_windows["site-0"]
        victim = min(open_window.expected)
        simulator._on_stream_departure(victim, "site-0", "test")
        cancelled = open_window.retrainings_cancelled
        reclaimed = open_window.reclaimed_gpu_seconds
        assert cancelled == 1
        assert reclaimed > 0.0
        simulator._on_stream_departure(victim, "site-0", "test")
        assert open_window.retrainings_cancelled == cancelled
        assert open_window.reclaimed_gpu_seconds == reclaimed

    def test_reclaimed_capacity_accelerates_surviving_retrainings(self):
        """A cancellation reschedules the survivors' completions earlier."""
        simulator = _fleet_simulator()
        first = simulator.run_until(201.0)
        open_window = simulator._open_windows["site-0"]
        before = dict(open_window.expected)
        assert len(before) >= 2, "need a victim and at least one survivor"
        victim = min(before)
        survivors = sorted(set(before) - {victim})
        simulator._on_stream_departure(victim, "site-0", "test")
        now = simulator.now
        for name in survivors:
            assert open_window.expected[name] < before[name]
            # Remaining work is conserved: new_alloc * new_remaining ==
            # old_alloc * old_remaining at the cancellation instant.
            assert open_window.overrides[name] == open_window.expected[name] - 200.0
            assert open_window.expected[name] > now
        # Run to the window's end: the survivors settle at the rescheduled
        # (earlier) completions, stale original events firing as no-ops.
        # The in-progress cycle was already emitted by the first run_until;
        # continuing the timeline keeps filling that same result object.
        simulator.run_until(400.0)
        window = first.windows[-1]
        for name in survivors:
            outcome = window.stream_outcomes[name].outcome
            assert outcome.retraining_completed
            expected_duration = 200.0 + outcome.retraining_duration
            assert expected_duration < before[name]

    def test_final_window_settles_with_a_non_dyadic_duration(self):
        """The flush must use the multiplied window-end float.

        An accumulated ``boundary + duration`` end drifts one ulp above the
        multiplied ``t_end`` for non-dyadic durations, and the final
        window's ``end <= t_end`` flush check would then silently skip it —
        returned with empty ``site_stats`` and missing outcomes.
        """
        duration = 200.7887233511355
        controller = make_fleet(
            2,
            2,
            gpus_per_site=2,
            window_duration=duration,
            seed=SEED,
        )
        result = FleetSimulator(controller).run(6)
        assert len(result.windows) == 6
        for window in result.windows:
            assert set(window.site_stats) == {"site-0", "site-1"}
            assert window.num_streams == 4

    def test_completion_event_reports_the_boosted_allocation(self):
        """InferenceReconfigured carries the allocation the job ran at."""
        simulator = _fleet_simulator()
        first = simulator.run_until(201.0)
        open_window = simulator._open_windows["site-0"]
        before = dict(open_window.expected)
        victim = min(before)
        survivors = sorted(set(before) - {victim})
        simulator._on_stream_departure(victim, "site-0", "test")
        boosted = {name: open_window.alloc[name] for name in survivors}
        simulator.run_until(400.0)
        reconfigured = {
            event.stream: event
            for event in simulator.event_trace
            if isinstance(event, InferenceReconfigured)
            and event.site == "site-0"
            and event.reason == "retraining_complete"
        }
        for name in survivors:
            decision = first.windows[-1].stream_outcomes[name].outcome.decision
            assert reconfigured[name].inference_gpu == pytest.approx(
                decision.inference_gpu + boosted[name]
            )
            assert boosted[name] > decision.retraining_gpu

    def test_wan_delay_is_not_reclaimable_work(self):
        """Idle WAN wait must count as neither reclaim nor acceleration.

        A site failure at t=0 evacuates streams before any boundary fires,
        so the survivors plan window 0 with migrated-in streams whose
        retraining idles until the checkpoint arrives (``ready`` ≈ the
        transfer time).  Cancelling such a stream must reclaim only the GPU
        work past ``ready`` — not the wall-clock to completion — and an
        accelerated delayed retraining must never complete before its
        checkpoint has arrived.
        """
        scenario = Scenario(events=[SiteFailure(at_seconds=0.0, site="site-0")])
        controller = make_fleet(3, 4, gpus_per_site=2, seed=SEED)
        simulator = FleetSimulator(controller, scenario)
        simulator.run_until(1.0)  # trigger + window-0 boundaries at t=0
        delayed_site = next(
            name
            for name, open_window in sorted(simulator._open_windows.items())
            if any(ready > 0.0 for ready in open_window.ready.values())
        )
        open_window = simulator._open_windows[delayed_site]
        delayed = [
            name
            for name, ready in sorted(open_window.ready.items())
            if ready > 0.0 and name in open_window.expected
        ]
        assert delayed, "an evacuated stream retrains behind its WAN transfer"
        local = [
            name
            for name, ready in sorted(open_window.ready.items())
            if ready == 0.0 and name in open_window.expected
        ]
        assert local, "the destination also has boundary-started retrainings"

        # Cancel a local stream: the delayed beneficiary accelerates, but
        # its completion can never precede the checkpoint arrival.
        target = delayed[0]
        ready = open_window.ready[target]
        before = open_window.expected[target]
        before_alloc = open_window.alloc[target]
        simulator._on_stream_departure(local[0], delayed_site, "test")
        assert open_window.expected[target] < before
        assert open_window.expected[target] >= ready

        # Cancel the delayed stream itself: reclaim is burn-only — the
        # remaining work past ``ready``, conserved by the acceleration.
        reclaimed_before = open_window.reclaimed_gpu_seconds
        expected_burn = (open_window.expected[target] - ready) * open_window.alloc[target]
        assert expected_burn == pytest.approx((before - ready) * before_alloc)
        simulator._on_stream_departure(target, delayed_site, "test")
        increment = open_window.reclaimed_gpu_seconds - reclaimed_before
        assert increment == pytest.approx(expected_burn)
        # The buggy wall-clock formula would have claimed far more.
        assert increment < (before - simulator.now) * before_alloc

    def test_chained_evacuation_cancels_a_rescheduled_retraining(self):
        """The 2-hop case: hop 1 reschedules, hop 2 cancels the reschedule.

        A site failure evacuates its streams one by one (sorted).  The first
        evacuated in-flight stream's reclaimed allocation accelerates the
        survivors — rescheduling their completions — and the very next hop
        evacuates one of those survivors, cancelling the retraining the
        first hop just rescheduled.  Remaining work is conserved by the
        redistribution, so the total reclaimed GPU-seconds must equal the
        in-flight remaining work at the failure instant computed from the
        *original* plan.
        """
        probe = _fleet_simulator()
        probe.run_until(201.0)
        open_probe = probe._open_windows["site-0"]
        inflight = dict(open_probe.expected)
        allocs = dict(open_probe.alloc)
        assert len(inflight) >= 2
        instant = min(inflight.values()) - 1.0  # strictly before any completion
        expected_reclaim = sum(
            (completion - instant) * allocs[name]
            for name, completion in inflight.items()
        )

        scenario = Scenario(events=[SiteFailure(at_seconds=instant, site="site-0")])
        simulator = _fleet_simulator(scenario)
        result = simulator.run(3)
        window = result.windows[1]
        stats = window.site_stats["site-0"]
        assert stats.retrainings_cancelled == len(inflight)
        assert stats.reclaimed_gpu_seconds == pytest.approx(expected_reclaim)
        for name in inflight:
            assert not window.stream_outcomes[name].outcome.retraining_completed
        # The rescheduled-then-cancelled completions left stale events on the
        # calendar; they fired as no-ops and the run stayed consistent.
        summary = result.summary()
        assert summary["retrainings_cancelled"] == len(inflight)
        assert summary["reclaimed_gpu_seconds"] == pytest.approx(expected_reclaim)
