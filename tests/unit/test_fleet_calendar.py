"""Unit tests for the fleet event calendar and the time-based APIs around it."""

import pytest

from repro.exceptions import FleetError
from repro.fleet import (
    ControlTick,
    EventCalendar,
    FleetSimulator,
    ProfilePush,
    Scenario,
    ScenarioTrigger,
    SiteFailure,
    SiteRecovery,
    TransferArrival,
    WanDegradation,
    WanRestore,
    WindowBoundary,
    gpu_utilization,
    make_fleet,
)


class TestEventCalendar:
    def test_pops_in_time_order(self):
        calendar = EventCalendar()
        calendar.schedule(WindowBoundary(time=200.0, site="b", window_index=1))
        calendar.schedule(TransferArrival(time=50.0, stream="s"))
        calendar.schedule(WindowBoundary(time=0.0, site="a", window_index=0))
        assert [event.time for event in self._drain(calendar)] == [0.0, 50.0, 200.0]

    def test_priority_breaks_timestamp_ties(self):
        calendar = EventCalendar()
        # Scheduled in reverse semantic order; all at t=100.
        calendar.schedule(WindowBoundary(time=100.0, site="a", window_index=1))
        calendar.schedule(ControlTick(time=100.0))
        calendar.schedule(ProfilePush(time=100.0, site="a"))
        calendar.schedule(TransferArrival(time=100.0, stream="s"))
        calendar.schedule(ScenarioTrigger(time=100.0, event=None))
        calendar.schedule(SiteRecovery(time=100.0, site="a", owner=None))
        kinds = [type(event) for event in self._drain(calendar)]
        assert kinds == [
            SiteRecovery,
            ScenarioTrigger,
            TransferArrival,
            ProfilePush,
            ControlTick,
            WindowBoundary,
        ]

    def test_profile_push_slots_between_arrivals_and_control(self):
        """The sharing event must see same-instant checkpoints first and be
        visible to same-instant admission decisions."""
        assert TransferArrival.priority < ProfilePush.priority < ControlTick.priority
        push = ProfilePush(time=42.0, site="site-0", profiles=(("k", None),))
        text = push.describe()
        assert "ProfilePush" in text and "site-0" in text and "profiles=1" in text

    def test_sequence_breaks_full_ties_in_scheduling_order(self):
        calendar = EventCalendar()
        for site in ("c", "a", "b"):
            calendar.schedule(WindowBoundary(time=0.0, site=site, window_index=0))
        assert [event.site for event in self._drain(calendar)] == ["c", "a", "b"]

    def test_now_advances_with_pops_and_rejects_the_past(self):
        calendar = EventCalendar()
        assert calendar.now == 0.0
        calendar.schedule(ControlTick(time=10.0))
        calendar.pop()
        assert calendar.now == 10.0
        with pytest.raises(FleetError):
            calendar.schedule(ControlTick(time=5.0))
        calendar.schedule(ControlTick(time=30.0))
        calendar.schedule(ControlTick(time=20.0))
        assert calendar.peek_time() == 20.0
        calendar.pop()
        assert calendar.now == 20.0
        with pytest.raises(FleetError):
            calendar.schedule(ControlTick(time=19.0))
        calendar.schedule(ControlTick(time=20.0))  # "now" itself is allowed

    def test_empty_calendar(self):
        calendar = EventCalendar()
        assert not calendar
        assert len(calendar) == 0
        assert calendar.peek_time() is None
        with pytest.raises(FleetError):
            calendar.pop()

    def test_negative_times_rejected(self):
        with pytest.raises(FleetError):
            ControlTick(time=-0.5)

    def test_describe_is_human_readable(self):
        boundary = WindowBoundary(time=200.0, site="site-0", window_index=1)
        text = boundary.describe()
        assert "WindowBoundary" in text and "site-0" in text and "window=1" in text

    @staticmethod
    def _drain(calendar):
        events = []
        while calendar:
            events.append(calendar.pop())
        return events


class TestTimedScenarioEvents:
    """Scenario times are absolute: the simulator schedules each trigger
    and expiry at exactly the seconds the event names."""

    @staticmethod
    def _trace(event, window_duration):
        controller = make_fleet(
            2, 1, gpus_per_site=2, window_duration=window_duration, seed=0
        )
        simulator = FleetSimulator(controller, Scenario(events=[event]))
        simulator.run_until(1000.0)
        return simulator.event_trace

    def test_time_indexed_resolution_ignores_the_duration(self):
        event = SiteFailure(at_seconds=450.0, site="site-0", recovery_at=900.0)
        for window_duration in (200.0, (150.0, 200.0)):
            trace = self._trace(event, window_duration)
            assert [e.time for e in trace if isinstance(e, ScenarioTrigger)] == [450.0]
            assert [e.time for e in trace if isinstance(e, SiteRecovery)] == [900.0]

    def test_expiry_resolution(self):
        trace = self._trace(SiteFailure(at_seconds=400.0, site="site-0"), 200.0)
        assert not any(isinstance(e, SiteRecovery) for e in trace)
        trace = self._trace(
            WanDegradation(at_seconds=200.0, site="site-0", uplink_factor=0.5, until_at=600.0),
            200.0,
        )
        assert [e.time for e in trace if isinstance(e, WanRestore)] == [600.0]


class TestGpuUtilization:
    def test_normal_division(self):
        assert gpu_utilization(3.0, 4) == pytest.approx(0.75)

    def test_degenerate_capacity_is_flagged_as_zero(self):
        assert gpu_utilization(1.0, 0) == 0.0
        assert gpu_utilization(1.0, -2) == 0.0
