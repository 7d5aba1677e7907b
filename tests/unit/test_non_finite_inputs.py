"""Non-finite times, factors and site shapes are rejected before the engine runs.

NaN passes every ``x <= 0`` / ``x < 0`` guard, and an infinite end time or
duration never lets the event loop finish.  A fractional GPU count or a
zero quantum must fail as a site error, not deep in the cluster or policy.
Each entry point below must raise :class:`~repro.exceptions.FleetError`
(:class:`~repro.exceptions.ProfilingError` for the profiling knobs) *before
the calendar advances*.  The ``frozen_calendar`` fixture makes any advance
fail the test, so a regression shows up as a failure instead of a hung run.
"""

import math

import pytest

from repro.exceptions import FleetError, ProfilingError
from repro.fleet import (
    FlashCrowd,
    FleetSimulator,
    GpuFailure,
    SiteFailure,
    SiteSpec,
    WanDegradation,
    make_fleet,
)
from repro.fleet.calendar import ControlTick, EventCalendar

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture
def frozen_calendar(monkeypatch):
    def pop(self):
        raise AssertionError("the calendar advanced past a rejected input")

    monkeypatch.setattr(EventCalendar, "pop", pop)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("method", ["run_until", "run_for"])
def test_run_horizons_must_be_finite(frozen_calendar, method, value):
    simulator = FleetSimulator(make_fleet(1, 1, seed=0))
    with pytest.raises(FleetError, match="finite"):
        getattr(simulator, method)(value)
    assert simulator.now == 0.0


@pytest.mark.parametrize("value", NON_FINITE)
def test_control_interval_must_be_finite(frozen_calendar, value):
    with pytest.raises(FleetError, match="control_interval"):
        FleetSimulator(make_fleet(1, 1, seed=0), control_interval=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda duration: SiteSpec(name="site-0", window_duration=duration),
        lambda duration: make_fleet(1, 1, window_duration=duration),
        lambda duration: make_fleet(2, 1, window_duration=(200.0, duration)),
    ],
    ids=["site_spec", "make_fleet", "make_fleet_per_site"],
)
def test_window_duration_must_be_finite(frozen_calendar, build, value):
    with pytest.raises(FleetError, match="window_duration"):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SiteSpec(name="site-0", num_gpus=math.nan),
        lambda: SiteSpec(name="site-0", num_gpus=math.inf),
        lambda: make_fleet(1, 1, gpus_per_site=1.5),
    ],
    ids=["site_spec_nan", "site_spec_inf", "make_fleet_fractional"],
)
def test_gpu_count_must_be_a_whole_number(frozen_calendar, build):
    """A NaN count once passed the ``< 1`` check and blamed the delta; 1.5
    reached ``range()`` as a ``TypeError``."""
    with pytest.raises(FleetError, match="'site-0' needs an integer num_gpus"):
        build()


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
def test_make_fleet_delta_is_checked_before_the_policy(frozen_calendar, value):
    """``delta=0.0`` once surfaced as the policy's ``SchedulingError``."""
    with pytest.raises(FleetError, match="'site-0'.*delta"):
        make_fleet(1, 1, delta=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda t: FlashCrowd(at_seconds=t, num_streams=2),
        lambda t: SiteFailure(at_seconds=t, site="site-0"),
        lambda t: SiteFailure(at_seconds=10.0, site="site-0", recovery_at=t),
        lambda t: GpuFailure(at_seconds=10.0, site="site-0", recovery_at=t),
        lambda t: WanDegradation(at_seconds=10.0, site="site-0", until_at=t),
    ],
    ids=[
        "flash_crowd_at",
        "site_failure_at",
        "site_failure_recovery_at",
        "gpu_failure_recovery_at",
        "wan_until_at",
    ],
)
def test_scenario_times_must_be_finite(frozen_calendar, build, value):
    with pytest.raises(FleetError, match="finite"):
        build(value)


@pytest.mark.parametrize("value", [1.5, math.nan, 0])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: GpuFailure(at_seconds=10.0, site="site-0", num_gpus=n),
        lambda n: FlashCrowd(at_seconds=10.0, num_streams=n),
    ],
    ids=["gpu_failure_num_gpus", "flash_crowd_num_streams"],
)
def test_scenario_counts_must_be_whole_numbers(frozen_calendar, build, value):
    """1.5 once died at the trigger as a bare ``TypeError`` from ``range()``;
    NaN surfaced as the cluster's ``SchedulingError``."""
    with pytest.raises(FleetError, match="integer"):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_fleet(1.5, 1),
        lambda: make_fleet(2, 1.5),
        lambda: make_fleet(2, 1, max_migrations_per_window=1.5),
        lambda: make_fleet(2, 1, overload_factor=math.nan),
    ],
    ids=["num_sites", "streams_per_site", "max_migrations", "overload_factor"],
)
def test_make_fleet_rejects_malformed_counts_and_factors(frozen_calendar, build):
    """A fractional shape raised a bare ``TypeError``; a fractional migration
    cap let one scan overshoot it; a NaN overload factor made every
    imbalance count as overload."""
    with pytest.raises(FleetError):
        build()


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "build",
    [
        lambda v: make_fleet(2, 1, profiler_error_std=v),
        lambda v: make_fleet(2, 1, profile_sharing=True, profiler_error_std=v),
        lambda v: make_fleet(2, 1, profile_sharing=True, profile_decay_half_life=v),
    ],
    ids=["profiler_error_std", "shared_profiler_error_std", "decay_half_life"],
)
def test_profiling_knobs_must_be_finite(frozen_calendar, build, value):
    """A NaN or infinite profiler error once ran to completion with
    different decisions; a NaN half-life was accepted."""
    with pytest.raises(ProfilingError):
        build(value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("factor", ["uplink_factor", "downlink_factor"])
def test_wan_degradation_factors_must_be_finite(frozen_calendar, factor, value):
    with pytest.raises(FleetError, match="finite"):
        WanDegradation(at_seconds=0.0, site="site-0", **{factor: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_calendar_rejects_non_finite_event_times(value):
    """The backstop for derived times (e.g. a NaN transfer duration)."""
    calendar = EventCalendar()
    with pytest.raises(FleetError, match="finite"):
        calendar.schedule(ControlTick(time=value))
    assert not calendar
