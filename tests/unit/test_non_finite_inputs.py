"""Non-finite times, factors and site shapes are rejected before the engine runs.

NaN passes every ``x <= 0`` / ``x < 0`` guard, and an infinite end time or
duration never lets the event loop finish.  A fractional GPU count or a
zero quantum must fail as a site error, not deep in the cluster or policy.
Each entry point below must raise :class:`~repro.exceptions.FleetError`
(:class:`~repro.exceptions.ProfilingError` for the profiling knobs,
:class:`~repro.exceptions.ConfigurationError` for a WAN link) *before the
calendar advances*.  The ``frozen_calendar`` fixture makes any advance
fail the test, so a regression shows up as a failure instead of a hung run.
"""

import math

import numpy as np
import pytest

from repro.cluster.network import NetworkLink
from repro.exceptions import ConfigurationError, FleetError, ProfilingError, SimulationError
from repro.fleet import (
    ChaosInjector,
    FlashCrowd,
    FleetSimulator,
    GpuFailure,
    SiteFailure,
    SiteSpec,
    WanDegradation,
    WanFaultModel,
    make_fleet,
)
from repro.fleet.calendar import ControlTick, EventCalendar
from repro.simulation.experiments import make_setup
from repro.simulation.simulator import Simulator

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture
def frozen_calendar(monkeypatch):
    def pop(self):
        raise AssertionError("the calendar advanced past a rejected input")

    monkeypatch.setattr(EventCalendar, "pop", pop)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("method", ["run_until"])
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


def test_flash_crowd_dataset_must_be_known(frozen_calendar):
    """An unknown dataset once passed validation and died at the trigger,
    after the calendar advanced, as the stream generator's ``DatasetError``."""
    with pytest.raises(FleetError, match="unknown dataset 'nope'.*cityscapes"):
        FlashCrowd(at_seconds=10.0, dataset="nope")


@pytest.mark.parametrize(
    "call",
    [
        lambda simulator: simulator.run_window(1.5),
        lambda simulator: simulator.run(2.5),
    ],
    ids=["run_window", "run_num_windows"],
)
def test_fleet_window_indices_must_be_whole_numbers(frozen_calendar, call):
    """``run_window(1.5)`` once advanced the calendar to t=300 and died in
    the drift substrate; ``run(2.5)`` reached ``range()`` as a
    ``TypeError``."""
    simulator = FleetSimulator(make_fleet(1, 1, seed=0))
    with pytest.raises(FleetError, match="integer"):
        call(simulator)
    assert simulator._calendar is None


@pytest.mark.parametrize("kwargs", [dict(num_windows=2.5)], ids=["num_windows"])
def test_simulator_window_counts_must_be_whole_numbers(frozen_calendar, kwargs):
    setup = make_setup("ekya", num_streams=1, num_gpus=1, seed=0)
    simulator = Simulator(setup.server, setup.dynamics, setup.policy)
    with pytest.raises(SimulationError, match="integer"):
        simulator.run(**kwargs)


def test_make_fleet_accepts_numpy_scalars(frozen_calendar):
    """A numpy window duration once fell through to the per-site sequence
    branch (``TypeError``); a numpy seed overflowed the seed hash."""
    controller = make_fleet(1, 1, window_duration=np.int64(200), seed=np.int64(3))
    assert controller.window_duration == 200.0


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: make_fleet(1, 1, seed=1.5), "seed"),
        (lambda: make_fleet(3, 2, links=[None]), "'site-0' needs a NetworkLink"),
        (lambda: make_fleet(1, 1, dataset="nope"), "unknown dataset 'nope'.*cityscapes"),
    ],
    ids=["seed", "links", "dataset"],
)
def test_make_fleet_rejects_malformed_inputs_up_front(frozen_calendar, build, match):
    """A fractional seed died in ``SeedSequence``, a ``None`` link at the
    first migration, an unknown dataset as the generator's ``DatasetError``."""
    with pytest.raises(FleetError, match=match):
        build()


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: NetworkLink("x", uplink_mbps=math.nan, downlink_mbps=10.0),
        lambda: NetworkLink("x", uplink_mbps=10.0, downlink_mbps=math.nan),
        lambda: NetworkLink("x", uplink_mbps=10.0, downlink_mbps=10.0, rtt_seconds=math.nan),
        lambda: NetworkLink("x", uplink_mbps=10.0, downlink_mbps=10.0, rtt_seconds=math.inf),
    ],
    ids=["uplink_nan", "downlink_nan", "rtt_nan", "rtt_inf"],
)
def test_network_link_times_must_be_finite(frozen_calendar, build):
    """Each once built and ended the run in ``cannot schedule
    TransferArrival at t=nan`` (or ``t=inf``) at the first migration."""
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_retries=1.5),
        dict(backoff_seconds=math.nan),
        dict(backoff_seconds=math.inf),
        dict(backoff_factor=math.nan),
        dict(backoff_factor=math.inf),
        dict(seed=1.5),
    ],
    ids=[
        "max_retries_fractional",
        "backoff_seconds_nan",
        "backoff_seconds_inf",
        "backoff_factor_nan",
        "backoff_factor_inf",
        "seed_fractional",
    ],
)
def test_wan_fault_model_rejects_malformed_knobs(frozen_calendar, kwargs):
    """A fractional retry budget or seed once died mid-run as a ``TypeError``;
    a non-finite backoff as a calendar error; a NaN factor was accepted."""
    with pytest.raises(FleetError):
        WanFaultModel(loss_rate=0.1, **kwargs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ChaosInjector(0, intensity=math.nan),
        lambda: ChaosInjector(0, intensity=math.inf),
        lambda: ChaosInjector(1.5),
        lambda: ChaosInjector(0).compile(["site-0"], window_duration=math.nan, num_windows=2),
        lambda: ChaosInjector(0).compile(["site-0"], window_duration=math.inf, num_windows=2),
        lambda: ChaosInjector(0).compile(["site-0"], window_duration=200.0, num_windows=2.5),
    ],
    ids=[
        "intensity_nan",
        "intensity_inf",
        "seed_fractional",
        "window_duration_nan",
        "window_duration_inf",
        "num_windows_fractional",
    ],
)
def test_chaos_injector_rejects_malformed_inputs(frozen_calendar, build):
    """Non-finite inputs once raised ``ValueError``/``OverflowError`` from
    ``compile``; a fractional window count was accepted."""
    with pytest.raises(FleetError):
        build()
