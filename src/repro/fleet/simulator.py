"""Discrete-event multi-site fleet simulation on one event calendar.

The :class:`FleetSimulator` is an event loop over an
:class:`~repro.fleet.calendar.EventCalendar`: window boundaries (per-site,
so sites may have different ``window_duration`` s), scenario triggers (at
their absolute ``at_seconds``), WAN transfer arrivals and control ticks are
all first-class timestamped events, popped in deterministic
``(time, priority, seq)`` order and dispatched to one handler each:

* ``SiteRecovery`` / ``WanRestore`` / ``GpuRecovered`` — a scenario effect
  expires.  Site and WAN effects are ownership-guarded (latest event wins:
  a re-degraded link does not snap back when the first degradation would
  have ended); GPU recoveries are count-based instead — losses stack and
  each recovery returns exactly the clamped count its failure took.
* ``ScenarioTrigger`` — site failures force-evacuate (scheduling one
  ``TransferArrival`` per hop), flash crowds admit, WAN degradations scale
  the link and schedule their own restore, GPU failures shrink the site's
  effective capacity and rescale its in-flight retrainings mid-window.
* ``TransferArrival`` — a migrating checkpoint + profile lands.  Arrivals
  are absolute timestamps, so a transfer can complete mid-window and the
  next window pays only the remaining time; one spanning several windows
  keeps delaying retraining until it has fully arrived.
* ``TransferFailed`` — one WAN transfer attempt was lost (fleets built
  with ``make_fleet(wan_faults=...)``).  Checkpoint transfers retry with
  exponential backoff until the retry budget runs out — the final give-up
  restarts the stream cold at its destination — and profile pushes are
  lost outright, neighbours falling back to local curves.  Every failure
  lands in the destination site's ``transfers_failed`` /
  ``transfer_retries`` / ``retry_seconds`` stats.
* ``ProfilePush`` — a site's micro-profiled curves land in the fleet-wide
  profile store (cross-site profile sharing; scheduled only for fleets
  built with ``make_fleet(profile_sharing=True)``).  The arrival paid the
  source site's uplink, so degraded sites contribute stale curves.
* ``RetrainingComplete`` / ``InferenceReconfigured`` — event-driven site
  internals: a window is *planned* at its boundary, each stream's
  retraining completion becomes its own calendar event at the absolute
  finish time, and the settle phase runs per stream — at its completion
  (its GPUs then flow back to the stream's inference job), at the window
  end, or early as a cancellation when a mid-window migration/evacuation
  preempts an in-flight retraining and reclaims its remaining GPU-seconds
  for the site's other in-flight retrainings (which then finish earlier).
* ``ControlTick`` — the controller rebalances.  Ticks coincide with window
  boundaries by default (the PR-2 cadence); pass ``control_interval`` to
  run the control plane on its own cadence, decoupled from windows.
* ``WindowBoundary`` — the site settles its previous window and plans the
  next through the single-server
  :class:`~repro.simulation.simulator.Simulator`, with
  migrated-in streams' unfinished WAN transfer handed down as a retraining
  start delay.  Every site whose boundary fires at one instant is planned
  as one cohort: each profiles in pop order, then one
  ``solve_cohort`` call of the shared policy solves them all (see
  :meth:`FleetSimulator._on_boundary_cohort`).

``run(num_windows)`` is a thin compatibility wrapper over the event loop
for homogeneous-window fleets and reproduces the shared-window-index
engine's :class:`~repro.fleet.metrics.FleetResult` bit-identically under a
:class:`~repro.utils.clock.ManualClock` (see
``tests/integration/test_fleet_scenarios.py::TestEngineParity``).
Heterogeneous fleets use :meth:`run_until` / :meth:`run_for`; each
:class:`~repro.fleet.metrics.FleetWindowResult` then covers one *cycle* —
all sites whose windows start at the same instant.

Everything is deterministic given the construction seeds except wall-clock
measurements, which all go through the injectable clock from
:mod:`repro.utils.clock`: pass the same
:class:`~repro.utils.clock.ManualClock` here and to
:func:`~repro.fleet.factory.make_fleet` and fleet results are bit-identical
field for field across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.types import ScheduleRequest, WindowSchedule
from ..exceptions import FleetError
from ..profiles.fleet_store import stream_profile_key
from ..simulation.simulator import StreamWindowOutcome, WindowPlan
from ..utils.clock import Clock, Stopwatch
from ..utils.math_utils import safe_mean
from ..utils.rng import ensure_rng
from .calendar import (
    ControlTick,
    EventCalendar,
    GpuRecovered,
    InferenceReconfigured,
    MigrationStarted,
    ProfilePush,
    RetrainingComplete,
    ScenarioTrigger,
    SimEvent,
    SiteRecovery,
    TransferArrival,
    TransferFailed,
    WanRestore,
    WindowBoundary,
)
from .controller import FleetController
from .faults import combined_loss, sample_transfer
from .metrics import (
    FleetResult,
    FleetStreamOutcome,
    FleetWindowResult,
    gpu_utilization,
)
from .migration import MigrationEvent
from .policy.base import ControlSignals, InflightRetraining
from .scenarios import FlashCrowd, GpuFailure, Scenario, SiteFailure, WanDegradation
from .site import EdgeSite
from .telemetry import TelemetryConfig, TelemetryPlane


@dataclass
class _OpenSiteWindow:
    """Bookkeeping for one site window between plan and settle.

    Created at the site's :class:`~repro.fleet.calendar.WindowBoundary`
    (plan phase) and closed when the window fully settles — at its end, or
    stream by stream as :class:`~repro.fleet.calendar.RetrainingComplete`
    events fire and departures cancel in-flight retrainings.  ``expected``
    maps each in-flight stream to the absolute completion time currently on
    the calendar; a popped completion event fires only while its timestamp
    still matches, which is what makes cancelled or rescheduled events
    stale without removing them from the heap.
    """

    site: str
    window_index: int
    start: float
    end: float
    plan: WindowPlan
    cycle: FleetWindowResult
    #: ``(profiling_gpu_seconds, profiling_gpu_seconds_saved)`` accounted at
    #: the boundary (profiles are produced during planning).
    profiling: Tuple[float, float]
    #: Migration events charged to each planned stream, popped at plan time
    #: so WAN hops are charged to the window they delay.
    migrations_stash: Dict[str, Tuple[MigrationEvent, ...]]
    #: Absolute completion time per in-flight retraining.
    expected: Dict[str, float] = field(default_factory=dict)
    #: Current retraining GPU allocation per in-flight retraining.
    alloc: Dict[str, float] = field(default_factory=dict)
    #: Absolute time before which each in-flight retraining burns no GPU
    #: (a migrated-in stream waits for its WAN transfer first).  Reclaim
    #: and acceleration count only work past this point.
    ready: Dict[str, float] = field(default_factory=dict)
    #: In-flight streams whose completion is allocation-driven; a fixed
    #: external completion (cloud offload) cannot be accelerated.
    accelerable: set = field(default_factory=set)
    #: Realised completion offsets (seconds into the window) for streams
    #: whose retraining was accelerated by reclaimed capacity.
    overrides: Dict[str, float] = field(default_factory=dict)
    retrainings_cancelled: int = 0
    reclaimed_gpu_seconds: float = 0.0
    #: GPU-seconds burned on retrainings that never paid: work sunk into a
    #: cancelled job before its cancellation, plus the whole-window burn of
    #: a job that never completed inside its window.  The A/B harness's
    #: headline waste metric.
    wasted_gpu_seconds: float = 0.0


class FleetSimulator:
    """Executes a fleet scenario as a discrete-event simulation.

    Parameters
    ----------
    controller:
        The fleet to simulate.  Sites may have different
        ``window_duration`` s; each gets its own ``WindowBoundary`` events.
    scenario:
        Injected events, validated up front: unknown site names raise
        immediately.
    clock:
        Wall-clock source for ``FleetResult.wall_clock_seconds``.
    control_interval:
        Seconds between ``ControlTick`` s.  ``None`` (default) schedules a
        tick at every distinct window-boundary time — the synchronous PR-2
        control plane.  A positive finite value runs admission/rebalancing
        on its own cadence, so migrations can start mid-window.
    telemetry:
        Sizing of the bounded-memory telemetry plane: a
        :class:`~repro.fleet.telemetry.TelemetryConfig` (or a prebuilt
        :class:`~repro.fleet.telemetry.TelemetryPlane`, e.g. to share one
        across restarts).  ``None`` uses the fleet controller's config
        (``make_fleet(telemetry=...)``) or the defaults, which never evict
        at current benchmark scales.
    """

    def __init__(
        self,
        controller: FleetController,
        scenario: Optional[Scenario] = None,
        *,
        clock: Optional[Clock] = None,
        control_interval: Optional[float] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        if control_interval is not None and not 0 < control_interval < math.inf:
            raise FleetError(
                f"control_interval must be positive and finite, got {control_interval}"
            )
        for site in controller.sites:
            if not (
                hasattr(site.policy, "prepare_request") and hasattr(site.policy, "solve_cohort")
            ):
                raise FleetError(
                    f"site {site.name!r} runs {site.policy!r}, which cannot prepare and "
                    "solve window requests (prepare_request/solve_cohort, e.g. EkyaPolicy)"
                )
        self._controller = controller
        self._scenario = scenario or Scenario()
        self._clock = clock
        self._control_interval = control_interval
        if telemetry is None:
            telemetry = controller.telemetry
        if isinstance(telemetry, TelemetryPlane):
            self._telemetry = telemetry
        elif telemetry is None or isinstance(telemetry, TelemetryConfig):
            self._telemetry = TelemetryPlane(telemetry)
        else:
            raise FleetError(
                "telemetry must be a TelemetryConfig or TelemetryPlane, "
                f"got {type(telemetry).__name__}"
            )
        #: Open (planned, not fully settled) window per site.  Retrainings
        #: settle at per-stream RetrainingComplete events, and departures
        #: cancel in-flight retrainings through the controller's hooks.
        self._open_windows: Dict[str, _OpenSiteWindow] = {}
        controller.set_departure_hook(self._on_stream_departure)
        controller.set_cancellation_hook(self._on_proactive_cancellation)
        self._scenario.validate([site.name for site in controller.sites])
        #: Latest failure / degradation event owning each site's state.
        self._failure_owner: Dict[str, SiteFailure] = {}
        self._wan_owner: Dict[str, WanDegradation] = {}
        #: WAN loss model (``make_fleet(wan_faults=...)``); ``None`` keeps
        #: the lossless engine bit-identical — the fault RNG is never drawn.
        self._wan_faults = controller.wan_faults
        self._fault_rng = None
        #: Per-site ``[transfers_failed, transfer_retries, retry_seconds]``
        #: accumulated by TransferFailed events, popped into the site's next
        #: :class:`~repro.fleet.metrics.SiteWindowStats`.
        self._fault_counters: Dict[str, List] = {}
        #: In-flight WAN transfers, tracked in two mathematically equal
        #: views.  ``_transfer_arrival`` is the absolute landing time of a
        #: stream's (possibly chained) transfer: it schedules the
        #: ``TransferArrival`` events and anchors mid-window hop charges.
        #: ``_transfer_carry`` / ``_transfer_hops`` express the same
        #: remaining time relative to the stream's next window boundary,
        #: using exactly the shared-window engine's float operations
        #: (carry + sum(hops), decayed by one window duration per executed
        #: window while it exceeds it) — kept because ``delay = arrival - t``
        #: differs from that arithmetic by rounding, and ``run()`` promises
        #: bit-identical PR-2 results.  Boundaries charge delays from the
        #: ledger; the arrival map is the source of truth for event timing.
        self._transfer_arrival: Dict[str, float] = {}
        self._transfer_carry: Dict[str, float] = {}
        self._transfer_hops: Dict[str, float] = {}
        #: Migration events not yet attributed to a stream's window outcome.
        self._migrated_into: Dict[str, List[MigrationEvent]] = {}
        # Calendar state; built on the first run/run_window/run_until call.
        self._calendar: Optional[EventCalendar] = None
        self._start_window = 0
        self._start_time = 0.0
        self._boundary_times: set = set()
        self._tick_times: set = set()
        self._site_next_boundary: Dict[str, float] = {}
        self._next_cycle_ordinal = 0
        self._cycle_start = -1.0
        self._current: Optional[FleetWindowResult] = None
        self._completed: List[FleetWindowResult] = []
        #: Highest cycle ordinal already returned to a caller (run_until
        #: returns each cycle exactly once across continuation calls).
        self._last_emitted = -1
        #: Largest simulated horizon any run has covered (run_for's origin).
        self._horizon = 0.0

    # ------------------------------------------------------------- accessors
    @property
    def controller(self) -> FleetController:
        return self._controller

    @property
    def scenario(self) -> Scenario:
        return self._scenario

    @property
    def now(self) -> float:
        """Current simulated time (0.0 before the first event fires)."""
        return self._calendar.now if self._calendar is not None else 0.0

    @property
    def telemetry(self) -> TelemetryPlane:
        """The bounded-memory telemetry plane this simulator writes into."""
        return self._telemetry

    @property
    def event_trace(self) -> Sequence[SimEvent]:
        """Every recorded event still in the telemetry ring, in firing
        order (plus :class:`~repro.fleet.calendar.MigrationStarted`
        markers).  Served as a cached immutable tuple — repeated reads
        between events are O(1), and the same object is returned until a
        new event is recorded."""
        return self._telemetry.events()

    # -------------------------------------------------------------- execution
    def run(self, num_windows: int, *, start_window: int = 0) -> FleetResult:
        """Simulate ``num_windows`` consecutive shared retraining windows.

        Compatibility wrapper for homogeneous-window fleets; heterogeneous
        fleets have no shared window count — use :meth:`run_until`.
        """
        if num_windows < 1:
            raise FleetError("num_windows must be >= 1")
        if start_window < 0:
            raise FleetError("start_window must be non-negative")
        watch = Stopwatch(self._clock)
        result = self._new_result()
        for window_index in range(start_window, start_window + num_windows):
            result.windows.append(self.run_window(window_index))
        result.wall_clock_seconds = watch.elapsed()
        self._finalize_result(result)
        return result

    def run_window(self, window_index: int) -> FleetWindowResult:
        """Advance the calendar through one shared window and return it.

        Windows must be executed in ascending order (the calendar owns
        simulated time and cannot rewind); the first call fixes the start
        window, matching ``run(..., start_window=...)``.
        """
        duration = self._controller.window_duration  # homogeneous fleets only
        if self._calendar is None:
            self._start(start_window=window_index)
        if window_index != self._next_cycle_ordinal:
            raise FleetError(
                f"windows must be executed in ascending order: expected window "
                f"{self._next_cycle_ordinal}, got {window_index}"
            )
        t_end = self._start_time + (window_index + 1 - self._start_window) * duration
        self._advance_until(t_end)
        self._horizon = max(self._horizon, t_end)
        cycle = self._current
        if cycle is None:  # pragma: no cover - a boundary always opens a cycle
            raise FleetError(f"no events fired in window {window_index}")
        # A shared window is a complete cycle: every event before the next
        # boundary has fired, so the result is final and the cycle can close.
        self._current = None
        self._completed.clear()
        self._last_emitted = cycle.window_index
        return cycle

    def run_until(self, t_end: float) -> FleetResult:
        """Run every window that *starts* before ``t_end`` simulated seconds.

        The native API for heterogeneous-window fleets: all sites advance on
        one calendar, and each returned
        :class:`~repro.fleet.metrics.FleetWindowResult` covers one cycle —
        the sites whose window boundaries share a start instant
        (``start_seconds``).  Calling again with a later ``t_end`` continues
        the same timeline.  Each cycle is returned exactly once, by the
        first call that reaches it; if ``t_end`` cuts a cycle short, that
        (already returned) result object keeps accumulating the cycle's
        remaining events — late control ticks, scenario triggers — when the
        timeline is continued.
        """
        if not math.isfinite(t_end):
            raise FleetError(f"cannot run until t={t_end}: the end time must be finite")
        if self._calendar is None:
            self._start(start_window=0)
        elif t_end < self._calendar.now:
            raise FleetError(
                f"cannot run until t={t_end:g}s: simulated time is already "
                f"{self._calendar.now:g}s"
            )
        watch = Stopwatch(self._clock)
        self._advance_until(t_end)
        self._horizon = max(self._horizon, t_end)
        result = self._new_result()
        result.windows.extend(self._drain_unemitted())
        result.wall_clock_seconds = watch.elapsed()
        self._finalize_result(result)
        return result

    def _finalize_result(self, result: FleetResult) -> None:
        """Stamp the telemetry gauges and control-plane counters.

        Like the telemetry gauges, the control counters are cumulative over
        the controller's lifetime — continuation runs report totals so far.
        """
        self._telemetry.annotate(result)
        controller = self._controller
        counters = controller.control_counters
        result.control_policy = controller.control_policy.name
        result.control_scans_skipped = counters["control_scans_skipped"]
        result.migrations_rejected = counters["migrations_rejected"]
        result.proactive_cancellations = counters["proactive_cancellations"]

    def _drain_unemitted(self) -> List[FleetWindowResult]:
        """Cycles not yet handed to a caller, including the in-progress one."""
        windows = [
            cycle for cycle in self._completed if cycle.window_index > self._last_emitted
        ]
        self._completed.clear()
        if self._current is not None and self._current.window_index > self._last_emitted:
            windows.append(self._current)
        if windows:
            self._last_emitted = windows[-1].window_index
        return windows

    def run_for(self, seconds: float) -> FleetResult:
        """Run the calendar ``seconds`` past the horizon already simulated.

        The origin is the largest ``t_end`` a previous run covered — not the
        last event's timestamp, which can sit well before the horizon (a
        ``run_until(399)`` on 200 s windows pops nothing after t=200, but
        the next ``run_for(10)`` must still reach t=409, not t=210).
        """
        if not 0 < seconds < math.inf:
            raise FleetError(f"seconds must be positive and finite, got {seconds}")
        return self.run_until(self._horizon + seconds)

    # ---------------------------------------------------------- event engine
    def _new_result(self) -> FleetResult:
        return FleetResult(
            admission_policy=self._controller.admission_policy.name,
            num_sites=len(self._controller.sites),
        )

    def _start(self, start_window: int) -> None:
        """Build the calendar: first boundaries, control ticks, triggers."""
        controller = self._controller
        homogeneous = controller.homogeneous_windows
        if not homogeneous and start_window != 0:
            raise FleetError(
                "heterogeneous-window fleets must start at window 0 "
                "(there is no shared window index to offset by)"
            )
        self._start_window = start_window
        self._start_time = start_window * controller.window_duration if homogeneous else 0.0
        self._next_cycle_ordinal = start_window
        self._last_emitted = start_window - 1
        self._horizon = self._start_time
        self._calendar = EventCalendar(start_time=self._start_time)
        if self._wan_faults is not None:
            # One seeded generator, drawn strictly in event order, fixes the
            # whole fault realisation of a run (replayable chaos).
            self._fault_rng = ensure_rng(self._wan_faults.seed)
        for site in controller.sites:
            self._schedule_boundary(site, start_window)
        if self._control_interval is not None:
            self._calendar.schedule(ControlTick(time=self._start_time))
        for event in self._scenario.events:
            if event.at_seconds < self._start_time:
                continue  # before the simulated range
            self._calendar.schedule(ScenarioTrigger(time=float(event.at_seconds), event=event))

    def _site_window_time(self, site: EdgeSite, window_index: int) -> float:
        """Absolute start time of ``site``'s window ``window_index``.

        Computed by multiplication from the simulation origin — never by
        accumulating additions — so it is the *same float* as the ``t_end``
        `run_window` derives for the shared index, and the same float for
        every site sharing a duration.  Accumulated sums drift an ulp below
        the multiplied value for non-dyadic durations (e.g. 0.1), which
        used to pop a boundary one window early.
        """
        duration = site.spec.window_duration
        return self._start_time + (window_index - self._start_window) * duration

    def _schedule_boundary(self, site: EdgeSite, window_index: int) -> None:
        time = self._site_window_time(site, window_index)
        self._calendar.schedule(
            WindowBoundary(time=time, site=site.name, window_index=window_index)
        )
        self._boundary_times.add(time)
        self._site_next_boundary[site.name] = time
        if self._control_interval is None and time not in self._tick_times:
            self._tick_times.add(time)
            self._calendar.schedule(ControlTick(time=time))

    def _advance_until(self, t_end: float) -> None:
        """Pop and dispatch every event strictly before ``t_end``.

        Every open site window whose end lies at or before ``t_end`` is then
        settled once the events are drained: the boundary event *at* a
        window's end is not popped (it belongs to the next advance), but the
        window it closes is complete — all its completion events fired
        strictly before the end — so its remaining streams settle now and
        the returned results are final.
        """
        calendar = self._calendar
        while calendar:
            time = calendar.peek_time()
            if time >= t_end:
                break
            if time in self._boundary_times and time > self._cycle_start:
                self._open_cycle(time)
            event = calendar.pop()
            self._telemetry.record_event(event)
            if isinstance(event, WindowBoundary):
                # Same-instant boundaries are contiguous at the heap head
                # (nothing else shares their priority), and every member is
                # strictly before t_end because the first one was.
                self._on_boundary_cohort(self._collect_cohort(event))
            else:
                self._dispatch(event)
        for name in sorted(self._open_windows):
            if self._open_windows[name].end <= t_end:
                self._settle_open_window(name)

    def _open_cycle(self, time: float) -> None:
        if self._current is not None:
            self._completed.append(self._current)
        self._current = FleetWindowResult(
            window_index=self._next_cycle_ordinal, start_seconds=time
        )
        self._next_cycle_ordinal += 1
        self._cycle_start = time
        # Times before this cycle can never gate another cycle or tick; drop
        # them so the sets stay bounded by the number of pending boundaries.
        self._boundary_times = {t for t in self._boundary_times if t >= time}
        self._tick_times = {t for t in self._tick_times if t >= time}

    def _require_cycle(self) -> FleetWindowResult:
        if self._current is None:  # pragma: no cover - boundaries open cycles
            raise FleetError("no simulation cycle is open")
        return self._current

    def _dispatch(self, event: SimEvent) -> None:
        if isinstance(event, ControlTick):
            self._on_control_tick(event)
        elif isinstance(event, ProfilePush):
            self._on_profile_push(event)
        elif isinstance(event, RetrainingComplete):
            self._on_retraining_complete(event)
        elif isinstance(event, InferenceReconfigured):
            # Pure trace marker: the allocation change it records was applied
            # when it was scheduled (completion settle / cancellation); the
            # event exists so the timeline is observable on the calendar.
            pass
        elif isinstance(event, TransferArrival):
            self._on_transfer_arrival(event)
        elif isinstance(event, TransferFailed):
            self._on_transfer_failed(event)
        elif isinstance(event, ScenarioTrigger):
            self._on_scenario_trigger(event)
        elif isinstance(event, (SiteRecovery, WanRestore, GpuRecovered)):
            self._on_expiry(event)
        else:  # pragma: no cover - the event hierarchy is closed
            raise FleetError(f"unknown simulation event {event!r}")

    # -------------------------------------------------------- event handlers
    def _on_expiry(self, event) -> None:
        if isinstance(event, SiteRecovery):
            if self._failure_owner.get(event.site) is event.owner:
                self._controller.recover_site(event.site)
                del self._failure_owner[event.site]
        elif isinstance(event, GpuRecovered):
            # Count-based, not ownership-guarded: losses stack, so each
            # recovery restores exactly what its failure took (clamped to
            # the GPUs still lost) and can never be stale.
            site = self._controller.site(event.site)
            before = site.effective_gpus
            if site.restore_gpus(event.num_gpus):
                self._rescale_site_retrainings(event.site, before, site.effective_gpus)
        else:
            if self._wan_owner.get(event.site) is event.owner:
                self._controller.site(event.site).restore_wan()
                del self._wan_owner[event.site]

    def _on_scenario_trigger(self, trigger: ScenarioTrigger) -> None:
        controller = self._controller
        event = trigger.event
        cycle = self._require_cycle()
        if isinstance(event, SiteFailure):
            migrations = controller.fail_site(event.site, cycle.window_index)
            self._register_migrations(migrations, trigger.time)
            self._failure_owner[event.site] = event
            if event.recovery_at is not None:
                self._calendar.schedule(
                    SiteRecovery(time=float(event.recovery_at), site=event.site, owner=event)
                )
        elif isinstance(event, WanDegradation):
            controller.site(event.site).degrade_wan(
                event.uplink_factor, event.downlink_factor
            )
            self._wan_owner[event.site] = event
            if event.until_at is not None:
                self._calendar.schedule(
                    WanRestore(time=float(event.until_at), site=event.site, owner=event)
                )
        elif isinstance(event, GpuFailure):
            site = controller.site(event.site)
            before = site.effective_gpus
            taken = site.degrade_gpus(event.num_gpus)
            if taken:
                if event.recovery_at is not None:
                    self._calendar.schedule(
                        GpuRecovered(
                            time=float(event.recovery_at), site=event.site, num_gpus=taken
                        )
                    )
                self._rescale_site_retrainings(event.site, before, site.effective_gpus)
        elif isinstance(event, FlashCrowd):
            streams = controller.spawn_streams(
                event.dataset, event.num_streams, cycle.window_index, site=event.site
            )
            cycle.admitted_streams.extend(stream.name for stream in streams)
        else:  # pragma: no cover - the Scenario union is closed
            raise FleetError(f"unknown scenario event {event!r}")

    def _on_control_tick(self, tick: ControlTick) -> None:
        cycle = self._require_cycle()
        signals = None
        if self._controller.control_policy.wants_signals:
            signals = self._build_control_signals()
        migrations = self._controller.rebalance(cycle.window_index, signals)
        self._register_migrations(migrations, tick.time)
        if self._control_interval is not None:
            self._calendar.schedule(ControlTick(time=tick.time + self._control_interval))

    def _build_control_signals(self) -> ControlSignals:
        """Snapshot the simulator state a signal-hungry policy acts on.

        Built per tick, and only when the installed policy declares
        ``wants_signals`` — the default greedy plane never pays for it.
        """
        inflight: Dict[str, Dict[str, InflightRetraining]] = {}
        for site_name, open_window in self._open_windows.items():
            entries = {
                stream: InflightRetraining(
                    stream=stream,
                    site=site_name,
                    expected_completion=completion,
                    alloc=open_window.alloc.get(stream, 0.0),
                    ready=open_window.ready.get(stream, open_window.start),
                    accelerable=stream in open_window.accelerable,
                    window_start=open_window.start,
                    window_end=open_window.end,
                )
                for stream, completion in open_window.expected.items()
            }
            # Planned retrainings that never fit the window have no
            # completion event (and no expected entry) but burn GPU to the
            # boundary regardless — exactly the jobs a predictive policy
            # most wants to see.  Exposed with an infinite completion: they
            # never pay this window.
            for stream in open_window.plan.pending_streams():
                if stream in entries:
                    continue
                planned = open_window.plan.streams[stream]
                if planned.decision.retraining_gpu <= 0:
                    continue
                ready = open_window.start + planned.retraining_start_offset
                if ready >= open_window.end:
                    continue  # never starts burning either
                entries[stream] = InflightRetraining(
                    stream=stream,
                    site=site_name,
                    expected_completion=float("inf"),
                    alloc=planned.decision.retraining_gpu,
                    ready=ready,
                    # No completion event exists to reschedule, so reclaimed
                    # capacity cannot flow *to* this job — only from it.
                    accelerable=False,
                    window_start=open_window.start,
                    window_end=open_window.end,
                )
            if entries:
                inflight[site_name] = entries
        return ControlSignals(
            now=self._calendar.now if self._calendar is not None else 0.0,
            transfer_arrivals=dict(self._transfer_arrival),
            inflight=inflight,
        )

    def _on_transfer_arrival(self, event: TransferArrival) -> None:
        # A later hop extends the stream's transfer past this (now stale)
        # arrival; only the final arrival clears the in-flight record.
        if self._transfer_arrival.get(event.stream) == event.time:
            del self._transfer_arrival[event.stream]

    def _on_transfer_failed(self, event: TransferFailed) -> None:
        """One WAN transfer attempt was lost; account it, and on a final
        checkpoint give-up restart the stream cold at its destination."""
        counters = self._fault_counters.setdefault(event.site, [0, 0, 0.0])
        counters[0] += 1
        if event.kind == "checkpoint" and not event.final:
            counters[1] += 1
        counters[2] += event.wasted_seconds
        if event.kind != "checkpoint" or not event.final:
            return
        # The give-up ends the stream's in-flight saga — unless a later hop
        # already superseded it (the record then points past this event and
        # the newer hop's outcome decides the stream's fate).
        if self._transfer_arrival.get(event.stream) != event.time:
            return
        del self._transfer_arrival[event.stream]
        # The destination never received the checkpoint: the stream's
        # serving-model state is lost and it restarts as freshly deployed,
        # paying its accumulated retraining benefit.
        self._controller.dynamics.invalidate_stream(event.stream)

    def _on_profile_push(self, event: ProfilePush) -> None:
        """A site's profiled curves finish their uplink crossing and merge."""
        sharing = self._controller.profile_sharing
        if sharing is None:  # pragma: no cover - pushes imply sharing is wired
            return
        for key, profile in event.profiles:
            sharing.store.push(key, profile, at_seconds=event.time)

    def _prepare_boundary(
        self, boundary: WindowBoundary
    ) -> Optional[Tuple[EdgeSite, FleetWindowResult, Optional[Dict[str, float]]]]:
        """Everything a boundary does *before* planning: settle the previous
        open window, schedule the next boundary, skip failed sites and charge
        pending WAN transfers.  Returns ``None`` when the site skips the
        window (failed), else the plan phase's inputs."""
        controller = self._controller
        site = controller.site(boundary.site)
        cycle = self._require_cycle()
        duration = site.spec.window_duration
        # The previous window must be fully settled (its dynamics committed)
        # before the next one queries them.
        self._settle_open_window(site.name)
        self._schedule_boundary(site, boundary.window_index + 1)
        if not site.healthy:
            cycle.failed_sites.append(site.name)
            return None
        delays = self._charge_transfers(site, boundary.time, duration)
        return site, cycle, delays

    def _collect_cohort(self, first: WindowBoundary) -> List[WindowBoundary]:
        """Pop every further ``WindowBoundary`` sharing ``first``'s instant."""
        calendar = self._calendar
        cohort = [first]
        while True:
            ahead = calendar.peek()
            if not isinstance(ahead, WindowBoundary) or ahead.time != first.time:
                break
            event = calendar.pop()
            self._telemetry.record_event(event)
            cohort.append(event)
        return cohort

    def _on_boundary_cohort(self, cohort: List[WindowBoundary]) -> None:
        """Plan one instant's boundary cohort (one or more sites) in one solve.

        Each boundary's prepare phase (settle, reschedule, transfer charges)
        and its request build — including every profiling side effect — run
        in pop order; only the pure solves are batched (plans commit
        nothing, so solving them ahead of the plan phases is unobservable).
        Plan phases then run in pop order, so events, stats and results
        land as if each site had planned alone.
        """
        prepared: List[
            Tuple[WindowBoundary, EdgeSite, FleetWindowResult, Optional[Dict[str, float]]]
        ] = []
        # Requests grouped by policy instance (make_fleet's sites share one,
        # so this is a single group); insertion order is pop order.
        groups: Dict[object, Dict[str, ScheduleRequest]] = {}
        for boundary in cohort:
            prep = self._prepare_boundary(boundary)
            if prep is None:
                continue
            site, cycle, delays = prep
            prepared.append((boundary, site, cycle, delays))
            request = site.prepare_window_request(boundary.window_index)
            if request is None:
                continue
            groups.setdefault(site.policy, {})[site.name] = request
        schedules: Dict[str, WindowSchedule] = {}
        for policy, requests in groups.items():
            schedules.update(policy.solve_cohort(requests))
        for boundary, site, cycle, delays in prepared:
            self._plan_site_window(site, boundary, cycle, delays, schedules.get(site.name))

    # ---------------------------------------------------------- site windows
    def _plan_site_window(
        self,
        site: EdgeSite,
        boundary: WindowBoundary,
        cycle: FleetWindowResult,
        delays: Optional[Dict[str, float]],
        preplanned: Optional[WindowSchedule],
    ) -> None:
        """Plan phase of a site window: schedule, then per-stream events.

        The cohort's schedule is placed, but nothing is realised yet: each
        stream whose retraining fits the window gets a
        :class:`~repro.fleet.calendar.RetrainingComplete` event at its
        absolute finish time, and the settle phase runs stream by stream as
        those events fire (or early, when a departure cancels).  Migration
        attribution is popped here, so WAN hops are charged to the window
        they delay.
        """
        plan = site.plan_window(
            boundary.window_index, retraining_delays=delays, preplanned=preplanned
        )
        if plan is None:
            return
        profiling = self._share_profiles(site, boundary)
        open_window = _OpenSiteWindow(
            site=site.name,
            window_index=boundary.window_index,
            start=boundary.time,
            # Multiplied from the origin — the *same float* as the next
            # boundary and as run_window's t_end.  An accumulated
            # ``boundary.time + duration`` can drift one ulp above it for
            # non-dyadic durations, and the flush's ``end <= t_end`` check
            # would then skip settling the final window (the same hazard
            # _site_window_time documents for boundary times).
            end=self._site_window_time(site, boundary.window_index + 1),
            plan=plan,
            cycle=cycle,
            profiling=profiling,
            migrations_stash={
                name: tuple(self._migrated_into.pop(name, ())) for name in plan.streams
            },
        )
        for name, offset in plan.completion_offsets().items():
            completion = boundary.time + offset
            planned = plan.streams[name]
            open_window.expected[name] = completion
            open_window.alloc[name] = planned.decision.retraining_gpu
            open_window.ready[name] = boundary.time + planned.retraining_start_offset
            if planned.allocation_driven:
                open_window.accelerable.add(name)
            self._calendar.schedule(
                RetrainingComplete(
                    time=completion,
                    site=site.name,
                    stream=name,
                    window_index=boundary.window_index,
                )
            )
        self._open_windows[site.name] = open_window

    def _on_retraining_complete(self, event: RetrainingComplete) -> None:
        """One stream's retraining finished: settle it at this very instant.

        Stale events — the window already closed, the retraining was
        cancelled, or a cancellation's reclaimed capacity rescheduled the
        completion earlier — are silent no-ops: only an event whose
        timestamp matches the stream's current expected completion fires.
        """
        open_window = self._open_windows.get(event.site)
        if open_window is None or open_window.window_index != event.window_index:
            return
        if open_window.expected.get(event.stream) != event.time:
            return
        del open_window.expected[event.stream]
        open_window.ready.pop(event.stream, None)
        open_window.accelerable.discard(event.stream)
        # The allocation the retraining actually ran at — the planned one
        # plus any capacity reclaimed from cancelled neighbours.
        retraining_gpu = open_window.alloc.pop(event.stream)
        override = open_window.overrides.pop(event.stream, None)
        site = self._controller.site(event.site)
        outcome = site.settle_stream(
            open_window.plan, event.stream, completion_offset=override
        )
        self._record_settled(open_window, event.stream, outcome)
        decision = open_window.plan.streams[event.stream].decision
        # Ekya's reaction to a finished retraining job: its GPUs flow back
        # to the stream's inference job (the estimator's Figure-4 model).
        self._calendar.schedule(
            InferenceReconfigured(
                time=event.time,
                site=event.site,
                stream=event.stream,
                inference_gpu=decision.inference_gpu + retraining_gpu,
                reason="retraining_complete",
            )
        )

    def _on_stream_departure(self, stream: str, source: str, reason: str) -> None:
        """A stream migrated or was evacuated away: preempt its retraining.

        Installed as the controller's departure hook.  Delegates to
        :meth:`_cancel_inflight_retraining` with the engine's historical
        ``"retraining_cancelled"`` reconfiguration reason.
        """
        self._cancel_inflight_retraining(source, stream, "retraining_cancelled")

    def _on_proactive_cancellation(
        self, source: str, stream: str, reason: str = "proactive_cancellation"
    ) -> bool:
        """The control plane asked for a cancellation (the controller's
        cancellation hook).  Unlike a departure, the proactive path may also
        kill retrainings that were planned past the window end — they have
        no completion event but burn GPU to the boundary regardless."""
        return self._cancel_inflight_retraining(
            source, stream, reason, allow_unscheduled=True
        )

    def _cancel_inflight_retraining(
        self,
        source: str,
        stream: str,
        reason: str = "proactive_cancellation",
        *,
        allow_unscheduled: bool = False,
    ) -> bool:
        """Cancel one in-flight retraining at ``source`` right now.

        The shared preemption core behind mid-window departures and the
        control plane's proactive cancellations
        (:meth:`~repro.fleet.controller.FleetController.
        request_cancellation`).  The stream settles with no retraining
        benefit, the work already burned is accounted as waste, the
        remaining GPU-seconds are reclaimed, and the freed allocation is
        split evenly across the site's surviving accelerable in-flight
        retrainings — each finishes earlier, its stale completion event
        superseded by a rescheduled one.  Idempotent: a stream with no
        in-flight retraining (none planned, already completed, or already
        cancelled by an earlier hop) is a no-op returning ``False``.
        """
        open_window = self._open_windows.get(source)
        if open_window is None:
            return False
        now = self._calendar.now
        expected = open_window.expected.pop(stream, None)
        if expected is not None:
            alloc = open_window.alloc.pop(stream)
            ready = open_window.ready.pop(stream, now)
        else:
            if not allow_unscheduled:
                return False
            planned = open_window.plan.streams.get(stream)
            if (
                planned is None
                or planned.decision.retraining_gpu <= 0
                or open_window.plan.settled(stream)
            ):
                return False
            alloc = planned.decision.retraining_gpu
            ready = open_window.start + planned.retraining_start_offset
            if ready >= open_window.end:
                return False  # never starts burning: nothing to cancel
            # Left alone, the job burns to the boundary and settles as pure
            # waste — so the boundary is its effective completion time for
            # both the burn already sunk and the reclaimable remainder.
            expected = open_window.end
        open_window.accelerable.discard(stream)
        open_window.overrides.pop(stream, None)
        # Reclaim only GPU work still to *burn*: a WAN-delayed retraining is
        # idle until its checkpoint arrives (``ready``), so the waiting
        # portion of its wall-clock time-to-completion is not work.  The
        # mirror-image burn — work already done and now written off — is the
        # cancellation's waste.
        remaining = max(0.0, expected - max(now, ready))
        reclaimed = remaining * alloc
        open_window.retrainings_cancelled += 1
        open_window.reclaimed_gpu_seconds += reclaimed
        open_window.wasted_gpu_seconds += max(0.0, min(now, expected) - ready) * alloc
        site = self._controller.site(source)
        outcome = site.settle_stream(open_window.plan, stream, cancelled=True)
        self._record_settled(open_window, stream, outcome)
        self._calendar.schedule(
            InferenceReconfigured(
                time=now,
                site=source,
                stream=stream,
                inference_gpu=0.0,
                reason=reason,
            )
        )
        # Only allocation-driven retrainings can absorb the freed capacity;
        # a fixed external completion (cloud offload) is not accelerable.
        beneficiaries = sorted(
            name
            for name, completion in open_window.expected.items()
            if completion > now and name in open_window.accelerable
        )
        if reclaimed <= 0 or not beneficiaries:
            return True
        share = alloc / len(beneficiaries)
        for name in beneficiaries:
            # The job runs only past max(now, ready): remaining work is the
            # burn from there, and the accelerated completion can never land
            # before the checkpoint the retraining is waiting on.
            effective_start = max(now, open_window.ready.get(name, now))
            remaining_work = (
                open_window.expected[name] - effective_start
            ) * open_window.alloc[name]
            new_alloc = open_window.alloc[name] + share
            new_completion = effective_start + remaining_work / new_alloc
            open_window.alloc[name] = new_alloc
            open_window.expected[name] = new_completion
            open_window.overrides[name] = new_completion - open_window.start
            self._calendar.schedule(
                RetrainingComplete(
                    time=new_completion,
                    site=source,
                    stream=name,
                    window_index=open_window.window_index,
                )
            )
        return True

    def _rescale_site_retrainings(
        self, site_name: str, old_capacity: int, new_capacity: int
    ) -> None:
        """Replan a site's in-flight retrainings after a capacity change
        (``GpuFailure`` / ``GpuRecovered`` mid-window).

        Every allocation-driven in-flight retraining keeps its share of the
        machine: its allocation scales by ``new/old`` capacity and its
        completion is rescheduled with remaining work conserved — later on a
        shrink (possibly past the window end, where it settles as not
        completed), earlier on a recovery.  Fixed external completions
        (cloud offload) are untouched.  A shrink to zero cancels everything
        in flight: with no GPUs there is nothing to finish on.  The site's
        next plan then sees the rebuilt server.
        """
        open_window = self._open_windows.get(site_name)
        if open_window is None:
            return
        now = self._calendar.now
        if new_capacity <= 0:
            site = self._controller.site(site_name)
            for name in sorted(open_window.expected):
                expected = open_window.expected[name]
                del open_window.expected[name]
                alloc = open_window.alloc.pop(name, 0.0)
                ready = open_window.ready.pop(name, now)
                open_window.accelerable.discard(name)
                open_window.overrides.pop(name, None)
                open_window.retrainings_cancelled += 1
                # The work burned so far dies with the GPUs — pure waste.
                open_window.wasted_gpu_seconds += (
                    max(0.0, min(now, expected) - ready) * alloc
                )
                outcome = site.settle_stream(open_window.plan, name, cancelled=True)
                self._record_settled(open_window, name, outcome)
                self._calendar.schedule(
                    InferenceReconfigured(
                        time=now,
                        site=site_name,
                        stream=name,
                        inference_gpu=0.0,
                        reason="gpu_failure",
                    )
                )
            return
        if old_capacity <= 0:
            # Recovering from a total GPU loss: everything in flight was
            # cancelled when capacity hit zero, so there is nothing to
            # rescale — the site's next boundary replans at full strength.
            return
        ratio = new_capacity / old_capacity
        for name in sorted(open_window.expected):
            if name not in open_window.accelerable:
                continue
            expected = open_window.expected[name]
            if expected <= now:
                continue
            effective_start = max(now, open_window.ready.get(name, now))
            remaining_work = (expected - effective_start) * open_window.alloc[name]
            new_alloc = open_window.alloc[name] * ratio
            new_completion = effective_start + remaining_work / new_alloc
            open_window.alloc[name] = new_alloc
            open_window.expected[name] = new_completion
            open_window.overrides[name] = new_completion - open_window.start
            self._calendar.schedule(
                RetrainingComplete(
                    time=new_completion,
                    site=site_name,
                    stream=name,
                    window_index=open_window.window_index,
                )
            )

    def _record_settled(
        self, open_window: _OpenSiteWindow, name: str, outcome: StreamWindowOutcome
    ) -> None:
        open_window.cycle.stream_outcomes[name] = FleetStreamOutcome(
            stream_name=name,
            site=open_window.site,
            outcome=outcome,
            migrations=open_window.migrations_stash.pop(name, ()),
        )

    def _settle_open_window(self, site_name: str) -> None:
        """Settle phase of a site window: close out whatever remains.

        Streams whose retraining completed (or was cancelled) are already
        settled; everything else — no retraining planned, or one that never
        fit the window — settles with its planned estimate.  Site results
        and stats land in the cycle the window was planned in.
        """
        open_window = self._open_windows.pop(site_name, None)
        if open_window is None:
            return
        site = self._controller.site(site_name)
        plan = open_window.plan
        for name in plan.pending_streams():
            outcome = site.settle_stream(
                plan, name, completion_offset=open_window.overrides.pop(name, None)
            )
            self._record_settled(open_window, name, outcome)
            # A retraining that burned local GPU all window without landing
            # (planned past the end, or rescheduled past it by a capacity
            # shrink) paid for nothing: charge its burn as waste.
            planned = plan.streams[name]
            if planned.decision.retraining_gpu > 0 and not outcome.retraining_completed:
                ready = open_window.ready.get(
                    name, open_window.start + planned.retraining_start_offset
                )
                alloc = open_window.alloc.get(name, planned.decision.retraining_gpu)
                open_window.wasted_gpu_seconds += (
                    max(0.0, open_window.end - ready) * alloc
                )
        open_window.expected.clear()
        open_window.alloc.clear()
        open_window.ready.clear()
        open_window.accelerable.clear()
        result = plan.result
        cost, saved = open_window.profiling
        # WAN faults that fired during this window land in its stats row.
        failed, retries, wasted = self._fault_counters.pop(site_name, (0, 0, 0.0))
        open_window.cycle.site_results[site_name] = result
        # Plan order, not completion order, so the site mean does not depend
        # on when its streams settled.
        accuracies = {
            name: result.outcomes[name].realized_average_accuracy for name in plan.streams
        }
        self._telemetry.record_site_stats(
            open_window.cycle,
            site=site_name,
            num_streams=len(plan.streams),
            utilization=gpu_utilization(
                result.schedule.total_gpu_allocated, site.spec.num_gpus
            ),
            allocation_loss=result.allocation_loss,
            mean_accuracy=safe_mean(list(accuracies.values())),
            scheduler_runtime_seconds=result.schedule.scheduler_runtime_seconds,
            profiling_gpu_seconds=cost,
            profiling_gpu_seconds_saved=saved,
            retrainings_cancelled=open_window.retrainings_cancelled,
            reclaimed_gpu_seconds=open_window.reclaimed_gpu_seconds,
            wasted_gpu_seconds=open_window.wasted_gpu_seconds,
            transfers_failed=failed,
            transfer_retries=retries,
            retry_seconds=wasted,
        )
        self._telemetry.observe_streams(open_window.window_index, accuracies)

    # ------------------------------------------------------- profile sharing
    def _share_profiles(self, site: EdgeSite, boundary: WindowBoundary):
        """Account this window's profiling and push its curves fleet-wide.

        Returns the ``(profiling_gpu_seconds, profiling_gpu_seconds_saved)``
        pair for the site's :class:`~repro.fleet.metrics.SiteWindowStats`.
        With sharing enabled, the window's freshly profiled curves are
        batched into one :class:`~repro.fleet.calendar.ProfilePush` whose
        arrival time pays the site's *current* uplink for the summed
        per-stream payload — a WAN-degraded site's curves land late, so
        neighbours warm-start from whatever has actually arrived.
        """
        sharing = self._controller.profile_sharing
        if sharing is None:
            return 0.0, 0.0
        cost = saved = 0.0
        pushes = []
        for name in site.stream_names:
            profile = sharing.source.local_store.maybe_get(name, boundary.window_index)
            if profile is None:
                continue
            cost += profile.profiling_gpu_seconds
            saved += sharing.source.pop_saved(name, boundary.window_index)
            pushes.append((stream_profile_key(site.server.stream(name)), profile))
        if pushes:
            payload = sharing.payload_mbits_per_stream * len(pushes)
            arrival = boundary.time + site.link.upload_seconds(payload)
            if self._wan_faults is not None and self._fault_rng.random() < combined_loss(
                self._wan_faults.effective_push_loss_rate, site.link.loss_rate
            ):
                # The batched push is lost outright — no retry; neighbours
                # silently fall back to whatever curves already arrived.
                self._calendar.schedule(
                    TransferFailed(
                        time=arrival,
                        stream="",
                        site=site.name,
                        kind="profile_push",
                        attempt=1,
                        wasted_seconds=arrival - boundary.time,
                        final=True,
                    )
                )
            else:
                self._calendar.schedule(
                    ProfilePush(time=arrival, site=site.name, profiles=tuple(pushes))
                )
        return cost, saved

    # ------------------------------------------------------------- transfers
    def _register_migrations(self, migrations: List[MigrationEvent], time: float) -> None:
        """Record migrations and schedule their checkpoints' WAN arrivals.

        A stream can move more than once at one instant (evacuation, then the
        survivor rebalances it away again) — it pays every hop: transfers
        chain, so its checkpoint arrives after the *summed* transfer time,
        on top of anything still in flight from an earlier migration.
        """
        cycle = self._require_cycle()
        for event in migrations:
            cycle.migrations.append(event)
            self._migrated_into.setdefault(event.stream_name, []).append(event)
            self._telemetry.record_event(MigrationStarted(time=time, migration=event))
            departed = max(self._transfer_arrival.get(event.stream_name, time), time)
            if self._wan_faults is None:
                arrival = departed + event.transfer_seconds
                effective_seconds = event.transfer_seconds
                self._calendar.schedule(
                    TransferArrival(time=arrival, stream=event.stream_name)
                )
            else:
                # Compose the model's base loss with both endpoints' link
                # loss; sample the whole retry saga now (draws happen in
                # event order, so a fixed seed replays bit for bit) and
                # schedule every attempt's failure plus the final arrival.
                loss = combined_loss(
                    self._wan_faults.loss_rate,
                    self._controller.site(event.source).link.loss_rate,
                    self._controller.site(event.destination).link.loss_rate,
                )
                outcome = sample_transfer(
                    self._fault_rng,
                    departed=departed,
                    transfer_seconds=event.transfer_seconds,
                    loss_rate=loss,
                    model=self._wan_faults,
                )
                for failure in outcome.failures:
                    self._calendar.schedule(
                        TransferFailed(
                            time=failure.failed_at,
                            stream=event.stream_name,
                            site=event.destination,
                            kind="checkpoint",
                            attempt=failure.attempt,
                            wasted_seconds=failure.wasted_seconds,
                            final=failure.final,
                        )
                    )
                arrival = outcome.ends_at
                effective_seconds = arrival - departed
                if outcome.delivered:
                    self._calendar.schedule(
                        TransferArrival(time=arrival, stream=event.stream_name)
                    )
            self._transfer_arrival[event.stream_name] = arrival
            # Anchor the hop to the destination's next window boundary: a hop
            # departing at (or after) that boundary charges its full transfer
            # there; one already in flight when the window starts charges only
            # the part still remaining (arrival - boundary).  ``departed``,
            # not the registration time, is what matters — a hop queued
            # behind an earlier transfer has not started yet, so no wall
            # time is credited against it.
            next_boundary = self._site_next_boundary.get(event.destination, time)
            self._transfer_hops[event.stream_name] = self._transfer_hops.get(
                event.stream_name, 0.0
            ) + (
                effective_seconds
                if next_boundary <= departed
                else max(0.0, arrival - next_boundary)
            )

    def _charge_transfers(
        self, site: EdgeSite, time: float, duration: float
    ) -> Optional[Dict[str, float]]:
        """Retraining delays this window pays for its streams' WAN transfers.

        Each delay is carried-over time from earlier windows plus the hops
        anchored to this boundary; whatever exceeds this window's duration
        carries over to the site's next boundary, so a checkpoint taking 2.5
        windows to arrive delays retraining in all three.
        """
        delays: Dict[str, float] = {}
        for name in site.stream_names:
            hops = self._transfer_hops.pop(name, None)
            carry = self._transfer_carry.get(name)
            if hops is None and carry is None:
                continue
            delay = (carry or 0.0) + (hops or 0.0)
            if delay > duration:
                self._transfer_carry[name] = delay - duration
            else:
                self._transfer_carry.pop(name, None)
            if delay > 0:
                delays[name] = delay
        return delays or None
