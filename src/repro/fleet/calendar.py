"""The discrete-event spine of the fleet simulation.

PR 2 keyed every cross-site mechanism (scenario triggers, migrations,
rebalancing, recovery expiries) to one shared integer window index, which
forced all sites onto the same ``window_duration`` and all control decisions
onto window boundaries.  This module replaces that with the classic
discrete-event design (NS-2's scheduler/handler decomposition): an
:class:`EventCalendar` owns simulated time as a heap of
``(time, priority, seq)``-ordered :class:`SimEvent` s, and the
:class:`~repro.fleet.simulator.FleetSimulator` is a loop that pops the next
event and dispatches it to a handler.

Event hierarchy (all timestamped in absolute simulated seconds):

* :class:`SiteRecovery` / :class:`WanRestore` — expiry of a scenario effect;
  fires only if the scheduling scenario event still *owns* the site's state
  (a later failure/degradation supersedes an earlier one's expiry).
  :class:`GpuRecovered` shares the slot: ``k`` of a site's GPUs return to
  service.  GPU losses *stack* (two failures of one GPU each leave the site
  two short), so recoveries restore counts rather than ownership and are
  never stale.
* :class:`ScenarioTrigger` — an injected
  :class:`~repro.fleet.scenarios.Scenario` event fires (flash crowd, site
  failure, WAN degradation, GPU failure) at its absolute ``at_seconds``.
* :class:`TransferArrival` — a migrating stream's checkpoint + profile
  finishes its WAN transfer.  Replaces PR 2's carryover-delay dict: the
  arrival is an absolute timestamp, so it can land mid-window and a window
  execution only pays the *remaining* transfer time.
* :class:`TransferFailed` — one attempt of a WAN transfer was lost in
  flight (fleets built with ``make_fleet(wan_faults=...)`` only).  Shares
  the arrival slot: at one instant a transfer either lands or fails, never
  both, and both outcomes must be observed before same-instant pushes and
  control.  A ``final`` checkpoint failure is the give-up after the retry
  budget — the stream restarts cold at its destination; a ``final``
  profile-push failure just drops the batch (no retry).
* :class:`RetrainingComplete` — one stream's in-flight retraining reaches
  its absolute finish time (sites plan each window at its boundary and
  settle every stream's retraining at its own completion event, so the
  control plane can cancel a retraining mid-window).  After transfer
  arrivals (a checkpoint landing at the same instant is observed first) and
  before profile pushes and control ticks — a same-instant rebalance
  already sees the completed model.
* :class:`InferenceReconfigured` — a stream's inference serving path
  changed allocation mid-window: the GPUs freed by a completed retraining
  flowed back to its inference job, or a cancellation handed the freed
  capacity to the site's surviving in-flight retrainings.  Scheduled at the
  instant of the change, directly after the :class:`RetrainingComplete`
  slot, so the trace reads completion → reconfiguration.
* :class:`ProfilePush` — a site's micro-profiled curves land in the
  fleet-wide :class:`~repro.profiles.fleet_store.FleetProfileStore` after
  crossing the site's WAN uplink (cross-site profile sharing; scheduled
  only when sharing is enabled).  Ordered after transfer arrivals — a
  checkpoint landing at the same instant is observed first — and before
  control ticks, so admission at the same instant already sees the pushed
  curves.
* :class:`ControlTick` — the fleet controller runs admission/rebalancing.
  By default ticks coincide with window boundaries (PR-2 behaviour); an
  explicit ``control_interval`` decouples them entirely (the async fleet
  control plane).
* :class:`WindowBoundary` — one site starts its next retraining window.
  Per-site, so every :class:`~repro.fleet.site.SiteSpec` can have its own
  ``window_duration``.

At equal timestamps the class priority above (smaller fires first) fixes the
semantic order — restore, trigger, arrivals, completions, reconfigurations,
pushes, control, windows — and the monotonically increasing sequence number
makes ties within a priority fire in scheduling order, so event processing
is deterministic across runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from ..exceptions import FleetError
from .migration import MigrationEvent
from .scenarios import ScenarioEvent


@dataclass(frozen=True)
class SimEvent:
    """Base class of everything the calendar can schedule.

    ``priority`` orders events that share a timestamp (smaller fires first);
    it is a class attribute, not per-instance state, because the ordering is
    semantic — e.g. a transfer arriving exactly at a window boundary must be
    observed *before* that window plans its retraining.
    """

    time: float
    priority: ClassVar[int] = 99

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FleetError("event time must be non-negative")

    def describe(self) -> str:
        """One-line human-readable form (used by the example's event trace)."""
        return f"t={self.time:8.1f}s  {type(self).__name__}"


@dataclass(frozen=True)
class SiteRecovery(SimEvent):
    """A failed site comes back, if ``owner`` still owns its failure state."""

    priority: ClassVar[int] = 0
    site: str = ""
    #: The scenario event that scheduled this expiry.  A later failure of the
    #: same site takes ownership and this expiry becomes a no-op.
    owner: object = None

    def describe(self) -> str:
        return f"{super().describe()}  site={self.site}"


@dataclass(frozen=True)
class WanRestore(SimEvent):
    """A degraded WAN link returns to provisioned bandwidth (same ownership)."""

    priority: ClassVar[int] = 0
    site: str = ""
    owner: object = None

    def describe(self) -> str:
        return f"{super().describe()}  site={self.site}"


@dataclass(frozen=True)
class GpuRecovered(SimEvent):
    """``num_gpus`` of a site's failed GPUs return to service.

    Scheduled by a :class:`~repro.fleet.scenarios.GpuFailure` with a
    recovery time, carrying the GPU count that failure actually took away.
    Unlike :class:`SiteRecovery` there is no ownership guard: losses stack
    (each failure removes up to ``num_gpus`` more from whatever capacity is
    left), so each recovery restores its own count and can never be stale —
    restoration is clamped to the GPUs currently lost.
    """

    priority: ClassVar[int] = 0
    site: str = ""
    num_gpus: int = 1

    def describe(self) -> str:
        return f"{super().describe()}  site={self.site} gpus={self.num_gpus}"


@dataclass(frozen=True)
class ScenarioTrigger(SimEvent):
    """An injected scenario event fires at its resolved absolute time."""

    priority: ClassVar[int] = 1
    event: Optional[ScenarioEvent] = None

    def describe(self) -> str:
        return f"{super().describe()}  {type(self.event).__name__}"


@dataclass(frozen=True)
class TransferArrival(SimEvent):
    """A migrating stream's checkpoint + profile finishes its WAN transfer."""

    priority: ClassVar[int] = 2
    stream: str = ""

    def describe(self) -> str:
        return f"{super().describe()}  stream={self.stream}"


@dataclass(frozen=True)
class TransferFailed(SimEvent):
    """One attempt of a WAN transfer was lost in flight.

    Scheduled only by fleets built with ``make_fleet(wan_faults=...)``.
    ``kind`` distinguishes the two payloads: ``"checkpoint"`` failures
    belong to a migrating stream's retry chain (``site`` is the
    destination; a ``final`` failure is the give-up that restarts the
    stream cold there), while ``"profile_push"`` failures drop a site's
    whole pushed curve batch with no retry (``site`` is the source and the
    event is always ``final``).  Shares the :class:`TransferArrival`
    priority: at one instant a transfer either lands or fails, never both.
    """

    priority: ClassVar[int] = 2
    stream: str = ""
    site: str = ""
    kind: str = "checkpoint"
    attempt: int = 1
    wasted_seconds: float = 0.0
    final: bool = False

    def describe(self) -> str:
        label = self.stream if self.kind == "checkpoint" else self.kind
        tail = " GIVE-UP" if self.final and self.kind == "checkpoint" else ""
        return (
            f"{super().describe()}  {label} site={self.site} "
            f"attempt={self.attempt}{tail}"
        )


@dataclass(frozen=True)
class RetrainingComplete(SimEvent):
    """One stream's in-flight retraining reaches its absolute finish time.

    Scheduled when a site's window is planned at its boundary:
    each stream whose retraining fits the window gets one completion event
    at ``boundary + retraining_duration``.  The handler settles the stream —
    realises its window outcome and commits the retrained model to the
    dynamics — at that instant instead of at the next boundary.  The event
    is *stale* (a silent no-op) when the retraining was cancelled by a
    migration or evacuation, or rescheduled earlier after a cancellation
    reclaimed GPU capacity for it; the current expected completion time is
    the one that fires.
    """

    priority: ClassVar[int] = 3
    site: str = ""
    stream: str = ""
    window_index: int = 0

    def describe(self) -> str:
        return f"{super().describe()}  site={self.site} stream={self.stream}"


@dataclass(frozen=True)
class InferenceReconfigured(SimEvent):
    """A stream's inference serving path changed allocation mid-window.

    Two reasons, mirroring how Ekya re-runs its scheduler when a retraining
    job leaves the GPU:

    * ``"retraining_complete"`` — the stream's retraining finished and its
      freed GPUs flowed back to the inference job (``inference_gpu`` is the
      new post-retraining allocation, the Figure-4 model).
    * ``"retraining_cancelled"`` — the stream migrated away mid-window and
      its in-flight retraining was cancelled; the reclaimed capacity went to
      the site's surviving in-flight retrainings (``inference_gpu`` is 0.0 —
      the departed stream no longer serves at this site).
    """

    priority: ClassVar[int] = 4
    site: str = ""
    stream: str = ""
    inference_gpu: float = 0.0
    reason: str = "retraining_complete"

    def describe(self) -> str:
        return (
            f"{super().describe()}  site={self.site} stream={self.stream} "
            f"gpu={self.inference_gpu:.2f} ({self.reason})"
        )


@dataclass(frozen=True)
class ProfilePush(SimEvent):
    """One site's profiled curves arrive at the fleet-wide profile store.

    ``profiles`` carries ``(key, profile)`` pairs — the
    ``(dataset, drift-regime)`` fleet-store key and the pushed
    :class:`~repro.profiles.profile.StreamWindowProfile` — batched per site
    and window.  The event's time is the push's *arrival*: departure (the
    site's window boundary) plus the upload time of the profile payload over
    the site's current uplink, so a WAN-degraded site contributes stale
    curves.
    """

    priority: ClassVar[int] = 5
    site: str = ""
    profiles: Tuple = ()

    def describe(self) -> str:
        return f"{super().describe()}  site={self.site} profiles={len(self.profiles)}"


@dataclass(frozen=True)
class ControlTick(SimEvent):
    """The fleet controller makes its admission/rebalancing decisions."""

    priority: ClassVar[int] = 6


@dataclass(frozen=True)
class WindowBoundary(SimEvent):
    """One site starts retraining window ``window_index`` at ``time``."""

    priority: ClassVar[int] = 7
    site: str = ""
    window_index: int = 0

    def describe(self) -> str:
        return f"{super().describe()}  site={self.site} window={self.window_index}"


@dataclass(frozen=True)
class MigrationStarted(SimEvent):
    """Trace-only marker: a stream hand-off began (never scheduled)."""

    priority: ClassVar[int] = 1
    migration: Optional[MigrationEvent] = None

    def describe(self) -> str:
        m = self.migration
        return (
            f"{super().describe()}  {m.stream_name} {m.source}->{m.destination} "
            f"({m.reason}, {m.transfer_seconds:.1f}s transfer)"
        )


@dataclass
class EventCalendar:
    """A heap of timestamped events owning the fleet's simulated clock.

    Events pop in ``(time, priority, seq)`` order: earliest first, semantic
    priority breaking timestamp ties, scheduling order breaking the rest —
    fully deterministic for a given schedule sequence.  Scheduling into the
    past is an error: popped time is the simulation's ``now`` and never moves
    backwards.
    """

    start_time: float = 0.0
    _heap: List[Tuple[float, int, int, SimEvent]] = field(default_factory=list)
    _seq: int = 0
    _now: float = field(init=False)

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise FleetError("start_time must be non-negative")
        self._now = float(self.start_time)

    @property
    def now(self) -> float:
        """Current simulated time: the timestamp of the last popped event."""
        return self._now

    def schedule(self, event: SimEvent) -> SimEvent:
        """Add ``event`` to the calendar; returns it for chaining.

        A non-finite time is rejected: NaN would pass every ordering check
        and land at an undefined heap position, infinity would never fire.
        """
        if not math.isfinite(event.time):
            raise FleetError(
                f"cannot schedule {type(event).__name__} at t={event.time}: "
                "event times must be finite"
            )
        if event.time < self._now:
            raise FleetError(
                f"cannot schedule {type(event).__name__} at t={event.time:g}s: "
                f"simulated time is already {self._now:g}s"
            )
        heapq.heappush(self._heap, (event.time, event.priority, self._seq, event))
        self._seq += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or ``None`` when the calendar is empty."""
        return self._heap[0][0] if self._heap else None

    def peek(self) -> Optional[SimEvent]:
        """The next event without popping it, or ``None`` when empty.

        Lets the fleet's event loop collect a whole cohort of same-instant
        :class:`WindowBoundary` events (they are contiguous at the head:
        nothing else shares their priority) before dispatching.
        """
        return self._heap[0][3] if self._heap else None

    def pop(self) -> SimEvent:
        """Remove and return the next event, advancing simulated time to it."""
        if not self._heap:
            raise FleetError("cannot pop from an empty event calendar")
        time, _, _, event = heapq.heappop(self._heap)
        self._now = time
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
