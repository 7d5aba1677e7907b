"""Injected scenario events for fleet simulations.

A :class:`Scenario` is a declarative list of events on the fleet's simulated
timeline.  Since the :class:`~repro.fleet.calendar.EventCalendar` redesign,
events are **time-indexed**: each event fires at an absolute simulated time
in seconds (``at_seconds``), and expiries (``recovery_at`` / ``until_at``)
are absolute times too, so events can fire mid-window and sites with
different ``window_duration`` s share one scenario.  The window-indexed
constructors from the shared-window-index API (``window``,
``recovery_window``, ``until_window``) are kept for back-compatibility: a
window-indexed event is resolved to seconds against the fleet's shared
window duration, and therefore requires a homogeneous-window fleet.

* :class:`FlashCrowd` — a burst of new streams arrives and must be admitted
  (optionally aimed at one site, e.g. a stadium camera cluster coming online).
* :class:`SiteFailure` — a site goes dark; its streams are force-evacuated to
  the surviving sites, paying full migration cost, and the site optionally
  comes back at ``recovery_at`` / ``recovery_window``.
* :class:`WanDegradation` — a site's WAN bandwidth is scaled down (congestion,
  backhaul fault), making migrations in and out of it more expensive, until
  an optional ``until_at`` / ``until_window``.
* :class:`GpuFailure` — ``num_gpus`` of a site's GPUs fail (partial site
  degradation: the site keeps running on its remaining capacity instead of
  going dark), optionally recovering at ``recovery_at`` / ``recovery_window``.
  Losses stack: the failure removes up to ``num_gpus`` from whatever
  capacity is currently left, and its recovery restores exactly the count
  it took.

Every event is validated at construction (negative or non-finite times,
expiry not after the trigger) and again when handed to a
:class:`~repro.fleet.simulator.FleetSimulator`, which checks the named sites
exist and that window-indexed events are only used on homogeneous fleets —
a bad scenario fails up front, not windows into a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, List, Optional, Union

from ..exceptions import FleetError


def _validate_trigger(event: "ScenarioEvent") -> None:
    """Shared trigger-field validation: exactly one of window / at_seconds."""
    if (event.window is None) == (event.at_seconds is None):
        raise FleetError(
            f"{type(event).__name__} needs exactly one of window= (window-indexed, "
            f"homogeneous fleets only) or at_seconds= (time-indexed)"
        )
    if event.window is not None and not 0 <= event.window < math.inf:
        raise FleetError(f"event window must be finite and non-negative, got {event.window}")
    if event.at_seconds is not None and not 0 <= event.at_seconds < math.inf:
        raise FleetError(
            f"event at_seconds must be finite and non-negative, got {event.at_seconds}"
        )


def _validate_expiry(
    event: "ScenarioEvent",
    expiry_window: Optional[int],
    expiry_at: Optional[float],
    label: str,
) -> None:
    """Expiries must use the trigger's indexing scheme and come after it."""
    if expiry_window is not None and expiry_at is not None:
        raise FleetError(f"give {label}_window or {label}_at, not both")
    if expiry_window is not None:
        if event.window is None:
            raise FleetError(
                f"{label}_window only combines with a window-indexed trigger; "
                f"use {label}_at with at_seconds"
            )
        if not event.window < expiry_window < math.inf:
            raise FleetError(f"{label}_window must be finite and after the trigger window")
    if expiry_at is not None:
        if event.at_seconds is None:
            raise FleetError(
                f"{label}_at only combines with a time-indexed trigger; "
                f"use {label}_window with window="
            )
        if not event.at_seconds < expiry_at < math.inf:
            raise FleetError(
                f"{label}_at must be finite and after the trigger time, got {expiry_at}"
            )


class _TimedEvent:
    """Mixin resolving window-indexed fields to absolute simulated seconds."""

    @property
    def is_time_indexed(self) -> bool:
        return self.at_seconds is not None

    def trigger_seconds(self, window_duration: Optional[float]) -> float:
        """Absolute firing time; window-indexed events need the shared duration."""
        if self.at_seconds is not None:
            return float(self.at_seconds)
        if window_duration is None:
            raise FleetError(
                f"window-indexed {type(self).__name__} needs a shared window "
                f"duration; use at_seconds= on heterogeneous-window fleets"
            )
        return self.window * window_duration

    @staticmethod
    def _resolve(
        expiry_window: Optional[int],
        expiry_at: Optional[float],
        window_duration: Optional[float],
    ) -> Optional[float]:
        if expiry_at is not None:
            return float(expiry_at)
        if expiry_window is None:
            return None
        return expiry_window * window_duration


@dataclass(frozen=True)
class FlashCrowd(_TimedEvent):
    """``num_streams`` new streams of ``dataset`` arrive at the trigger time."""

    window: Optional[int] = None
    num_streams: int = 1
    dataset: str = "cityscapes"
    #: Admit all arrivals to this site instead of asking the admission policy
    #: (models a geographically pinned burst).  ``None`` = policy decides.
    site: Optional[str] = None
    at_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if self.num_streams < 1:
            raise FleetError("a flash crowd needs at least one stream")


@dataclass(frozen=True)
class SiteFailure(_TimedEvent):
    """Site ``site`` fails at the trigger time and optionally recovers later."""

    window: Optional[int] = None
    site: str = ""
    recovery_window: Optional[int] = None
    at_seconds: Optional[float] = None
    recovery_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("SiteFailure needs a site name")
        _validate_expiry(self, self.recovery_window, self.recovery_at, "recovery")

    def recovery_seconds(self, window_duration: Optional[float]) -> Optional[float]:
        """Absolute recovery time, or ``None`` if the site stays down."""
        return self._resolve(self.recovery_window, self.recovery_at, window_duration)


@dataclass(frozen=True)
class WanDegradation(_TimedEvent):
    """Scale ``site``'s WAN bandwidth by the given factors from the trigger on.

    Factors apply to the site's *provisioned* link, so a later degradation on
    the same site replaces (does not compose with) an earlier one, and the
    latest event's expiry is the one that restores the link.
    """

    window: Optional[int] = None
    site: str = ""
    uplink_factor: float = 1.0
    downlink_factor: float = 1.0
    #: When the link returns to its provisioned bandwidth (``None`` =
    #: degraded for the rest of the run).
    until_window: Optional[int] = None
    at_seconds: Optional[float] = None
    until_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("WanDegradation needs a site name")
        if not (0 < self.uplink_factor < math.inf and 0 < self.downlink_factor < math.inf):
            raise FleetError("bandwidth factors must be positive and finite")
        _validate_expiry(self, self.until_window, self.until_at, "until")

    def until_seconds(self, window_duration: Optional[float]) -> Optional[float]:
        """Absolute restore time, or ``None`` if degraded for the whole run."""
        return self._resolve(self.until_window, self.until_at, window_duration)


@dataclass(frozen=True)
class GpuFailure(_TimedEvent):
    """``num_gpus`` of ``site``'s GPUs fail at the trigger time.

    Partial degradation, not all-or-nothing: the site stays healthy and
    keeps serving its streams on the remaining capacity (a site down to
    zero effective GPUs skips windows entirely until a recovery).  Fleets
    with ``preemptive_sites=True`` rescale their in-flight retrainings at
    the failure instant; boundary-settled sites replan at their next
    window boundary.
    """

    window: Optional[int] = None
    site: str = ""
    num_gpus: int = 1
    recovery_window: Optional[int] = None
    at_seconds: Optional[float] = None
    recovery_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("GpuFailure needs a site name")
        if self.num_gpus < 1:
            raise FleetError("GpuFailure needs num_gpus >= 1")
        _validate_expiry(self, self.recovery_window, self.recovery_at, "recovery")

    def recovery_seconds(self, window_duration: Optional[float]) -> Optional[float]:
        """Absolute recovery time, or ``None`` if the GPUs stay down."""
        return self._resolve(self.recovery_window, self.recovery_at, window_duration)


ScenarioEvent = Union[FlashCrowd, SiteFailure, WanDegradation, GpuFailure]


@dataclass
class Scenario:
    """An ordered collection of scenario events on the fleet timeline."""

    events: List[ScenarioEvent] = field(default_factory=list)

    def validate(
        self,
        site_names: Collection[str],
        *,
        require_time_indexed: bool = False,
    ) -> None:
        """Fail fast on events that could only break windows into a run.

        Checks every event that names a site against ``site_names`` and,
        when ``require_time_indexed`` (heterogeneous-window fleets, where a
        shared window index does not exist), rejects window-indexed events.
        """
        known = set(site_names)
        for event in self.events:
            site = getattr(event, "site", None)
            if site and site not in known:
                raise FleetError(
                    f"{type(event).__name__} names unknown site {site!r}; "
                    f"fleet sites are {sorted(known)}"
                )
            if require_time_indexed and not event.is_time_indexed:
                raise FleetError(
                    f"window-indexed {type(event).__name__} cannot run on a "
                    f"heterogeneous-window fleet; use at_seconds="
                )

    def events_at(self, window_index: int) -> List[ScenarioEvent]:
        """Window-indexed events firing at ``window_index``, in listed order.

        Back-compatibility helper from the shared-window-index API; purely
        time-indexed events never match.
        """
        return [event for event in self.events if event.window == window_index]
