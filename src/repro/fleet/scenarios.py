"""Injected scenario events for fleet simulations.

A :class:`Scenario` is a declarative list of events on the fleet's simulated
timeline.  Every event fires at an absolute simulated time in seconds
(``at_seconds``), and expiries (``recovery_at`` / ``until_at``) are absolute
times too, so events can fire mid-window and sites with different
``window_duration`` s share one scenario.

* :class:`FlashCrowd` — a burst of new streams arrives and must be admitted
  (optionally aimed at one site, e.g. a stadium camera cluster coming online).
* :class:`SiteFailure` — a site goes dark; its streams are force-evacuated to
  the surviving sites, paying full migration cost, and the site optionally
  comes back at ``recovery_at``.
* :class:`WanDegradation` — a site's WAN bandwidth is scaled down (congestion,
  backhaul fault), making migrations in and out of it more expensive, until
  an optional ``until_at``.
* :class:`GpuFailure` — ``num_gpus`` of a site's GPUs fail (partial site
  degradation: the site keeps running on its remaining capacity instead of
  going dark), optionally recovering at ``recovery_at``.  Losses stack: the
  failure removes up to ``num_gpus`` from whatever capacity is currently
  left, and its recovery restores exactly the count it took.

Every event is validated at construction (missing, negative or non-finite
times, expiry not after the trigger, counts that are not whole numbers, an
unknown flash-crowd dataset) and again when handed to a
:class:`~repro.fleet.simulator.FleetSimulator`, which checks the named sites
exist — a bad scenario fails up front, not windows into a run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Collection, List, Optional, Union

from ..datasets.generators import dataset_spec
from ..exceptions import DatasetError, FleetError


def _validate_trigger(event: "ScenarioEvent") -> None:
    """Every event needs a finite, non-negative ``at_seconds``."""
    if event.at_seconds is None or not 0 <= event.at_seconds < math.inf:
        raise FleetError(
            f"{type(event).__name__} needs a finite, non-negative at_seconds=, "
            f"got {event.at_seconds}"
        )


def _validate_expiry(event: "ScenarioEvent", expiry_at: Optional[float], label: str) -> None:
    """An expiry, when given, must be finite and after the trigger."""
    if expiry_at is not None and not event.at_seconds < expiry_at < math.inf:
        raise FleetError(f"{label} must be finite and after the trigger time, got {expiry_at}")


def _validate_count(event: "ScenarioEvent", label: str) -> None:
    """NaN passes a bare ``< 1`` check and 2.5 reaches ``range()``; only a
    whole count of at least one is an event."""
    value = getattr(event, label)
    if not isinstance(value, numbers.Integral) or value < 1:
        raise FleetError(f"{type(event).__name__} needs an integer {label} >= 1, got {value}")


@dataclass(frozen=True)
class FlashCrowd:
    """``num_streams`` new streams of ``dataset`` arrive at ``at_seconds``."""

    num_streams: int = 1
    dataset: str = "cityscapes"
    #: Admit all arrivals to this site instead of asking the admission policy
    #: (models a geographically pinned burst).  ``None`` = policy decides.
    site: Optional[str] = None
    at_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        _validate_count(self, "num_streams")
        try:
            dataset_spec(self.dataset)
        except DatasetError as exc:
            raise FleetError(f"FlashCrowd: {exc}") from exc


@dataclass(frozen=True)
class SiteFailure:
    """Site ``site`` fails at ``at_seconds`` and optionally recovers at
    ``recovery_at`` (``None`` = the site stays down)."""

    site: str = ""
    at_seconds: Optional[float] = None
    recovery_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("SiteFailure needs a site name")
        _validate_expiry(self, self.recovery_at, "recovery_at")


@dataclass(frozen=True)
class WanDegradation:
    """Scale ``site``'s WAN bandwidth by the given factors from the trigger on.

    Factors apply to the site's *provisioned* link, so a later degradation on
    the same site replaces (does not compose with) an earlier one, and the
    latest event's expiry is the one that restores the link.
    """

    site: str = ""
    uplink_factor: float = 1.0
    downlink_factor: float = 1.0
    at_seconds: Optional[float] = None
    #: When the link returns to its provisioned bandwidth (``None`` =
    #: degraded for the rest of the run).
    until_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("WanDegradation needs a site name")
        if not (0 < self.uplink_factor < math.inf and 0 < self.downlink_factor < math.inf):
            raise FleetError("bandwidth factors must be positive and finite")
        _validate_expiry(self, self.until_at, "until_at")


@dataclass(frozen=True)
class GpuFailure:
    """``num_gpus`` of ``site``'s GPUs fail at ``at_seconds``.

    Partial degradation, not all-or-nothing: the site stays healthy and
    keeps serving its streams on the remaining capacity (a site down to
    zero effective GPUs skips windows entirely until a recovery).  The
    site's in-flight retrainings are rescaled at the failure instant, and
    again at ``recovery_at`` (``None`` = the GPUs stay down).
    """

    site: str = ""
    num_gpus: int = 1
    at_seconds: Optional[float] = None
    recovery_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("GpuFailure needs a site name")
        _validate_count(self, "num_gpus")
        _validate_expiry(self, self.recovery_at, "recovery_at")


ScenarioEvent = Union[FlashCrowd, SiteFailure, WanDegradation, GpuFailure]


@dataclass
class Scenario:
    """An ordered collection of scenario events on the fleet timeline."""

    events: List[ScenarioEvent] = field(default_factory=list)

    def validate(self, site_names: Collection[str]) -> None:
        """Fail fast on events naming a site that is not in ``site_names``."""
        known = set(site_names)
        for event in self.events:
            site = getattr(event, "site", None)
            if site and site not in known:
                raise FleetError(
                    f"{type(event).__name__} names unknown site {site!r}; "
                    f"fleet sites are {sorted(known)}"
                )
