"""The fleet controller: stream ownership across many edge sites.

The paper schedules one edge server; the fleet controller is the layer above
it, deciding *which site owns which stream* while every site's thief
scheduler keeps optimising its own window locally.  Responsibilities:

* **Admission** — every new stream (initial rollout, flash crowds) is placed
  on a healthy site by the pluggable
  :class:`~repro.fleet.admission.AdmissionPolicy`.
* **Rebalancing** — at the simulator's control ticks (window boundaries by
  default, or an independent cadence mid-window), the controller delegates
  to its pluggable :class:`~repro.fleet.policy.ControlPolicy`.  The default
  :class:`~repro.fleet.policy.GreedyRebalancePolicy` migrates streams from
  overloaded sites (streams-per-GPU above ``overload_factor`` × the fleet
  mean) to the least-loaded healthy site, paying the WAN transfer cost of
  their model checkpoint + profile; the
  :class:`~repro.fleet.policy.PredictiveProfitPolicy` instead acts on
  predicted net accuracy profit (see ``docs/control_plane.md``).
* **Failure handling** — a failed site's streams are force-evacuated to the
  survivors; a recovered site re-enters admission and rebalancing.
* **Mid-window preemption** — every migration and evacuation notifies a
  *departure hook* the fleet simulator installs: if the departing stream
  has an in-flight retraining at the source site, it is cancelled at the
  current simulated instant and its remaining GPU-seconds are reclaimed for
  the site's other in-flight retrainings.

The controller shares one accuracy-dynamics substrate across all sites, so a
migrated stream keeps its serving-model state — that is precisely what the
checkpoint + profile transfer pays for.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..datasets.generators import make_stream
from ..datasets.stream import VideoStream
from ..exceptions import FleetError
from ..profiles.dynamics import StreamDynamics
from .admission import AdmissionPolicy
from .faults import WanFaultModel
from .migration import MigrationCostModel, MigrationEvent
from .policy.base import ControlPolicy, ControlSignals
from .policy.greedy import GreedyRebalancePolicy
from .site import EdgeSite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .factory import ProfileSharing


class FleetController:
    """Owns N edge sites and the stream → site assignment between windows."""

    def __init__(
        self,
        sites: Sequence[EdgeSite],
        *,
        dynamics: StreamDynamics,
        admission: AdmissionPolicy,
        overload_factor: float = 1.5,
        max_migrations_per_window: int = 4,
        profile_sharing: Optional["ProfileSharing"] = None,
        wan_faults: Optional[WanFaultModel] = None,
        control_policy: Optional[ControlPolicy] = None,
        sanitize: bool = False,
        seed: int = 0,
    ) -> None:
        if not sites:
            raise FleetError("a fleet needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise FleetError("site names must be unique")
        # NaN passes a bare ``< 1`` check and then counts every imbalance as
        # overload; a fractional cap lets one scan overshoot it.
        if not overload_factor >= 1.0:
            raise FleetError(f"overload_factor must be >= 1, got {overload_factor}")
        if (
            not isinstance(max_migrations_per_window, numbers.Integral)
            or max_migrations_per_window < 0
        ):
            raise FleetError(
                "max_migrations_per_window must be a non-negative integer, "
                f"got {max_migrations_per_window}"
            )
        self._sites: Dict[str, EdgeSite] = {site.name: site for site in sites}
        self._dynamics = dynamics
        self._admission = admission
        self._migration_cost = MigrationCostModel()
        self._overload_factor = overload_factor
        self._max_migrations = max_migrations_per_window
        self._profile_sharing = profile_sharing
        self._wan_faults = wan_faults
        self._control_policy = (
            control_policy if control_policy is not None else GreedyRebalancePolicy()
        )
        self._sanitizer = None
        if sanitize:
            # Local import: debug tooling layered on the engine, not a
            # package-level engine dependency.
            from ..analysis.sanitizer import PuritySanitizer

            self._sanitizer = PuritySanitizer()
        self._departure_hook: Optional[Callable[[str, str, str], None]] = None
        self._cancellation_hook: Optional[Callable[[str, str, str], bool]] = None
        self._seed = seed
        self._stream_site: Dict[str, str] = {}
        self._next_index: Dict[str, int] = {}
        #: Control-plane counters surfaced in ``FleetResult.summary()``.
        #: Policies mutate these directly (in-package trusted).
        self.control_counters: Dict[str, int] = {
            "control_scans_skipped": 0,
            "migrations_rejected": 0,
            "proactive_cancellations": 0,
        }

    # ------------------------------------------------------------- accessors
    @property
    def sites(self) -> List[EdgeSite]:
        return list(self._sites.values())

    @property
    def healthy_sites(self) -> List[EdgeSite]:
        return [site for site in self._sites.values() if site.healthy]

    @property
    def dynamics(self) -> StreamDynamics:
        return self._dynamics

    @property
    def admission_policy(self) -> AdmissionPolicy:
        return self._admission

    @property
    def migration_cost(self) -> MigrationCostModel:
        return self._migration_cost

    @property
    def control_policy(self) -> ControlPolicy:
        """The policy :meth:`rebalance` delegates to (default: greedy)."""
        return self._control_policy

    @property
    def overload_factor(self) -> float:
        return self._overload_factor

    @property
    def max_migrations_per_window(self) -> int:
        return self._max_migrations

    @property
    def profile_sharing(self) -> Optional["ProfileSharing"]:
        """Cross-site profile-sharing wiring, or ``None`` (the default).

        Set by :func:`~repro.fleet.factory.make_fleet` when built with
        ``profile_sharing=True``; the simulator schedules
        :class:`~repro.fleet.calendar.ProfilePush` events only when this is
        present, so sharing is strictly opt-in.
        """
        return self._profile_sharing

    @property
    def wan_faults(self) -> Optional[WanFaultModel]:
        """The fleet's WAN loss model, or ``None`` (lossless, the default).

        Set by :func:`~repro.fleet.factory.make_fleet` when built with
        ``wan_faults=...``.  The :class:`~repro.fleet.simulator.
        FleetSimulator` reads this to sample checkpoint-transfer retry
        chains and profile-push losses; with ``None`` no fault RNG is ever
        drawn and the lossless engine is reproduced bit for bit.
        """
        return self._wan_faults

    def set_departure_hook(
        self, hook: Optional[Callable[[str, str, str], None]]
    ) -> None:
        """Install the mid-window departure observer (the fleet simulator).

        ``hook(stream_name, source_site, reason)`` is invoked for every
        migration and evacuation, *after* the stream has moved, at the
        instant the controlling event fires — which is what lets the
        simulator cancel the departing stream's in-flight
        retraining at the source site and reclaim its remaining
        GPU-seconds.  Pass ``None`` to detach.
        """
        self._departure_hook = hook

    def set_cancellation_hook(
        self, hook: Optional[Callable[[str, str, str], bool]]
    ) -> None:
        """Install the proactive-cancellation channel (the fleet simulator).

        ``hook(site_name, stream_name, reason) -> bool`` cancels the named
        stream's in-flight retraining at the site, reclaiming its remaining
        GPU-seconds for the site's other in-flight retrainings, and returns
        whether anything was actually cancelled.  Without it
        :meth:`request_cancellation` is a no-op.  Pass ``None`` to detach.
        """
        self._cancellation_hook = hook

    def request_cancellation(
        self, site_name: str, stream_name: str, reason: str = "proactive_cancellation"
    ) -> bool:
        """Ask the simulator to cancel one in-flight retraining.

        The channel control policies use to reclaim GPU-seconds from
        retrainings that no longer pay.  Returns ``True`` (and counts a
        ``proactive_cancellation``) only when a retraining was actually in
        flight and got cancelled; returns ``False`` when no simulator hook
        is installed or the stream had nothing in flight.
        """
        if self._cancellation_hook is None:
            return False
        cancelled = self._cancellation_hook(site_name, stream_name, reason)
        if cancelled:
            self.control_counters["proactive_cancellations"] += 1
        return cancelled

    @property
    def homogeneous_windows(self) -> bool:
        """Whether every site shares one ``window_duration``."""
        return len({site.spec.window_duration for site in self._sites.values()}) == 1

    @property
    def window_duration(self) -> float:
        """The shared window duration; heterogeneous fleets have none."""
        if not self.homogeneous_windows:
            raise FleetError(
                "sites have different window_durations — there is no shared "
                "window duration; use each site's spec.window_duration"
            )
        return next(iter(self._sites.values())).spec.window_duration

    @property
    def reference_window_duration(self) -> float:
        """Longest site window — the duration new streams are sized against
        when no target site is known yet (the shared duration when the fleet
        is homogeneous)."""
        return max(site.spec.window_duration for site in self._sites.values())

    @property
    def num_streams(self) -> int:
        return len(self._stream_site)

    def site(self, name: str) -> EdgeSite:
        try:
            return self._sites[name]
        except KeyError as exc:
            raise FleetError(f"no site named {name!r} in this fleet") from exc

    def site_of(self, stream_name: str) -> EdgeSite:
        try:
            return self._sites[self._stream_site[stream_name]]
        except KeyError as exc:
            raise FleetError(f"stream {stream_name!r} is not admitted to this fleet") from exc

    # -------------------------------------------------------------- admission
    def admit(
        self,
        stream: VideoStream,
        window_index: int,
        *,
        site: Optional[str] = None,
    ) -> EdgeSite:
        """Place one new stream on a healthy site and attach it there."""
        if stream.name in self._stream_site:
            raise FleetError(f"stream {stream.name!r} is already admitted")
        if site is not None:
            target = self.site(site)
            if not target.healthy:
                raise FleetError(f"cannot admit to failed site {site!r}")
        else:
            target = self._admission.choose_site(stream, self.healthy_sites, window_index)
        target.attach(stream)
        self._resync_stream_window(stream, target)
        self._stream_site[stream.name] = target.name
        return target

    @staticmethod
    def _resync_stream_window(stream: VideoStream, site: EdgeSite) -> None:
        """Size the stream's windows to the site it now runs on.

        A stream's content is generated per window lazily, so whenever it
        lands on a site (admission, flash crowd, migration) its
        ``window_duration`` follows that site's cadence — on a
        heterogeneous-window fleet a stream built for 200 s windows must not
        keep producing 200 s of frames on a 150 s site.  Windows already
        realised are unaffected; on homogeneous fleets this is a no-op.
        """
        if stream.window_duration != site.spec.window_duration:
            stream.window_duration = site.spec.window_duration

    def admit_all(self, streams: Sequence[VideoStream], window_index: int = 0) -> None:
        for stream in streams:
            self.admit(stream, window_index)

    def spawn_streams(
        self,
        dataset: str,
        count: int,
        window_index: int,
        *,
        site: Optional[str] = None,
    ) -> List[VideoStream]:
        """Create and admit ``count`` fresh streams (flash-crowd arrivals)."""
        admitted: List[VideoStream] = []
        duration = (
            self.site(site).spec.window_duration
            if site is not None
            else self.reference_window_duration
        )
        for _ in range(count):
            index = self._next_index.get(dataset, 0)
            while f"{dataset}-{index}" in self._stream_site:
                index += 1
            self._next_index[dataset] = index + 1
            stream = make_stream(
                dataset,
                index,
                seed=self._seed,
                window_duration=duration,
            )
            self.admit(stream, window_index, site=site)
            admitted.append(stream)
        return admitted

    # -------------------------------------------------------------- migration
    def _migrate(
        self,
        stream_name: str,
        destination: EdgeSite,
        window_index: int,
        reason: str,
    ) -> MigrationEvent:
        source = self.site_of(stream_name)
        if source.name == destination.name:
            raise FleetError(f"stream {stream_name!r} is already on {destination.name!r}")
        stream = source.detach(stream_name)
        destination.attach(stream)
        self._resync_stream_window(stream, destination)
        self._stream_site[stream_name] = destination.name
        event = MigrationEvent(
            stream_name=stream_name,
            source=source.name,
            destination=destination.name,
            window_index=window_index,
            transfer_seconds=self._migration_cost.transfer_seconds(
                source.link, destination.link
            ),
            reason=reason,
        )
        if self._departure_hook is not None:
            self._departure_hook(stream_name, source.name, reason)
        return event

    def rebalance(
        self, window_index: int, signals: Optional[ControlSignals] = None
    ) -> List[MigrationEvent]:
        """Run one control round: delegate to the installed policy.

        With the default :class:`~repro.fleet.policy.GreedyRebalancePolicy`
        this migrates streams off overloaded sites exactly as every engine
        before the policy layer did, bit for bit (see that class for the
        algorithm).  ``signals`` is the simulator-built
        :class:`~repro.fleet.policy.ControlSignals` snapshot for policies
        that declare ``wants_signals``; direct callers may omit it.

        With ``sanitize=True`` the purity sanitizer digests the shared
        dynamics around the whole scan: a control policy may *move* streams
        (and a departure settles the cancelled window, a dynamics no-op),
        but its scoring/scan phase must never commit accuracy state — that
        is the predictive plane's plan-phase purity.
        Site and stream state are legitimately mutated by executed
        migrations, so only the dynamics are guarded here.
        """
        if self._sanitizer is None:
            return self._control_policy.rebalance(self, window_index, signals)
        with self._sanitizer.guard(
            f"{self._control_policy.name} control scan (window {window_index})",
            dynamics=self._dynamics,
        ):
            return self._control_policy.rebalance(self, window_index, signals)

    # ---------------------------------------------------------------- failure
    def fail_site(self, name: str, window_index: int) -> List[MigrationEvent]:
        """Mark a site failed and force-evacuate every stream it owned."""
        site = self.site(name)
        if not site.healthy:
            return []
        site.fail()
        events: List[MigrationEvent] = []
        for stream_name in sorted(site.stream_names):
            survivors = self.healthy_sites
            if not survivors:
                raise FleetError(
                    f"site {name!r} failed and no healthy site is left to "
                    f"evacuate {stream_name!r} to"
                )
            stream = site.server.stream(stream_name)
            destination = self._admission.choose_site(stream, survivors, window_index)
            events.append(self._migrate(stream_name, destination, window_index, "evacuation"))
        return events

    def recover_site(self, name: str) -> EdgeSite:
        """Bring a failed site back; rebalancing will repopulate it."""
        site = self.site(name)
        site.recover()
        return site

    def __repr__(self) -> str:
        healthy = sum(1 for site in self._sites.values() if site.healthy)
        return (
            f"FleetController(sites={len(self._sites)}, healthy={healthy}, "
            f"streams={self.num_streams}, admission={self._admission.name!r})"
        )
