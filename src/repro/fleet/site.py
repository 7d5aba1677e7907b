"""One edge site of a multi-site fleet.

An :class:`EdgeSite` wraps the single-server stack the paper evaluates — an
:class:`~repro.cluster.edge_server.EdgeServer`, a window policy (Ekya's thief
scheduler by default) and the trace-driven
:class:`~repro.simulation.simulator.Simulator` — behind a mutable-membership
facade: streams are attached by the fleet controller at admission time and
move between sites through migration or evacuation.  The per-site scheduling
hot path runs completely unchanged; the fleet layer only decides *which*
streams each site owns in each window.

Sites also carry operational state the fleet scenarios manipulate: a health
flag (site failure/recovery), a WAN link whose bandwidth can be degraded —
which is what migrations into and out of the site pay for checkpoint and
profile transfer — and a partial-degradation GPU count: a
:class:`~repro.fleet.scenarios.GpuFailure` removes k of N GPUs and the site
keeps running on the remainder (its server spec and GPU fleet are rebuilt
at the reduced capacity), skipping windows entirely only when every GPU is
gone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Mapping, Optional

from ..cluster.edge_server import EdgeServer, EdgeServerSpec
from ..cluster.gpu import GPUFleet
from ..cluster.network import CELLULAR_4G_X2, NetworkLink
from ..core.policy import WindowPolicy
from ..datasets.stream import VideoStream
from ..exceptions import FleetError
from ..profiles.dynamics import StreamDynamics
from ..core.types import ScheduleRequest, WindowSchedule
from ..simulation.simulator import Simulator, StreamWindowOutcome, WindowPlan


@dataclass(frozen=True)
class SiteSpec:
    """Static description of one fleet site.

    Attributes
    ----------
    name:
        Unique site identifier (used in migration events and metrics).
    num_gpus / delta / min_inference_accuracy / window_duration:
        Forwarded to :class:`~repro.cluster.edge_server.EdgeServerSpec`.
        ``window_duration`` is per-site: the fleet's event calendar gives
        every site its own window-boundary events, so a metro site can run
        200 s windows next to a neighbourhood site on 150 s ones.
    link:
        WAN link connecting the site to the backbone.  Migrations upload the
        stream's model checkpoint and profile over the source site's uplink
        and download them over the destination's downlink.
    """

    name: str
    num_gpus: int = 4
    delta: float = 0.1
    min_inference_accuracy: float = 0.4
    window_duration: float = 200.0
    link: NetworkLink = CELLULAR_4G_X2

    def __post_init__(self) -> None:
        """Validate the spec up front, so a bad site fails at construction.

        Without these checks a ``num_gpus=0`` site is accepted and the error
        surfaces later — as a bare ``ZeroDivisionError`` from
        :attr:`EdgeSite.load` or, confusingly, from ``EdgeServerSpec``
        validation deep inside the first window — instead of as a
        :class:`FleetError` naming the site.
        """
        if not self.name:
            raise FleetError("site name must be non-empty")
        # NaN passes a bare ``< 1`` check and 1.5 reaches ``range()``; only a
        # whole GPU count is a site.
        if not isinstance(self.num_gpus, numbers.Integral) or self.num_gpus < 1:
            raise FleetError(
                f"site {self.name!r} needs an integer num_gpus >= 1, got {self.num_gpus}"
            )
        if not 0 < self.delta <= self.num_gpus:
            raise FleetError(
                f"site {self.name!r} needs delta in (0, num_gpus], got {self.delta}"
            )
        if not 0.0 <= self.min_inference_accuracy < 1.0:
            raise FleetError(
                f"site {self.name!r} needs min_inference_accuracy in [0, 1), "
                f"got {self.min_inference_accuracy}"
            )
        if not 0 < self.window_duration < math.inf:
            raise FleetError(
                f"site {self.name!r} needs a positive finite window_duration, "
                f"got {self.window_duration}"
            )

    def server_spec(self) -> EdgeServerSpec:
        return EdgeServerSpec(
            num_gpus=self.num_gpus,
            delta=self.delta,
            min_inference_accuracy=self.min_inference_accuracy,
            window_duration=self.window_duration,
        )


class EdgeSite:
    """A single edge server plus the fleet-facing state around it."""

    def __init__(
        self,
        spec: SiteSpec,
        *,
        dynamics: StreamDynamics,
        policy: WindowPolicy,
        sanitize: bool = False,
    ) -> None:
        self.spec = spec
        self._server = EdgeServer(spec.server_spec(), [], allow_empty=True)
        self._simulator = Simulator(self._server, dynamics, policy, sanitize=sanitize)
        self.healthy = True
        self.link = spec.link
        #: Provisioned GPUs currently failed (partial degradation).
        self.gpus_lost = 0

    # ------------------------------------------------------------- accessors
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def server(self) -> EdgeServer:
        return self._server

    @property
    def policy(self) -> WindowPolicy:
        """The window policy planning this site's windows."""
        return self._simulator.policy

    @property
    def streams(self) -> List[VideoStream]:
        return self._server.streams

    @property
    def stream_names(self) -> List[str]:
        return self._server.stream_names

    @property
    def num_streams(self) -> int:
        return self._server.num_streams

    @property
    def effective_gpus(self) -> int:
        """GPUs currently in service: provisioned minus failed."""
        return self.spec.num_gpus - self.gpus_lost

    @property
    def load(self) -> float:
        """Streams per GPU — the overload signal the controller rebalances on.

        Computed against the *effective* capacity, so a partially degraded
        site looks proportionally more loaded and rebalancing drains it.  A
        site with every GPU failed gets a large finite load (``inf`` would
        defeat the controller's overload comparisons) so it is always the
        first rebalancing source.  With no GPUs lost this is exactly the
        provisioned streams-per-GPU ratio.
        """
        effective = self.effective_gpus
        if effective <= 0:
            return 1e6 * max(1, self._server.num_streams)
        return self._server.num_streams / effective

    # ------------------------------------------------------------ membership
    def attach(self, stream: VideoStream) -> None:
        if not self.healthy:
            raise FleetError(f"cannot attach a stream to failed site {self.name!r}")
        self._server.attach_stream(stream)

    def detach(self, stream_name: str) -> VideoStream:
        return self._server.detach_stream(stream_name)

    # ------------------------------------------------------------- execution
    def prepare_window_request(self, window_index: int) -> Optional[ScheduleRequest]:
        """Build (and profile) one window's scheduling request, unsolved.

        The same idle/failure guards as :meth:`plan_window` apply — a site
        that would skip the window returns ``None`` here too, so the fleet's
        cohort planning asks nothing of a site that would not run.  The
        solved cohort schedule comes back through the ``preplanned``
        parameter of :meth:`plan_window`.
        """
        if not self.healthy or self._server.num_streams == 0 or self.effective_gpus < 1:
            return None
        return self._simulator.prepare_request(window_index)

    def plan_window(
        self,
        window_index: int,
        *,
        retraining_delays: Optional[Mapping[str, float]] = None,
        preplanned: Optional[WindowSchedule] = None,
    ) -> Optional[WindowPlan]:
        """Plan one window without settling it; ``None`` if idle or failed.

        ``retraining_delays`` carries the WAN transfer time of streams that
        migrated in — their retraining cannot start until checkpoint +
        profile have arrived.  ``preplanned`` replaces the policy solve with
        a cohort's schedule (see :meth:`prepare_window_request`).  The
        fleet's event loop turns the returned plan's per-stream completion
        offsets into :class:`~repro.fleet.calendar.RetrainingComplete`
        events and settles each stream — possibly early, rescheduled, or
        cancelled — through :meth:`settle_stream`.
        """
        if not self.healthy or self._server.num_streams == 0 or self.effective_gpus < 1:
            return None
        return self._simulator.plan_window(
            window_index, retraining_delays=retraining_delays, preplanned=preplanned
        )

    def settle_stream(
        self,
        plan: WindowPlan,
        stream_name: str,
        *,
        completion_offset: Optional[float] = None,
        cancelled: bool = False,
    ) -> StreamWindowOutcome:
        """Settle one planned stream (see :meth:`Simulator.settle_stream`).

        The fleet's event loop settles stream by stream — at
        completion events, at cancellations, and for the remainder when the
        window ends — so this per-stream form is the only settle surface a
        site exposes; whole-window settling stays on the single-server
        :meth:`~repro.simulation.simulator.Simulator.settle_window`.
        """
        return self._simulator.settle_stream(
            plan,
            stream_name,
            completion_offset=completion_offset,
            cancelled=cancelled,
        )

    # --------------------------------------------------------------- health
    def fail(self) -> None:
        self.healthy = False

    def recover(self) -> None:
        self.healthy = True

    # ----------------------------------------------------- GPU degradation
    def degrade_gpus(self, num_gpus: int = 1) -> int:
        """Take up to ``num_gpus`` GPUs out of service; returns the count taken.

        Losses stack: each call removes from whatever capacity is left, and
        the clamped return value is what the matching
        :class:`~repro.fleet.calendar.GpuRecovered` must restore.  The
        server's spec and GPU fleet are rebuilt at the reduced capacity, so
        the thief scheduler's next plan sees the smaller machine; at zero
        effective GPUs the site simply skips windows until a recovery.
        """
        if num_gpus < 1:
            raise FleetError("degrade_gpus needs num_gpus >= 1")
        taken = min(num_gpus, self.effective_gpus)
        if taken:
            self.gpus_lost += taken
            self._apply_capacity()
        return taken

    def restore_gpus(self, num_gpus: int = 1) -> int:
        """Return up to ``num_gpus`` failed GPUs to service; returns the count."""
        if num_gpus < 1:
            raise FleetError("restore_gpus needs num_gpus >= 1")
        restored = min(num_gpus, self.gpus_lost)
        if restored:
            self.gpus_lost -= restored
            self._apply_capacity()
        return restored

    def _apply_capacity(self) -> None:
        """Rebuild the server's spec + GPU fleet at the effective capacity.

        ``delta`` (and with it the default steal quantum) is clamped into
        the shrunken spec's valid range; the provisioned :class:`SiteSpec`
        is never touched, so restoring every GPU reproduces the original
        server spec exactly.
        """
        effective = self.effective_gpus
        if effective < 1:
            # Nothing to rebuild: plan/run guards keep the site idle, and
            # the stale server spec is never consulted while idle.
            return
        base = self.spec
        self._server.spec = EdgeServerSpec(
            num_gpus=effective,
            delta=min(base.delta, float(effective)),
            min_inference_accuracy=base.min_inference_accuracy,
            window_duration=base.window_duration,
        )
        self._server.fleet = GPUFleet(effective)

    # ------------------------------------------------------------------ WAN
    def degrade_wan(self, uplink_factor: float = 1.0, downlink_factor: float = 1.0) -> None:
        """Scale the site's WAN bandwidth (factors < 1 degrade the link)."""
        self.link = self.spec.link.scaled(uplink_factor, downlink_factor)

    def restore_wan(self) -> None:
        self.link = self.spec.link

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else "FAILED"
        return (
            f"EdgeSite(name={self.name!r}, gpus={self.spec.num_gpus}, "
            f"streams={self.num_streams}, {state})"
        )
