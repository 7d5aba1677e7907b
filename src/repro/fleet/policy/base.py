"""Control-policy interface: what runs at every fleet ``ControlTick``.

The :class:`~repro.fleet.controller.FleetController` owns the *mechanism* of
moving streams between sites (detach/attach, WAN cost, departure hooks); a
:class:`ControlPolicy` owns the *decision* of which streams move where, and
whether an in-flight retraining should be proactively cancelled.  The
controller delegates every :meth:`~repro.fleet.controller.FleetController.
rebalance` call to its installed policy, so swapping the control plane is a
``make_fleet(control_policy=...)`` knob rather than a fork of the engine.

Policies that set :attr:`ControlPolicy.wants_signals` receive a
:class:`ControlSignals` snapshot from the fleet simulator at every tick —
the simulated instant, the in-flight WAN transfer backlog and every site's
in-flight retrainings.  The default greedy policy wants none of it
(``wants_signals = False``), so the default engine builds no snapshot and
stays bit-identical to the pre-policy controller.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..controller import FleetController
    from ..migration import MigrationEvent

__all__ = ["ControlPolicy", "ControlSignals", "InflightRetraining"]


@dataclass(frozen=True)
class InflightRetraining:
    """One stream's in-flight retraining at a site, at tick time.

    A snapshot of the fleet simulator's open-window bookkeeping: enough for
    a policy to predict what cancelling (or migrating) the stream would
    cost and what completing it would still pay.
    """

    stream: str
    site: str
    #: Absolute simulated time the retraining currently completes at.
    expected_completion: float
    #: Current retraining GPU allocation (grows when reclaimed capacity
    #: from a cancelled neighbour accelerated the job).
    alloc: float
    #: Absolute time before which the job burns no GPU (a migrated-in
    #: stream idles until its WAN checkpoint arrives).
    ready: float
    #: Whether extra GPU allocation can accelerate the completion (False
    #: for fixed external completions, e.g. cloud-offloaded retraining).
    accelerable: bool
    #: The open window this retraining belongs to.
    window_start: float
    window_end: float

    def burned_gpu_seconds(self, now: float) -> float:
        """GPU-seconds already spent on this job by ``now`` — the work a
        cancellation at this instant would write off."""
        return max(0.0, min(now, self.expected_completion) - self.ready) * self.alloc

    def pay_fraction(self, now: float) -> float:
        """Fraction of the window the retrained model would still serve.

        The retraining only *pays* between its completion and the window
        end; at or below 0 the job finishes too late to benefit this
        window at all (its GPU burn is pure waste).
        """
        duration = self.window_end - self.window_start
        if duration <= 0:
            return 0.0
        return (self.window_end - max(now, self.expected_completion)) / duration


@dataclass(frozen=True)
class ControlSignals:
    """What the fleet simulator knows at a ``ControlTick``, for policies.

    Built only when the installed policy sets
    :attr:`ControlPolicy.wants_signals` — the default greedy plane never
    pays for the snapshot.  All maps are plain copies: a policy may iterate
    them freely while its own decisions (migrations, cancellations) mutate
    the live simulator state underneath.
    """

    #: Current simulated time.
    now: float = 0.0
    #: Absolute landing time of every in-flight WAN checkpoint transfer,
    #: keyed by stream name — the congestion/backlog signal.
    transfer_arrivals: Mapping[str, float] = field(default_factory=dict)
    #: ``site -> stream -> InflightRetraining`` for every site with an open
    #: (planned, not fully settled) window.
    inflight: Mapping[str, Mapping[str, InflightRetraining]] = field(
        default_factory=dict
    )

    def inflight_at(self, site: str, stream: str) -> Optional[InflightRetraining]:
        return self.inflight.get(site, {}).get(stream)


class ControlPolicy(abc.ABC):
    """Decides the fleet's control actions at every ``ControlTick``.

    Implementations must be deterministic given their construction
    arguments and the fleet state (ties break on names), so fleet
    simulations stay reproducible run to run.  A policy executes its
    migrations through ``controller._migrate`` (the controller remains the
    mechanism owner: WAN cost, ownership registry and departure hooks all
    live there) and its proactive cancellations through
    :meth:`~repro.fleet.controller.FleetController.request_cancellation`.
    """

    #: Label used in summaries, benchmark tables and the A/B harness.
    name: str = "policy"

    #: Whether the fleet simulator should build a :class:`ControlSignals`
    #: snapshot for this policy's ticks.  Keep ``False`` unless the policy
    #: reads it — the default engine skips the snapshot entirely.
    wants_signals: bool = False

    @abc.abstractmethod
    def rebalance(
        self,
        controller: "FleetController",
        window_index: int,
        signals: Optional[ControlSignals] = None,
    ) -> List["MigrationEvent"]:
        """Run one control decision round; return the executed migrations.

        ``signals`` is ``None`` unless :attr:`wants_signals` is set *and*
        the call came from a fleet simulator tick (direct controller calls
        pass nothing) — policies must degrade gracefully without it.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
