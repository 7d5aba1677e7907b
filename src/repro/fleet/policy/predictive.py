"""The predictive profit-driven control plane.

Where the greedy default migrates on *load*, this policy migrates on
predicted *net accuracy profit* — the paper's thesis applied to the
control plane: every control action should pay for itself in expected
window-average accuracy.

For each candidate move (victim stream, destination site) the policy
predicts:

* **Gain** — the destination estimate minus the status-quo estimate at the
  source, both from :meth:`~repro.fleet.admission.AccuracyGreedyAdmission.
  score` (which folds in the fleet profile store's post-retraining curves
  when sharing is on).  Positive gain is discounted by a *staleness
  confidence*: with profile decay enabled, curves that last aggregated a
  push ``s`` seconds ago are trusted with weight ``0.5 ** (s /
  half_life)`` — the store's own decay law used as a drift forecast.
* **WAN cost** — the checkpoint transfer time under the *current* link
  state (degraded or faulty links make migrations proportionally less
  attractive), normalised by the destination's window.  The default
  ``wan_cost_weight`` is below 1 because the transfer is paid once while
  the gain recurs every remaining window the placement persists — the
  weight amortises a one-shot cost over that short horizon.
* **Cancellation waste** — the GPU-seconds the source site has already
  sunk into the victim's in-flight retraining, which a mid-window
  departure would write off.  Victims whose retraining has not started
  paying (still waiting on a checkpoint) or has already settled carry no
  such penalty — exactly the "prefer victims whose retraining hasn't
  started paying or has already settled" rule.

Moves whose best profit still does not clear ``min_profit`` are rejected
(counted as ``migrations_rejected`` in the fleet summary) — the policy
would rather do nothing than thrash.  Destinations with ``backlog_limit``
or more checkpoints already in flight toward them are excluded outright:
migrating into a congested site queues behind its WAN backlog.

Independently of migration, the policy proactively cancels in-flight
retrainings that no longer pay — completion at or past the window end
(e.g. after a GPU flap rescaled the job), or a remaining pay fraction below
``cancellation_pay_threshold`` — whenever the site has other accelerable
in-flight retrainings to absorb the reclaimed GPU-seconds via the
plan/settle machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...exceptions import FleetError
from ...profiles.fleet_store import stream_profile_key
from ..admission import AccuracyGreedyAdmission
from .base import ControlPolicy, ControlSignals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..controller import FleetController
    from ..migration import MigrationEvent
    from ..site import EdgeSite

__all__ = ["PredictiveProfitPolicy"]

#: ``(profit, victim, source, destination)`` — a fully-scored candidate move.
_Candidate = Tuple[float, str, "EdgeSite", "EdgeSite"]


class PredictiveProfitPolicy(ControlPolicy):
    """Migrate and cancel on predicted net accuracy profit (see module doc)."""

    name = "predictive"
    wants_signals = True

    def __init__(
        self,
        *,
        min_profit: float = 0.0,
        wan_cost_weight: float = 0.4,
        cancellation_cost_weight: float = 1.0,
        backlog_limit: int = 2,
        cancellation_pay_threshold: float = 0.05,
    ) -> None:
        if wan_cost_weight < 0 or cancellation_cost_weight < 0:
            raise FleetError("profit cost weights must be non-negative")
        if backlog_limit < 1:
            raise FleetError("backlog_limit must be at least 1")
        if not 0.0 <= cancellation_pay_threshold <= 1.0:
            raise FleetError("cancellation_pay_threshold must be within [0, 1]")
        self._min_profit = min_profit
        self._wan_cost_weight = wan_cost_weight
        self._cancellation_cost_weight = cancellation_cost_weight
        self._backlog_limit = backlog_limit
        self._cancellation_pay_threshold = cancellation_pay_threshold

    # ------------------------------------------------------------- main entry
    def rebalance(
        self,
        controller: "FleetController",
        window_index: int,
        signals: Optional[ControlSignals] = None,
    ) -> List["MigrationEvent"]:
        events: List["MigrationEvent"] = []
        healthy = controller.healthy_sites
        if len(healthy) >= 2 and controller.max_migrations_per_window > 0:
            events = self._migration_round(controller, healthy, window_index, signals)
        if signals is not None:
            self._cancellation_round(controller, signals)
        return events

    # -------------------------------------------------------------- migration
    def _migration_round(
        self,
        controller: "FleetController",
        healthy: List["EdgeSite"],
        window_index: int,
        signals: Optional[ControlSignals],
    ) -> List["MigrationEvent"]:
        sharing = controller.profile_sharing
        scorer = AccuracyGreedyAdmission(
            controller.dynamics,
            shared_profiles=sharing.store if sharing is not None else None,
        )
        events: List["MigrationEvent"] = []
        while len(events) < controller.max_migrations_per_window:
            best = self._best_candidate(
                controller, scorer, healthy, window_index, signals
            )
            if best is None:
                break
            profit, victim, _, destination = best
            if profit <= self._min_profit:
                # Candidates existed but none pays: doing nothing beats
                # thrashing.  One rejection per scan — the remaining
                # candidates are by construction no better.
                controller.control_counters["migrations_rejected"] += 1
                break
            events.append(
                controller._migrate(victim, destination, window_index, "predictive")
            )
        return events

    def _best_candidate(
        self,
        controller: "FleetController",
        scorer: AccuracyGreedyAdmission,
        healthy: List["EdgeSite"],
        window_index: int,
        signals: Optional[ControlSignals],
    ) -> Optional[_Candidate]:
        now = signals.now if signals is not None else 0.0
        backlog = self._backlog_by_site(controller, signals)
        best: Optional[_Candidate] = None
        best_key: Optional[Tuple[float, str, str]] = None
        for source in healthy:
            if source.num_streams < 2:
                continue  # never empty a site — same floor as greedy
            for victim in sorted(source.stream_names):
                if (
                    signals is not None
                    and signals.transfer_arrivals.get(victim, now) > now
                ):
                    continue  # checkpoint still in flight — not movable yet
                stream = source.server.stream(victim)
                status_quo = scorer.score(
                    stream, source, window_index, already_placed=True
                )
                confidence = self._confidence(controller, stream, now)
                waste_penalty = self._cancellation_penalty(source, victim, signals)
                for destination in healthy:
                    if destination.name == source.name:
                        continue
                    if backlog.get(destination.name, 0) >= self._backlog_limit:
                        continue  # congested: WAN backlog already queued there
                    profit = self._profit(
                        controller,
                        scorer,
                        stream,
                        source,
                        destination,
                        window_index,
                        status_quo,
                        confidence,
                        waste_penalty,
                    )
                    key = (-profit, victim, destination.name)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (profit, victim, source, destination)
        return best

    def _profit(
        self,
        controller: "FleetController",
        scorer: AccuracyGreedyAdmission,
        stream,
        source: "EdgeSite",
        destination: "EdgeSite",
        window_index: int,
        status_quo: float,
        confidence: float,
        waste_penalty: float,
    ) -> float:
        gain = scorer.score(stream, destination, window_index) - status_quo
        if gain > 0.0:
            # Stale curves → less trust in the predicted upside.  Downside
            # estimates stay undiscounted: uncertainty never makes a losing
            # move look safer.
            gain *= confidence
        transfer = controller.migration_cost.transfer_seconds(
            source.link, destination.link
        )
        wan_cost = transfer / destination.spec.window_duration
        return (
            gain
            - self._wan_cost_weight * wan_cost
            - self._cancellation_cost_weight * waste_penalty
        )

    def _cancellation_penalty(
        self, source: "EdgeSite", victim: str, signals: Optional[ControlSignals]
    ) -> float:
        """Sunk GPU-seconds a mid-window departure would write off, as a
        fraction of the source window's total GPU-seconds."""
        if signals is None:
            return 0.0
        info = signals.inflight_at(source.name, victim)
        if info is None:
            return 0.0  # nothing in flight: already settled, or never planned
        burned = info.burned_gpu_seconds(signals.now)
        capacity = source.spec.window_duration * max(source.spec.num_gpus, 1)
        return burned / capacity

    def _confidence(self, controller: "FleetController", stream, now: float) -> float:
        """Drift/staleness trust in the store's curves for this stream."""
        sharing = controller.profile_sharing
        if sharing is None:
            return 1.0
        store = sharing.store
        half_life = store.decay_half_life
        if half_life is None:
            return 1.0
        last = store.last_push_at(stream_profile_key(stream))
        if last is None:
            return 1.0  # no curve history: the score already fell back cold
        staleness = max(0.0, now - last)
        return 0.5 ** (staleness / half_life)

    @staticmethod
    def _backlog_by_site(
        controller: "FleetController", signals: Optional[ControlSignals]
    ) -> Dict[str, int]:
        """In-flight WAN checkpoints per owning site — the congestion signal."""
        counts: Dict[str, int] = {}
        if signals is None:
            return counts
        for stream_name, arrival in signals.transfer_arrivals.items():
            if arrival <= signals.now:
                continue
            try:
                owner = controller.site_of(stream_name)
            except FleetError:
                continue  # transfer outlived the stream (e.g. evacuated away)
            counts[owner.name] = counts.get(owner.name, 0) + 1
        return counts

    # ----------------------------------------------------- proactive cancels
    def _cancellation_round(
        self, controller: "FleetController", signals: ControlSignals
    ) -> None:
        for site_name in sorted(signals.inflight):
            active = [
                info
                for info in signals.inflight[site_name].values()
                if info.expected_completion > signals.now
            ]
            for info in sorted(active, key=lambda item: item.stream):
                if signals.now >= info.window_end:
                    continue  # window about to settle — nothing left to reclaim
                pay = info.pay_fraction(signals.now)
                if pay >= self._cancellation_pay_threshold:
                    continue  # still pays: let it land
                if pay > 0.0:
                    # Marginal: the job still lands in-window, so killing it
                    # only makes sense if the reclaimed GPU-seconds actually
                    # accelerate a surviving retraining.
                    survivors = [
                        other
                        for other in active
                        if other.stream != info.stream and other.accelerable
                    ]
                    if not survivors:
                        continue
                # pay <= 0 is unconditional: the job finishes at or past the
                # window end (flap-rescaled, or planned past it outright) —
                # every further GPU-second it burns is pure waste.
                controller.request_cancellation(site_name, info.stream)
