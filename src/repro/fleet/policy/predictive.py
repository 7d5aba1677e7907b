"""The predictive profit-driven control plane.

Where the greedy default migrates on *load*, this policy migrates on
predicted *net accuracy profit* — the paper's thesis applied to the
control plane: every control action should pay for itself in expected
window-average accuracy.

For each candidate move (victim stream, destination site) the policy
predicts:

* **Gain** — the destination estimate minus the status-quo estimate at the
  source, both from :meth:`~repro.fleet.admission.AccuracyGreedyAdmission.
  estimate` (which folds in the fleet profile store's post-retraining curves
  when sharing is on).  Positive gain is discounted by a *staleness
  confidence*: with profile decay enabled, curves that last aggregated a
  push ``s`` seconds ago are trusted with weight ``0.5 ** (s /
  half_life)`` — the store's own decay law used as a drift forecast.
* **WAN cost** — the checkpoint transfer time under the *current* link
  state (degraded or faulty links make migrations proportionally less
  attractive), normalised by the destination's window.
  ``WAN_COST_WEIGHT`` is below 1 because the transfer is paid once while
  the gain recurs every remaining window the placement persists — the
  weight amortises a one-shot cost over that short horizon.
* **Cancellation waste** — the GPU-seconds the source site has already
  sunk into the victim's in-flight retraining, which a mid-window
  departure would write off.  Victims whose retraining has not started
  paying (still waiting on a checkpoint) or has already settled carry no
  such penalty — exactly the "prefer victims whose retraining hasn't
  started paying or has already settled" rule.

Moves whose best profit still does not clear ``MIN_PROFIT`` are rejected
(counted as ``migrations_rejected`` in the fleet summary) — the policy
would rather do nothing than thrash.  Destinations with ``BACKLOG_LIMIT``
or more checkpoints already in flight toward them are excluded outright:
migrating into a congested site queues behind its WAN backlog.

Independently of migration, the policy proactively cancels in-flight
retrainings that no longer pay — completion at or past the window end
(e.g. after a GPU flap rescaled the job), or a remaining pay fraction below
``CANCELLATION_PAY_THRESHOLD`` — whenever the site has other accelerable
in-flight retrainings to absorb the reclaimed GPU-seconds via the
plan/settle machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...exceptions import FleetError
from ...profiles.fleet_store import FleetProfileStore, ProfileKey, stream_profile_key
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

    #: A move must predict more profit than this, else the scan is rejected.
    MIN_PROFIT = 0.0
    #: Weight of the WAN transfer time, as a fraction of the destination's
    #: window (below 1: the transfer is paid once, the gain recurs).
    WAN_COST_WEIGHT = 0.4
    #: Weight of the victim's sunk retraining GPU-seconds, as a fraction of
    #: the source window's GPU-seconds.
    CANCELLATION_COST_WEIGHT = 1.0
    #: Destinations with this many checkpoints in flight toward them are
    #: excluded.
    BACKLOG_LIMIT = 2
    #: In-flight retrainings that would serve less than this fraction of
    #: their window are cancelled when survivors can absorb the GPUs.
    CANCELLATION_PAY_THRESHOLD = 0.05

    def __init__(self) -> None:
        # ``AccuracyGreedyAdmission.estimate`` memoised on its own arguments:
        # a hit is the same float by construction, so the memo is never
        # invalidated, only replaced when the window index moves on.
        self._scores: Dict[tuple, float] = {}
        self._scores_window: Optional[int] = None

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
        if window_index != self._scores_window:
            self._scores = {}
            self._scores_window = window_index
        events: List["MigrationEvent"] = []
        while len(events) < controller.max_migrations_per_window:
            best = self._best_candidate(controller, healthy, window_index, signals)
            if best is None:
                break
            profit, victim, _, destination = best
            if profit <= self.MIN_PROFIT:
                # Candidates existed but none pays: doing nothing beats
                # thrashing.  One rejection per scan — the remaining
                # candidates are by construction no better.
                controller.control_counters["migrations_rejected"] += 1
                break
            events.append(controller._migrate(victim, destination, window_index, "predictive"))
        return events

    def _best_candidate(
        self,
        controller: "FleetController",
        healthy: List["EdgeSite"],
        window_index: int,
        signals: Optional[ControlSignals],
    ) -> Optional[_Candidate]:
        now = signals.now if signals is not None else 0.0
        sharing = controller.profile_sharing
        store = sharing.store if sharing is not None else None
        backlog = self._backlog_by_site(controller, signals)
        # A congested destination already has a WAN backlog queued toward it.
        destinations = [site for site in healthy if backlog.get(site.name, 0) < self.BACKLOG_LIMIT]
        best: Optional[_Candidate] = None
        best_key: Optional[Tuple[float, str, str]] = None
        for source in healthy:
            if source.num_streams < 2:
                continue  # never empty a site — same floor as greedy
            # Links change only at scenario events, never inside a scan, so
            # the WAN term is per (source, destination) pair, not per victim.
            wan_terms = [
                (destination, self._wan_term(controller, source, destination))
                for destination in destinations
                if destination.name != source.name
            ]
            for victim in sorted(source.stream_names):
                if signals is not None and signals.transfer_arrivals.get(victim, now) > now:
                    continue  # checkpoint still in flight — not movable yet
                stream = source.server.stream(victim)
                key = stream_profile_key(stream)
                start = controller.dynamics.start_accuracy(stream, window_index)
                candidate = store.best_candidate(key) if store is not None else None
                curve_point = None if candidate is None else candidate[1:]
                status_quo = self._score(start, curve_point, source.num_streams, source)
                confidence = self._confidence(store, key, now)
                waste_term = self.CANCELLATION_COST_WEIGHT * self._cancellation_penalty(
                    source, victim, signals
                )
                for destination, wan_term in wan_terms:
                    joined = destination.num_streams + 1
                    gain = self._score(start, curve_point, joined, destination) - status_quo
                    if gain > 0.0:
                        # Stale curves → less trust in the predicted upside.
                        # Downside estimates stay undiscounted: uncertainty
                        # never makes a losing move look safer.
                        gain *= confidence
                    profit = gain - wan_term - waste_term
                    rank = (-profit, victim, destination.name)
                    if best_key is None or rank < best_key:
                        best_key = rank
                        best = (profit, victim, source, destination)
        return best

    def _wan_term(
        self, controller: "FleetController", source: "EdgeSite", destination: "EdgeSite"
    ) -> float:
        """Weighted checkpoint transfer time under the current link state, as
        a fraction of the destination's window."""
        transfer = controller.migration_cost.transfer_seconds(source.link, destination.link)
        return self.WAN_COST_WEIGHT * (transfer / destination.spec.window_duration)

    def _score(
        self,
        start: float,
        curve_point: Optional[Tuple[float, float]],
        occupants: int,
        site: "EdgeSite",
    ) -> float:
        """``AccuracyGreedyAdmission.estimate`` through the window's memo."""
        spec = site.spec
        key = (start, curve_point, occupants, spec.num_gpus, spec.window_duration)
        score = self._scores.get(key)
        if score is None:
            score = self._scores[key] = AccuracyGreedyAdmission.estimate(*key)
        return score

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

    @staticmethod
    def _confidence(store: Optional[FleetProfileStore], key: ProfileKey, now: float) -> float:
        """Drift/staleness trust in the store's curves for one profile key."""
        if store is None or store.decay_half_life is None:
            return 1.0
        last = store.last_push_at(key)
        if last is None:
            return 1.0  # no curve history: the score already fell back cold
        staleness = max(0.0, now - last)
        return 0.5 ** (staleness / store.decay_half_life)

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
    def _cancellation_round(self, controller: "FleetController", signals: ControlSignals) -> None:
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
                if pay >= self.CANCELLATION_PAY_THRESHOLD:
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
