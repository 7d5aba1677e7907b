"""The default control policy: greedy load rebalancing.

This is the pre-policy ``FleetController.rebalance`` loop extracted
verbatim — same float arithmetic, same iteration order, same name-based
tie-breaks — so a fleet built with the default policy is bit-identical to
every engine before the policy layer existed (the golden-parity and
``run_benchmarks.py --quick`` gates pin this).

The only addition is a pure optimisation, always on: the greedy scan's
outcome is a function of the healthy sites' load vector alone (stream
counts and effective GPUs; accuracy dynamics only pick the *victim* once a
migration is already decided), so when a scan found nothing to do and the
load vector has not changed since, the next scan provably finds nothing
too and is skipped.  Skips are counted in the fleet summary as
``control_scans_skipped``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .base import ControlPolicy, ControlSignals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..controller import FleetController
    from ..migration import MigrationEvent
    from ..site import EdgeSite

__all__ = ["GreedyRebalancePolicy"]

#: One healthy site's contribution to the idle-scan cache key.  ``load`` and
#: every break condition in the scan derive from exactly these integers (plus
#: the fixed ``spec.num_gpus``), so an unchanged key means an unchanged scan.
_LoadKey = Tuple[Tuple[str, int, int], ...]


class GreedyRebalancePolicy(ControlPolicy):
    """Migrate the worst-served stream off any overloaded site.

    A site is overloaded when its streams-per-GPU exceeds the controller's
    ``overload_factor`` × the healthy-fleet mean load.  Each migration moves
    the overloaded site's currently worst-served stream (lowest stale-model
    accuracy this window — it has the least to lose from the transfer and
    the most to gain from a less contended site) to the least-loaded
    healthy site.  At most ``max_migrations_per_window`` streams move per
    scan so the fleet never thrashes.

    A scan early-outs (output-identically) when the previous scan returned
    no migrations and the healthy load vector is unchanged since.
    """

    name = "greedy"
    wants_signals = False

    def __init__(self) -> None:
        self._idle_key: Optional[_LoadKey] = None

    @staticmethod
    def _load_key(healthy) -> _LoadKey:
        return tuple((site.name, site.num_streams, site.effective_gpus) for site in healthy)

    @staticmethod
    def _worst_served_stream(
        controller: "FleetController", source: "EdgeSite", window_index: int
    ) -> str:
        """The source site's lowest stale-model-accuracy stream, name tie-break.

        ``source`` is rebound on every pass of the rebalance loop, so the
        selection closes over it here — inside a scope where it is fixed —
        rather than in a loop-level lambda.
        """

        def stale_accuracy(name: str) -> Tuple[float, str]:
            return (
                controller.dynamics.start_accuracy(source.server.stream(name), window_index),
                name,
            )

        return min(source.stream_names, key=stale_accuracy)

    def rebalance(
        self,
        controller: "FleetController",
        window_index: int,
        signals: Optional[ControlSignals] = None,
    ) -> List["MigrationEvent"]:
        events: List["MigrationEvent"] = []
        healthy = controller.healthy_sites
        if len(healthy) < 2:
            return events
        load_key = self._load_key(healthy)
        if load_key == self._idle_key:
            controller.control_counters["control_scans_skipped"] += 1
            return events
        while len(events) < controller.max_migrations_per_window:
            loads = [site.load for site in healthy]
            mean_load = sum(loads) / len(loads)
            source = max(healthy, key=lambda site: (site.load, site.name))
            destination = min(healthy, key=lambda site: (site.load, site.name))
            if source.num_streams < 2 or mean_load <= 0:
                break
            if source.load <= controller.overload_factor * mean_load:
                break
            # Moving one stream must actually close the gap, else the same
            # stream would bounce between the two sites forever.
            gap_after = (source.load - 1.0 / source.spec.num_gpus) - (
                destination.load + 1.0 / destination.spec.num_gpus
            )
            if gap_after < 0:
                break
            victim = self._worst_served_stream(controller, source, window_index)
            events.append(controller._migrate(victim, destination, window_index, "overload"))
        # Only a provably-idle scan is cacheable: migrations change loads,
        # and any other mutation (admission, failure, flap) changes the key.
        self._idle_key = load_key if not events else None
        return events
