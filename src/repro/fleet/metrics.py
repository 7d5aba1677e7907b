"""Fleet-level results and metrics.

Mirrors the per-server result dataclasses in
:mod:`repro.simulation.simulator` one level up: a
:class:`FleetWindowResult` aggregates every site's
:class:`~repro.simulation.simulator.WindowResult` for one shared window plus
the migrations that happened at its boundary, and a :class:`FleetResult`
rolls the run up into the metrics the fleet evaluation cares about — fleet
mean accuracy, the p10 worst-stream accuracy (tail quality, which admission
and migration policies trade against the mean), per-site utilisation,
quantisation loss, and migration count/cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..simulation.simulator import StreamWindowOutcome, WindowResult
from ..utils.math_utils import safe_mean
from .migration import MigrationEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (telemetry imports us)
    from .telemetry import SiteStatsView


def gpu_utilization(total_gpu_allocated: float, num_gpus: int) -> float:
    """Fraction of a site's GPU capacity a schedule actually allocated.

    Guards the degenerate capacity cases in one place instead of inline
    division at every call site: a site with no GPUs (or a corrupted
    negative count) cannot be utilised, so its utilisation is 0.0 rather
    than a ``ZeroDivisionError`` or a nonsensical negative ratio.
    """
    if num_gpus <= 0:
        return 0.0
    return total_gpu_allocated / num_gpus


@dataclass(frozen=True)
class FleetStreamOutcome:
    """One stream's realised window outcome plus its migration history.

    Migration cost is realised *inside* the site's window execution: the
    fleet simulator hands each migrated-in stream's summed WAN transfer time
    to :meth:`repro.simulation.simulator.Simulator.run_window` as a
    retraining start delay, so the retrained model lands transfer + training
    time into the window — or not at all, in which case the dynamics are not
    advanced either.  ``effective_average_accuracy`` is therefore exactly
    the site's realised value; the migration events are kept here so tail
    and cost metrics can attribute the hit.  A stream bounced more than once
    at one boundary (evacuation followed by an overload rebalance) paid
    every hop's transfer.
    """

    stream_name: str
    site: str
    outcome: StreamWindowOutcome
    migrations: Tuple[MigrationEvent, ...] = ()

    @property
    def transfer_seconds(self) -> float:
        """Total WAN transfer this stream paid at this window's boundary."""
        return float(sum(event.transfer_seconds for event in self.migrations))

    @property
    def effective_average_accuracy(self) -> float:
        return self.outcome.realized_average_accuracy

    @property
    def migrated(self) -> bool:
        return bool(self.migrations)


@dataclass(frozen=True)
class SiteWindowStats:
    """Operational statistics of one site over one window."""

    site: str
    num_streams: int
    #: GPU fraction of the site's capacity the schedule actually allocated.
    utilization: float
    #: GPU fraction lost to placement quantisation this window.
    allocation_loss: float
    mean_accuracy: float
    scheduler_runtime_seconds: float
    #: GPU-seconds the site spent micro-profiling this window (0.0 unless
    #: cross-site profile sharing models the profiling cost).
    profiling_gpu_seconds: float = 0.0
    #: GPU-seconds of micro-profiling the fleet profile store saved this
    #: window by warm-starting streams from neighbours' curves.
    profiling_gpu_seconds_saved: float = 0.0
    #: In-flight retrainings cancelled mid-window because their stream
    #: migrated or was evacuated away.
    retrainings_cancelled: int = 0
    #: GPU-seconds of cancelled retrainings' remaining work reclaimed for
    #: the site's other in-flight retrainings.
    reclaimed_gpu_seconds: float = 0.0
    #: GPU-seconds burned on retrainings that never paid: work sunk into
    #: cancelled jobs before their cancellation plus the whole-window burn
    #: of jobs that never completed inside their window.  The control-plane
    #: A/B harness's waste metric.
    wasted_gpu_seconds: float = 0.0
    #: WAN transfer attempts into/out of this site lost in flight — failed
    #: checkpoint-transfer attempts (charged to the destination) and lost
    #: profile pushes (charged to the source).  0 unless the fleet was
    #: built with ``make_fleet(wan_faults=...)``.
    transfers_failed: int = 0
    #: Failed checkpoint attempts that were retried (a give-up after the
    #: retry budget, and a lost profile push, fail without a retry).
    transfer_retries: int = 0
    #: Wall-clock seconds lost to failed attempts: the wasted transfers
    #: plus the exponential backoff before each retry.
    retry_seconds: float = 0.0


@dataclass
class FleetWindowResult:
    """Everything that happened across the fleet in one simulation cycle.

    On a homogeneous-window fleet a cycle is one shared window.  On a
    heterogeneous fleet (per-site ``window_duration``) a cycle covers the
    sites whose window boundaries share the start instant ``start_seconds``,
    and ``window_index`` is the cycle's ordinal on the calendar rather than
    a fleet-wide window count.
    """

    window_index: int
    #: Absolute simulated time at which this cycle's windows started.
    start_seconds: float = 0.0
    site_results: Dict[str, WindowResult] = field(default_factory=dict)
    stream_outcomes: Dict[str, FleetStreamOutcome] = field(default_factory=dict)
    migrations: List[MigrationEvent] = field(default_factory=list)
    failed_sites: List[str] = field(default_factory=list)
    admitted_streams: List[str] = field(default_factory=list)
    #: Backing view into the telemetry plane's packed stats table.  The
    #: simulator links one row per (site, window) via
    #: :meth:`repro.fleet.telemetry.TelemetryPlane.record_site_stats`; the
    #: :attr:`site_stats` property materialises (and caches) the dataclass
    #: mapping on demand, so the cycle itself holds no per-site objects.
    stats_view: Optional["SiteStatsView"] = field(default=None, repr=False)

    @property
    def site_stats(self) -> Dict[str, SiteWindowStats]:
        """Per-site operational stats of this cycle, keyed by site name."""
        if self.stats_view is None:
            return {}
        return self.stats_view.as_dict()

    @property
    def mean_accuracy(self) -> float:
        """Migration-cost-adjusted mean accuracy over every served stream."""
        return safe_mean(
            [o.effective_average_accuracy for o in self.stream_outcomes.values()]
        )

    @property
    def num_streams(self) -> int:
        return len(self.stream_outcomes)

    @property
    def migration_seconds(self) -> float:
        return float(sum(event.transfer_seconds for event in self.migrations))

    @property
    def allocation_loss(self) -> float:
        """Fleet-wide GPU fraction lost to placement quantisation this window."""
        return float(sum(stats.allocation_loss for stats in self.site_stats.values()))

    @property
    def profiling_gpu_seconds(self) -> float:
        """Fleet-wide GPU-seconds spent micro-profiling this window."""
        return float(
            sum(stats.profiling_gpu_seconds for stats in self.site_stats.values())
        )

    @property
    def profiling_gpu_seconds_saved(self) -> float:
        """Fleet-wide profiling GPU-seconds saved by warm starts this window."""
        return float(
            sum(stats.profiling_gpu_seconds_saved for stats in self.site_stats.values())
        )

    @property
    def retrainings_cancelled(self) -> int:
        """In-flight retrainings cancelled mid-window across the fleet."""
        return sum(stats.retrainings_cancelled for stats in self.site_stats.values())

    @property
    def reclaimed_gpu_seconds(self) -> float:
        """GPU-seconds reclaimed from cancelled retrainings this window."""
        return float(
            sum(stats.reclaimed_gpu_seconds for stats in self.site_stats.values())
        )

    @property
    def wasted_gpu_seconds(self) -> float:
        """GPU-seconds burned on never-paying retrainings this window."""
        return float(
            sum(stats.wasted_gpu_seconds for stats in self.site_stats.values())
        )

    @property
    def transfers_failed(self) -> int:
        """WAN transfer attempts lost in flight across the fleet this window."""
        return sum(stats.transfers_failed for stats in self.site_stats.values())

    @property
    def transfer_retries(self) -> int:
        """Failed checkpoint-transfer attempts retried this window."""
        return sum(stats.transfer_retries for stats in self.site_stats.values())

    @property
    def retry_seconds(self) -> float:
        """Wall-clock seconds lost to failed transfer attempts this window."""
        return float(sum(stats.retry_seconds for stats in self.site_stats.values()))


@dataclass
class FleetResult:
    """Aggregate outcome of a multi-window fleet simulation."""

    admission_policy: str
    num_sites: int
    windows: List[FleetWindowResult] = field(default_factory=list)
    #: Wall-clock the fleet layer spent (scheduling + simulation, all sites).
    wall_clock_seconds: float = 0.0
    #: Events evicted from the telemetry plane's fixed-size event ring to
    #: stay within its capacity (exact; 0 unless the ring overflowed).
    telemetry_events_dropped: int = 0
    #: Streams whose accuracy series received a dense (top-k mover) sample
    #: in the latest simulated window.
    telemetry_sampled_streams: int = 0
    #: Live event envelopes held in the telemetry ring when the run ended.
    telemetry_ring_occupancy: int = 0
    #: Name of the control policy that ran the fleet's control ticks.
    control_policy: str = "greedy"
    #: Greedy scans skipped because the load vector was provably unchanged
    #: since an idle scan (cumulative over the controller's lifetime).
    control_scans_skipped: int = 0
    #: Control rounds in which candidate migrations existed but none
    #: cleared the policy's predicted-profit bar (predictive policy only).
    migrations_rejected: int = 0
    #: In-flight retrainings the control plane proactively cancelled
    #: because they no longer paid (predictive policy only).
    proactive_cancellations: int = 0

    # ----------------------------------------------------------- accuracy
    @property
    def mean_accuracy(self) -> float:
        """Fleet headline metric: accuracy over cycles and served streams.

        Cycles that served nothing are excluded rather than counted as 0.0:
        on a heterogeneous-window fleet a cycle can cover only sites that
        are failed or idle (e.g. every 150 s boundary of a failed site), and
        averaging zeros for windows in which no stream existed would let
        calendar granularity, not serving quality, drive the headline
        number.
        """
        return safe_mean(
            [w.mean_accuracy for w in self.windows if w.stream_outcomes]
        )

    @property
    def per_stream_accuracy(self) -> Dict[str, float]:
        totals: Dict[str, List[float]] = {}
        for window in self.windows:
            for name, outcome in window.stream_outcomes.items():
                totals.setdefault(name, []).append(outcome.effective_average_accuracy)
        return {name: safe_mean(values) for name, values in totals.items()}

    def worst_stream_accuracy(self, percentile: float = 10.0) -> float:
        """Tail quality: the given percentile of per-stream mean accuracies."""
        values = list(self.per_stream_accuracy.values())
        if not values:
            return 0.0
        return float(np.percentile(np.asarray(values, dtype=float), percentile))

    # ---------------------------------------------------------- migrations
    @property
    def migration_count(self) -> int:
        return sum(len(w.migrations) for w in self.windows)

    @property
    def total_migration_seconds(self) -> float:
        return float(sum(w.migration_seconds for w in self.windows))

    def migrations_by_reason(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for window in self.windows:
            for event in window.migrations:
                counts[event.reason] = counts.get(event.reason, 0) + 1
        return counts

    # --------------------------------------------------------- utilisation
    @property
    def mean_utilization_by_site(self) -> Dict[str, float]:
        """Mean allocated-GPU fraction per site over the windows it served."""
        totals: Dict[str, List[float]] = {}
        for window in self.windows:
            for name, stats in window.site_stats.items():
                totals.setdefault(name, []).append(stats.utilization)
        return {name: safe_mean(values) for name, values in totals.items()}

    @property
    def mean_allocation_loss(self) -> float:
        """Mean fleet-wide per-window GPU fraction lost to quantisation."""
        return safe_mean([w.allocation_loss for w in self.windows])

    # ----------------------------------------------------------- profiling
    @property
    def total_profiling_gpu_seconds(self) -> float:
        """GPU-seconds spent micro-profiling over the whole run."""
        return float(sum(w.profiling_gpu_seconds for w in self.windows))

    @property
    def profiling_gpu_seconds_saved(self) -> float:
        """GPU-seconds of profiling the fleet store's warm starts saved."""
        return float(sum(w.profiling_gpu_seconds_saved for w in self.windows))

    # ----------------------------------------------------------- preemption
    @property
    def retrainings_cancelled(self) -> int:
        """In-flight retrainings cancelled mid-window over the whole run."""
        return sum(w.retrainings_cancelled for w in self.windows)

    @property
    def reclaimed_gpu_seconds(self) -> float:
        """GPU-seconds reclaimed from cancelled retrainings over the run."""
        return float(sum(w.reclaimed_gpu_seconds for w in self.windows))

    @property
    def wasted_gpu_seconds(self) -> float:
        """GPU-seconds burned on never-paying retrainings over the run."""
        return float(sum(w.wasted_gpu_seconds for w in self.windows))

    # --------------------------------------------------------------- faults
    @property
    def transfers_failed(self) -> int:
        """WAN transfer attempts lost in flight over the whole run."""
        return sum(w.transfers_failed for w in self.windows)

    @property
    def transfer_retries(self) -> int:
        """Failed checkpoint-transfer attempts that were retried."""
        return sum(w.transfer_retries for w in self.windows)

    @property
    def retry_seconds(self) -> float:
        """Wall-clock seconds lost to failed transfer attempts over the run."""
        return float(sum(w.retry_seconds for w in self.windows))

    # -------------------------------------------------------------- export
    def summary(self) -> Dict[str, object]:
        """Flat JSON-friendly summary (benchmark trajectories, examples).

        Every key is documented in the metrics appendix of
        ``docs/events.md``; ``tests/unit/test_fleet.py`` asserts the exact
        key set so documentation and code cannot drift apart.
        """
        utilization = self.mean_utilization_by_site
        return {
            "admission_policy": self.admission_policy,
            "num_sites": self.num_sites,
            "num_windows": len(self.windows),
            "num_streams": max((w.num_streams for w in self.windows), default=0),
            "mean_accuracy": self.mean_accuracy,
            "p10_worst_stream_accuracy": self.worst_stream_accuracy(10.0),
            "migration_count": self.migration_count,
            "total_migration_seconds": self.total_migration_seconds,
            "migrations_by_reason": self.migrations_by_reason(),
            "mean_utilization": safe_mean(list(utilization.values())),
            "mean_allocation_loss": self.mean_allocation_loss,
            "profiling_gpu_seconds": self.total_profiling_gpu_seconds,
            "profiling_gpu_seconds_saved": self.profiling_gpu_seconds_saved,
            "retrainings_cancelled": self.retrainings_cancelled,
            "reclaimed_gpu_seconds": self.reclaimed_gpu_seconds,
            "wasted_gpu_seconds": self.wasted_gpu_seconds,
            "control_policy": self.control_policy,
            "control_scans_skipped": self.control_scans_skipped,
            "migrations_rejected": self.migrations_rejected,
            "proactive_cancellations": self.proactive_cancellations,
            "transfers_failed": self.transfers_failed,
            "transfer_retries": self.transfer_retries,
            "retry_seconds": self.retry_seconds,
            "wall_clock_seconds": self.wall_clock_seconds,
            "telemetry_events_dropped": self.telemetry_events_dropped,
            "telemetry_sampled_streams": self.telemetry_sampled_streams,
            "telemetry_ring_occupancy": self.telemetry_ring_occupancy,
        }
