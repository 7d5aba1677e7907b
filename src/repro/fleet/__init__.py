"""Fleet orchestration: many edge sites on one event calendar.

The paper's system schedules retraining + inference on a single edge server;
this package is the layer above it for production-scale deployments — a
:class:`FleetController` that owns N :class:`EdgeSite` s, admits streams via
pluggable :class:`AdmissionPolicy` s and migrates them between sites (paying
real WAN transfer cost for model checkpoint + profile), and a
:class:`FleetSimulator` that advances everything as a discrete-event
simulation on an :class:`EventCalendar`: per-site window boundaries,
time-indexed scenario triggers, WAN transfer arrivals, fleet profile pushes
and control ticks are heap-ordered :class:`SimEvent` s.  Each site's
thief-scheduler hot path runs completely unchanged.

Event hierarchy (priority order at equal timestamps, smaller fires first):

1. :class:`SiteRecovery` / :class:`WanRestore` / :class:`GpuRecovered` —
   scenario-effect expiries; site/WAN expiries are no-ops unless their
   scheduling event still owns the site's state, GPU recoveries are
   count-based (losses stack, each recovery returns what its failure took).
2. :class:`ScenarioTrigger` — injected scenario events (flash crowd, site
   failure, WAN degradation, partial GPU failure).
3. :class:`TransferArrival` / :class:`TransferFailed` — a migrating
   checkpoint + profile lands, or one WAN transfer attempt is lost (fleets
   built with ``make_fleet(wan_faults=...)``); at one instant a transfer
   either lands or fails, never both.
4. :class:`RetrainingComplete` — one stream's in-flight retraining reaches
   its absolute finish time.  After arrivals; before pushes and control, so
   a same-instant rebalance sees the completed model.
5. :class:`InferenceReconfigured` — a mid-window allocation change: GPUs
   freed by a completed retraining flowed back to inference, or a
   cancellation handed reclaimed capacity to surviving retrainings.  Like
   :class:`MigrationStarted`, a trace-only marker written into the
   telemetry ring at the change, never scheduled.
6. :class:`ProfilePush` — a site's micro-profiled curves land in the
   fleet-wide :class:`~repro.profiles.fleet_store.FleetProfileStore` after
   crossing the site's WAN uplink (cross-site profile sharing; only
   scheduled by fleets built with ``make_fleet(profile_sharing=True)``).
   After arrivals so a same-instant checkpoint is observed first; before
   control ticks so same-instant admission already sees the pushed curves.
7. :class:`ControlTick` — admission/rebalancing.
8. :class:`WindowBoundary` — one site settles its previous window and plans
   its next.

One timeline, one site engine
-----------------------------

The calendar is the spine of every run:

* ``FleetSimulator(controller, scenario).run(num_windows)`` steps fleets
  whose sites share one ``window_duration`` window by window from t=0 (a
  second call continues with the next windows), and is bit-identical
  across runs under a :class:`~repro.utils.clock.ManualClock`.
* **Scenarios name absolute times**: ``FlashCrowd(at_seconds=450.0, ...)``
  fires mid-window; expiries use ``recovery_at`` / ``until_at``.  To fire
  at the start of window ``k`` of a fleet on 200 s windows, pass
  ``at_seconds=k * 200.0``.  Events are validated when built (expiry
  before trigger, non-finite times) and again at :class:`FleetSimulator`
  construction (unknown sites), not at fire time.
* **Event-driven sites**: every site plans each window at its boundary
  into one record per in-flight retraining and settles every stream's
  retraining at its own :class:`RetrainingComplete` event, where the freed
  GPUs flow back to the stream's inference job (traced as
  :class:`InferenceReconfigured`).  A mid-window migration or evacuation
  *cancels* the departing stream's in-flight retraining and reclaims its
  remaining GPU-seconds for the site's other in-flight retrainings, which
  finish earlier.  Surfaced as ``retrainings_cancelled`` /
  ``reclaimed_gpu_seconds`` in :meth:`FleetResult.summary`.

Capabilities, opted into explicitly:

* **Per-site windows**: give each :class:`SiteSpec` its own
  ``window_duration`` (or pass a sequence to :func:`make_fleet`), then
  drive the fleet with ``run_until(t_end)`` — each
  returned :class:`FleetWindowResult` covers one cycle of sites whose
  windows start at the same ``start_seconds``.
* **Async control plane**: ``FleetSimulator(..., control_interval=50.0)``
  runs admission/rebalancing on its own cadence, so migrations start
  mid-window and the destination's next window pays only the WAN transfer
  time still remaining (a ``TransferArrival`` landing mid-window costs the
  following window nothing).
* **Cross-site profile sharing**: ``make_fleet(..., profile_sharing=True)``
  lets sites push their micro-profiled resource–accuracy curves into one
  fleet-wide store (as ``ProfilePush`` events paying real WAN uplink time)
  and warm-starts new/migrated streams from neighbours' curves — the
  first window profiles a ``max_configs``-pruned candidate set instead of
  the full grid, surfaced as ``profiling_gpu_seconds_saved`` in
  :meth:`FleetResult.summary`.  ``make_fleet(...,
  profile_decay_half_life=3600.0)`` additionally ages old pushes out of the
  store so warm starts track the current drift regime.
* **Partial-failure fault model**: ``make_fleet(..., wan_faults=
  WanFaultModel(loss_rate=0.1, seed=7))`` makes checkpoint transfers and
  profile pushes fail in flight (:class:`TransferFailed` events) —
  checkpoints retry with exponential backoff and restart cold at the
  destination when the retry budget runs out; lost pushes silently fall
  back to local curves.  :class:`GpuFailure` scenario events shrink a
  site's capacity by k of N GPUs until the matching :class:`GpuRecovered`.
  Surfaced as ``transfers_failed`` / ``transfer_retries`` /
  ``retry_seconds`` in :meth:`FleetResult.summary`.  The seeded chaos
  harness in :mod:`repro.fleet.chaos` composes both into replayable fault
  schedules and checks fleet-wide invariants across seed sweeps.
* **Pluggable control policies**: ``make_fleet(...,
  control_policy="predictive")`` swaps what runs at every
  :class:`ControlTick`.  The default :class:`~repro.fleet.policy.
  GreedyRebalancePolicy` reproduces the pre-policy load rebalancer bit for
  bit (and skips provably no-op scans); the :class:`~repro.fleet.policy.
  PredictiveProfitPolicy` migrates on predicted net accuracy profit —
  expected gain net of WAN transfer cost under the current link and of the
  GPU-seconds a mid-window cancellation would waste — avoids
  transfer-congested destinations, and proactively cancels retrainings
  that no longer pay.  Surfaced as ``control_policy``
  / ``control_scans_skipped`` / ``migrations_rejected`` /
  ``proactive_cancellations`` / ``wasted_gpu_seconds`` in
  :meth:`FleetResult.summary`; ``scripts/run_policy_ab.py`` replays
  identical seeded calendars under both policies (see
  ``docs/control_plane.md``).
* **Bounded-memory telemetry**: every simulator writes into a
  :class:`TelemetryPlane` — a fixed-size numpy ring of event envelopes
  (``event_trace`` is decoded from it on demand and served cached),
  adaptively sampled per-stream accuracy series with exact count/mean/p10
  sketches, and one packed structured array holding every (site, window)
  counter row, each sized by a constant of :mod:`repro.fleet.telemetry`;
  :meth:`TelemetryPlane.export_text` renders a run's summary as a
  Prometheus-style text exposition (``scripts/export_metrics.py``).
  Surfaced as ``telemetry_events_dropped`` / ``telemetry_sampled_streams``
  / ``telemetry_ring_occupancy`` in :meth:`FleetResult.summary`.
"""

from .admission import (
    AccuracyGreedyAdmission,
    AdmissionPolicy,
    LeastLoadedAdmission,
    RandomAdmission,
)
from .calendar import (
    ControlTick,
    EventCalendar,
    GpuRecovered,
    InferenceReconfigured,
    MigrationStarted,
    ProfilePush,
    RetrainingComplete,
    ScenarioTrigger,
    SimEvent,
    SiteRecovery,
    TransferArrival,
    TransferFailed,
    WanRestore,
    WindowBoundary,
)
from .chaos import ChaosInjector, ChaosReport, check_invariants, run_chaos_trial
from .controller import FleetController
from .factory import (
    ADMISSION_NAMES,
    DEFAULT_SHARED_MAX_CONFIGS,
    POLICY_NAMES,
    ProfileSharing,
    build_admission,
    build_policy,
    make_fleet,
)
from .faults import WanFaultModel, combined_loss
from .metrics import (
    FleetResult,
    FleetStreamOutcome,
    FleetWindowResult,
    SiteWindowStats,
    gpu_utilization,
)
from .migration import PROFILE_SIZE_MBITS, MigrationCostModel, MigrationEvent
from .scenarios import (
    FlashCrowd,
    GpuFailure,
    Scenario,
    ScenarioEvent,
    SiteFailure,
    WanDegradation,
)
from .export import (
    ACCURACY_HISTOGRAM_BUCKETS,
    METRIC_PREFIX,
    render_accuracy_histogram,
    render_prometheus,
)
from .policy import (
    ControlPolicy,
    ControlSignals,
    GreedyRebalancePolicy,
    InflightRetraining,
    PredictiveProfitPolicy,
)
from .simulator import FleetSimulator
from .site import EdgeSite, SiteSpec
from .telemetry import (
    AdaptiveStreamSampler,
    EventRing,
    P2Quantile,
    SiteStatsTable,
    TelemetryPlane,
)

__all__ = [
    "AccuracyGreedyAdmission",
    "AdmissionPolicy",
    "LeastLoadedAdmission",
    "RandomAdmission",
    "ControlTick",
    "EventCalendar",
    "GpuRecovered",
    "InferenceReconfigured",
    "MigrationStarted",
    "ProfilePush",
    "RetrainingComplete",
    "ScenarioTrigger",
    "SimEvent",
    "SiteRecovery",
    "TransferArrival",
    "TransferFailed",
    "WanRestore",
    "WindowBoundary",
    "ChaosInjector",
    "ChaosReport",
    "check_invariants",
    "run_chaos_trial",
    "FleetController",
    "ADMISSION_NAMES",
    "DEFAULT_SHARED_MAX_CONFIGS",
    "POLICY_NAMES",
    "ProfileSharing",
    "build_admission",
    "build_policy",
    "make_fleet",
    "ControlPolicy",
    "ControlSignals",
    "GreedyRebalancePolicy",
    "InflightRetraining",
    "PredictiveProfitPolicy",
    "FleetResult",
    "FleetStreamOutcome",
    "FleetWindowResult",
    "SiteWindowStats",
    "gpu_utilization",
    "ACCURACY_HISTOGRAM_BUCKETS",
    "METRIC_PREFIX",
    "render_accuracy_histogram",
    "render_prometheus",
    "AdaptiveStreamSampler",
    "EventRing",
    "P2Quantile",
    "SiteStatsTable",
    "TelemetryPlane",
    "WanFaultModel",
    "combined_loss",
    "PROFILE_SIZE_MBITS",
    "MigrationCostModel",
    "MigrationEvent",
    "FlashCrowd",
    "GpuFailure",
    "Scenario",
    "ScenarioEvent",
    "SiteFailure",
    "WanDegradation",
    "FleetSimulator",
    "EdgeSite",
    "SiteSpec",
]
