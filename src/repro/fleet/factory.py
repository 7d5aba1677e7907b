"""Convenience constructors for fleet simulations.

Mirrors :func:`repro.simulation.experiments.make_setup` one level up: build a
whole fleet — N sites running Ekya's thief scheduler against one shared
analytic accuracy substrate, an admission policy, and the initial workload
already admitted — from scalar knobs.  Benchmarks, examples and tests all go
through this, so fleet experiments are reproducible from (shape, seed) alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..cluster.network import NetworkLink
from ..core.controller import EkyaPolicy
from ..core.microprofiler import (
    MicroProfilerSettings,
    OracleProfileSource,
    SharedProfileOracle,
)
from ..datasets.generators import dataset_spec, make_workload
from ..exceptions import DatasetError, FleetError
from ..profiles.dynamics import AnalyticDynamics, StreamDynamics
from ..profiles.fleet_store import FleetProfileStore
from ..simulation.experiments import DEFAULT_PROFILER_ERROR_STD, make_config_space
from ..utils.clock import Clock
from ..utils.rng import SeedLike
from .admission import (
    AccuracyGreedyAdmission,
    AdmissionPolicy,
    LeastLoadedAdmission,
    RandomAdmission,
)
from .controller import FleetController
from .faults import WanFaultModel
from .migration import PROFILE_SIZE_MBITS
from .policy import ControlPolicy, GreedyRebalancePolicy, PredictiveProfitPolicy
from .site import EdgeSite, SiteSpec

#: Admission-policy names accepted by :func:`build_admission` / :func:`make_fleet`.
ADMISSION_NAMES = ("least_loaded", "accuracy_greedy", "random")

#: Control-policy names accepted by :func:`build_policy` / :func:`make_fleet`.
POLICY_NAMES = ("greedy", "predictive")

#: Warm-started streams profile at most this many candidate configurations
#: (half of :func:`make_config_space`'s 12-config retraining grid).
DEFAULT_SHARED_MAX_CONFIGS = 6


@dataclass(frozen=True)
class ProfileSharing:
    """Cross-site profile-sharing wiring attached to a fleet controller.

    ``store`` is the fleet-wide curve aggregate, ``source`` the
    warm-started oracle every site profiles through, and
    ``payload_mbits_per_stream`` the WAN payload one pushed stream profile
    costs — the simulator batches a site's window into one
    :class:`~repro.fleet.calendar.ProfilePush` whose arrival pays the
    site's uplink for the summed payload.
    """

    store: FleetProfileStore
    source: SharedProfileOracle
    payload_mbits_per_stream: float = PROFILE_SIZE_MBITS


def build_admission(
    name: str,
    dynamics: StreamDynamics,
    *,
    seed: SeedLike = 0,
    shared_profiles: Optional[FleetProfileStore] = None,
) -> AdmissionPolicy:
    """Instantiate an admission policy by its canonical name.

    ``shared_profiles`` hands the accuracy-greedy policy the fleet profile
    store, switching its score to the store's post-retraining curve (see
    :class:`~repro.fleet.admission.AccuracyGreedyAdmission`); the other
    policies ignore it.
    """
    if name == "least_loaded":
        return LeastLoadedAdmission()
    if name == "accuracy_greedy":
        return AccuracyGreedyAdmission(dynamics, shared_profiles=shared_profiles)
    if name == "random":
        return RandomAdmission(seed=seed)
    raise FleetError(f"unknown admission policy {name!r}; expected one of {ADMISSION_NAMES}")


def build_policy(name: str) -> ControlPolicy:
    """Instantiate a control policy by its canonical name.

    ``"greedy"`` is the bit-identical default load rebalancer;
    ``"predictive"`` the profit-driven plane (``docs/control_plane.md``).
    """
    if name == "greedy":
        return GreedyRebalancePolicy()
    if name == "predictive":
        return PredictiveProfitPolicy()
    raise FleetError(f"unknown control policy {name!r}; expected one of {POLICY_NAMES}")


def make_fleet(
    num_sites: int,
    streams_per_site: int,
    *,
    dataset: str = "cityscapes",
    gpus_per_site: int = 4,
    delta: float = 0.1,
    a_min: float = 0.4,
    window_duration: Union[float, Sequence[float]] = 200.0,
    admission: Union[str, AdmissionPolicy] = "least_loaded",
    overload_factor: float = 1.5,
    max_migrations_per_window: int = 4,
    links: Optional[Sequence[NetworkLink]] = None,
    seed: int = 0,
    profiler_error_std: float = DEFAULT_PROFILER_ERROR_STD,
    clock: Optional[Clock] = None,
    profile_sharing: bool = False,
    profile_decay_half_life: Optional[float] = None,
    preemptive_sites: bool = True,
    wan_faults: Optional[WanFaultModel] = None,
    control_policy: Union[str, ControlPolicy] = "greedy",
    sanitize: bool = False,
) -> FleetController:
    """Build a fleet of Ekya sites with the initial workload already admitted.

    Every site runs the full Ekya policy (oracle-profiled thief scheduler)
    over one shared :class:`~repro.profiles.dynamics.AnalyticDynamics`
    substrate — sharing the substrate is what makes migration meaningful: a
    stream's serving-model state follows it across sites, paid for by the
    checkpoint + profile WAN transfer.  The sites share one policy, whose
    :class:`~repro.core.batched_planner.BatchedThiefScheduler` the fleet
    simulator hands every site planning at one instant in a single call.

    ``links`` optionally assigns one WAN link per site (cycled if shorter);
    the default leaves every site on the :class:`SiteSpec` default link.
    ``window_duration`` likewise accepts either one shared duration or a
    sequence assigning per-site durations (cycled if shorter) — a
    heterogeneous-window fleet, which the event-calendar simulator advances
    through :meth:`~repro.fleet.simulator.FleetSimulator.run_until`.
    ``clock`` is threaded through to every site's scheduler, so injecting a
    :class:`~repro.utils.clock.ManualClock` (and passing the same clock to
    :class:`~repro.fleet.simulator.FleetSimulator`) makes fleet results —
    including every ``scheduler_runtime_seconds`` — bit-identical across runs.

    ``profile_sharing`` (off by default — the sharing-off fleet reproduces
    the pre-sharing engine bit for bit) wires the cross-site profile-sharing
    subsystem: every site profiles through one
    :class:`~repro.core.microprofiler.SharedProfileOracle` whose estimates
    carry modelled micro-profiling cost, sites push their curves into a
    fleet-wide :class:`~repro.profiles.fleet_store.FleetProfileStore` over
    the event calendar (paying WAN uplink), new/migrated streams warm-start
    from neighbours' curves, and an ``accuracy_greedy`` admission scores
    with the store's post-retraining curve.  Warm-started streams profile
    at most :data:`DEFAULT_SHARED_MAX_CONFIGS` candidate configurations.

    ``profile_decay_half_life`` (seconds; requires ``profile_sharing=True``)
    ages pushed curves out of the fleet store: every push decays the key's
    existing aggregate by ``0.5 ** (elapsed / half_life)`` before merging,
    so warm starts track the *current* drift regime instead of averaging
    over every window ever profiled.  ``None`` (default) keeps every push
    at weight 1.0 forever — the pre-decay behaviour, bit for bit.

    Every site is event-driven: each window is planned at its boundary and
    every stream's retraining completion becomes its own
    :class:`~repro.fleet.calendar.RetrainingComplete` event, so a
    mid-window migration or evacuation cancels the departing stream's
    in-flight retraining, reclaims its remaining GPU-seconds for the site's
    other in-flight retrainings, and the cancellation shows up in
    ``FleetResult.summary()`` (``retrainings_cancelled`` /
    ``reclaimed_gpu_seconds``).  ``preemptive_sites`` is accepted only as
    ``True``, for callers written when the boundary-settled engine still
    existed; any other value raises :class:`~repro.exceptions.FleetError`.

    ``wan_faults`` attaches a :class:`~repro.fleet.faults.WanFaultModel`:
    checkpoint transfers fail in flight with the model's (and the endpoint
    links') loss rate and retry with exponential backoff until the retry
    budget runs out — then the stream restarts cold at its destination —
    and profile pushes are lost outright (neighbours fall back to local
    curves).  Surfaced as ``transfers_failed`` / ``transfer_retries`` /
    ``retry_seconds`` in :meth:`FleetResult.summary`.  ``None`` (default)
    never draws the fault RNG: the lossless engine is reproduced bit for
    bit.

    ``control_policy`` selects what runs at every ``ControlTick``: a name
    from :data:`POLICY_NAMES` or a prebuilt
    :class:`~repro.fleet.policy.ControlPolicy` instance.  The default
    ``"greedy"`` reproduces the pre-policy engine bit for bit; see
    ``docs/control_plane.md`` for the predictive plane and the A/B
    harness comparing them.

    ``sanitize`` arms the plan-phase purity sanitizer
    (:mod:`repro.analysis.sanitizer`): every site's ``plan_window`` and
    every control-policy scan digests the shared dynamics (and the site's
    streams) before and after, raising
    :class:`~repro.exceptions.PurityViolationError` if planning mutated
    pre-existing engine state.  Guarding is observational — a sanitized
    fleet's results are bit-identical to an unsanitized one (gated by the
    golden-parity suite) — but digesting is slow; debug/CI use only.
    """
    if not isinstance(num_sites, numbers.Integral) or num_sites < 1:
        raise FleetError(f"num_sites must be an integer >= 1, got {num_sites}")
    if not isinstance(streams_per_site, numbers.Integral) or streams_per_site < 0:
        raise FleetError(
            f"streams_per_site must be a non-negative integer, got {streams_per_site}"
        )
    if preemptive_sites is not True:
        raise FleetError(
            f"preemptive_sites={preemptive_sites!r}: the boundary-settled site engine "
            "was removed and every site is event-driven; drop the keyword"
        )
    if not isinstance(seed, numbers.Integral):
        raise FleetError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)  # a numpy integer overflows the stream generator's seed hash
    try:
        dataset_spec(dataset)
    except DatasetError as exc:
        raise FleetError(f"make_fleet: {exc}") from exc
    durations = (
        [float(window_duration)]
        if isinstance(window_duration, numbers.Real)
        else [float(duration) for duration in window_duration]
    )
    if not durations or not all(0 < duration < math.inf for duration in durations):
        raise FleetError(f"window_duration entries must be positive and finite, got {durations}")
    if profile_decay_half_life is not None and not profile_sharing:
        raise FleetError(
            "profile_decay_half_life only ages the fleet profile store; "
            "pass profile_sharing=True (or drop the half-life)"
        )
    # The site specs validate gpus_per_site and delta, naming the site,
    # before the shared policy sees the quantum.
    specs = []
    for index in range(num_sites):
        spec_kwargs = dict(
            name=f"site-{index}",
            num_gpus=gpus_per_site,
            delta=delta,
            min_inference_accuracy=a_min,
            window_duration=durations[index % len(durations)],
        )
        if links:
            spec_kwargs["link"] = links[index % len(links)]
        specs.append(SiteSpec(**spec_kwargs))
    dynamics = AnalyticDynamics(seed=seed)
    sharing: Optional[ProfileSharing] = None
    if profile_sharing:
        fleet_store = FleetProfileStore(decay_half_life=profile_decay_half_life)
        profile_source: OracleProfileSource = SharedProfileOracle(
            dynamics,
            fleet_store,
            settings=MicroProfilerSettings(max_configs=DEFAULT_SHARED_MAX_CONFIGS),
            accuracy_error_std=profiler_error_std,
            seed=seed + 1,
        )
        sharing = ProfileSharing(store=fleet_store, source=profile_source)
    else:
        profile_source = OracleProfileSource(
            dynamics, accuracy_error_std=profiler_error_std, seed=seed + 1
        )
    policy = EkyaPolicy(
        profile_source,
        make_config_space(),
        steal_quantum=delta,
        name="Ekya",
        clock=clock,
    )
    sites = [
        EdgeSite(spec, dynamics=dynamics, policy=policy, sanitize=sanitize)
        for spec in specs
    ]
    if isinstance(admission, str):
        admission = build_admission(
            admission,
            dynamics,
            seed=seed + 2,
            shared_profiles=sharing.store if sharing is not None else None,
        )
    if isinstance(control_policy, str):
        control_policy = build_policy(control_policy)
    controller = FleetController(
        sites,
        dynamics=dynamics,
        admission=admission,
        overload_factor=overload_factor,
        max_migrations_per_window=max_migrations_per_window,
        profile_sharing=sharing,
        wan_faults=wan_faults,
        control_policy=control_policy,
        sanitize=sanitize,
        seed=seed,
    )
    total_streams = num_sites * streams_per_site
    if total_streams:
        # Streams are built before their site is known, so they are sized to
        # the reference duration; admission re-sizes each to its owning
        # site's window (FleetController._resync_stream_window), as it does
        # for flash crowds and migrations.
        controller.admit_all(
            make_workload(
                dataset,
                total_streams,
                seed=seed,
                window_duration=controller.reference_window_duration,
            )
        )
    return controller
