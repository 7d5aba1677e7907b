"""Seeded chaos harness for the fleet's partial-failure fault model.

The fault model (:mod:`repro.fleet.faults`, :class:`~repro.fleet.scenarios.
GpuFailure`, :class:`~repro.fleet.scenarios.SiteFailure`) gives the fleet
simulator plenty of ways to lose things mid-flight; this module is the
systematic way to exercise them.  A :class:`ChaosInjector` compiles a
*replayable* fault schedule — site-failure bursts, WAN degradation windows,
GPU flaps, plus a WAN loss model — from ``(seed, intensity)`` alone, and
:func:`run_chaos_trial` runs one such schedule end to end under a
:class:`~repro.utils.clock.ManualClock`, checking fleet-wide invariants that
must hold *no matter what* the schedule did:

* **stream conservation** — no stream is ever lost: the controller's
  registry and the per-site memberships agree, and (absent flash crowds)
  the fleet ends with exactly the streams it started with;
* **accounting** — fault counters are internally consistent (retries are a
  subset of failures, wasted seconds are finite and non-negative) and every
  realised accuracy stays in ``[0, 1]``;
* **GPU conservation** — each site's lost + effective GPUs always equals
  its provisioned count, and a degraded site's rebuilt server spec matches
  its effective capacity.

Determinism is the harness's backbone: the same ``(seed, intensity)`` pair
compiles the same schedule, draws the same fault RNG sequence, and produces
the same :meth:`~repro.fleet.metrics.FleetResult.summary` bit for bit —
``scripts/run_chaos.py`` re-runs a few trials to prove it on every sweep.
``intensity=0.0`` compiles an *empty* schedule with no WAN fault model, so
the sweep's zero point is exactly the lossless engine and accuracy-vs-
intensity comparisons have a faithful baseline.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import FleetError
from ..utils.clock import ManualClock
from ..utils.rng import ensure_rng, stable_seed
from .controller import FleetController
from .factory import make_fleet
from .faults import WanFaultModel
from .metrics import FleetResult
from .scenarios import GpuFailure, Scenario, ScenarioEvent, SiteFailure, WanDegradation
from .simulator import FleetSimulator

#: Ceiling on the WAN loss rate any intensity can reach — past this the
#: sweep measures retry arithmetic, not system behaviour.
MAX_LOSS_RATE = 0.45


@dataclass(frozen=True)
class ChaosInjector:
    """Compiles ``(seed, intensity)`` into a replayable fault schedule.

    ``intensity`` scales everything at once: the number of site-failure
    bursts, WAN degradation windows and GPU flaps drawn over the horizon,
    and the loss rates of the :class:`~repro.fleet.faults.WanFaultModel`.
    ``intensity=0.0`` yields an empty :class:`Scenario` and no fault model
    (so a zero-intensity trial is the lossless engine, bit for bit);
    ``intensity=1.0`` is a rough "one fault event per couple of windows"
    regime.  All draws come from one ``ensure_rng(seed)`` stream in a fixed
    order, so a schedule is a pure function of its inputs.

    Two deliberate schedule properties:

    * concurrent *distinct-site* failures are capped at ``num_sites - 1``,
      so evacuations always have a healthy destination and stream
      conservation is testable (total-blackout handling is a different
      invariant class);
    * overlapping failures of the *same* site are allowed — they exercise
      the simulator's latest-event-wins recovery ownership.
    """

    seed: int = 0
    intensity: float = 1.0

    def __post_init__(self) -> None:
        # Written to fail on NaN, which would otherwise surface in compile().
        if not 0 <= self.intensity < math.inf:
            raise FleetError(f"intensity must be non-negative and finite, got {self.intensity}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise FleetError(f"seed must be a non-negative integer, got {self.seed}")

    def wan_faults(self) -> Optional[WanFaultModel]:
        """The WAN loss model this schedule pairs with (``None`` at zero)."""
        if self.intensity == 0:
            return None
        return WanFaultModel(
            loss_rate=min(MAX_LOSS_RATE, 0.08 * self.intensity),
            max_retries=2,
            backoff_seconds=4.0,
            backoff_factor=2.0,
            push_loss_rate=min(MAX_LOSS_RATE, 0.12 * self.intensity),
            seed=stable_seed("wan-faults", self.seed),
        )

    def compile(
        self,
        site_names: Sequence[str],
        *,
        window_duration: float,
        num_windows: int,
        gpus_per_site: int = 4,
    ) -> Scenario:
        """Draw the fault schedule for one fleet shape.

        Events are time-indexed (``at_seconds``), so the schedule works on
        heterogeneous-window fleets too; triggers land strictly inside the
        ``num_windows * window_duration`` horizon.
        """
        if not isinstance(num_windows, numbers.Integral) or num_windows < 1:
            raise FleetError(f"num_windows must be an integer >= 1, got {num_windows}")
        if not 0 < window_duration < math.inf:
            raise FleetError(f"window_duration must be positive and finite, got {window_duration}")
        if self.intensity == 0 or not site_names:
            return Scenario()
        rng = ensure_rng(self.seed)
        horizon = num_windows * window_duration
        events: List[ScenarioEvent] = []
        events.extend(
            self._draw_site_failures(rng, site_names, horizon, window_duration)
        )
        events.extend(self._draw_wan_windows(rng, site_names, horizon, window_duration))
        events.extend(
            self._draw_gpu_flaps(
                rng, site_names, horizon, window_duration, gpus_per_site
            )
        )
        return Scenario(events)

    # ------------------------------------------------------------- internals
    def _count(self, rate_per_window: float, num_windows: float) -> int:
        return int(round(self.intensity * rate_per_window * num_windows))

    def _draw_site_failures(
        self, rng, site_names: Sequence[str], horizon: float, window: float
    ) -> List[SiteFailure]:
        num_windows = horizon / window
        wanted = self._count(0.25, num_windows)
        taken: List[Tuple[str, float, float]] = []
        failures: List[SiteFailure] = []
        for _ in range(wanted):
            site = site_names[int(rng.integers(len(site_names)))]
            start = float(rng.uniform(0.05, 0.95)) * horizon
            end = start + float(rng.uniform(0.5, 1.5)) * window
            concurrent = {
                other
                for other, s, e in taken
                if other != site and s < end and start < e
            }
            # Cap concurrent distinct-site failures so evacuations always
            # have a healthy destination; same-site overlaps pass through.
            if len(concurrent) >= len(site_names) - 1:
                continue
            taken.append((site, start, end))
            failures.append(
                SiteFailure(site=site, at_seconds=start, recovery_at=end)
            )
        return failures

    def _draw_wan_windows(
        self, rng, site_names: Sequence[str], horizon: float, window: float
    ) -> List[WanDegradation]:
        num_windows = horizon / window
        wanted = self._count(0.3, num_windows)
        degradations: List[WanDegradation] = []
        for _ in range(wanted):
            site = site_names[int(rng.integers(len(site_names)))]
            start = float(rng.uniform(0.05, 0.9)) * horizon
            until = start + float(rng.uniform(0.5, 2.0)) * window
            factor = float(rng.uniform(0.15, 0.6))
            degradations.append(
                WanDegradation(
                    site=site,
                    at_seconds=start,
                    until_at=until,
                    uplink_factor=factor,
                    downlink_factor=factor,
                )
            )
        return degradations

    def _draw_gpu_flaps(
        self,
        rng,
        site_names: Sequence[str],
        horizon: float,
        window: float,
        gpus_per_site: int,
    ) -> List[GpuFailure]:
        num_windows = horizon / window
        wanted = self._count(0.35, num_windows)
        flaps: List[GpuFailure] = []
        for _ in range(wanted):
            site = site_names[int(rng.integers(len(site_names)))]
            start = float(rng.uniform(0.05, 0.9)) * horizon
            end = start + float(rng.uniform(0.3, 1.2)) * window
            # Mostly partial losses; the occasional full-site draw is
            # deliberate (degrade_gpus clamps, the site skips windows).
            num_gpus = 1 + int(rng.integers(max(1, gpus_per_site)))
            flaps.append(
                GpuFailure(
                    site=site, at_seconds=start, recovery_at=end, num_gpus=num_gpus
                )
            )
        return flaps


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos trial: the schedule, the verdict, the numbers."""

    seed: int
    intensity: float
    num_fault_events: int
    violations: Tuple[str, ...]
    summary: Dict[str, object] = field(hash=False)
    #: Telemetry-plane memory accounting of the trial (ring occupancy, drop
    #: counter, packed-storage bytes) — what ``scripts/run_chaos.py`` prints
    #: per trial so chaos CI catches unbounded telemetry growth.
    telemetry: Dict[str, int] = field(hash=False, default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_invariants(
    controller: FleetController,
    result: FleetResult,
    *,
    initial_streams: Optional[int] = None,
) -> List[str]:
    """Fleet-wide invariants that must hold under any fault schedule.

    Returns a list of human-readable violation strings (empty = all good)
    rather than raising, so a sweep can report every broken seed at once.
    """
    violations: List[str] = []
    # --- stream conservation: registry and site memberships agree, and no
    # stream was silently dropped or duplicated along the way.
    per_site = [(site.name, site.stream_names) for site in controller.sites]
    total = sum(len(names) for _, names in per_site)
    if total != controller.num_streams:
        violations.append(
            f"stream conservation: sites hold {total} streams, "
            f"registry has {controller.num_streams}"
        )
    seen: Dict[str, str] = {}
    for site_name, names in per_site:
        for name in names:
            if name in seen:
                violations.append(
                    f"stream conservation: {name!r} attached to both "
                    f"{seen[name]!r} and {site_name!r}"
                )
            seen[name] = site_name
    admitted = sum(len(w.admitted_streams) for w in result.windows)
    if initial_streams is not None and controller.num_streams != initial_streams + admitted:
        violations.append(
            f"stream conservation: started with {initial_streams} + "
            f"{admitted} admitted, ended with {controller.num_streams}"
        )
    # --- GPU conservation: lost + effective == provisioned, always, and a
    # degraded (but non-dark) site's server runs at its effective capacity.
    for site in controller.sites:
        if not 0 <= site.gpus_lost <= site.spec.num_gpus:
            violations.append(
                f"gpu conservation: site {site.name!r} lost {site.gpus_lost} "
                f"of {site.spec.num_gpus} provisioned GPUs"
            )
        if site.effective_gpus + site.gpus_lost != site.spec.num_gpus:
            violations.append(
                f"gpu conservation: site {site.name!r} effective "
                f"{site.effective_gpus} + lost {site.gpus_lost} != "
                f"provisioned {site.spec.num_gpus}"
            )
        if site.effective_gpus >= 1 and site.server.spec.num_gpus != site.effective_gpus:
            violations.append(
                f"gpu conservation: site {site.name!r} server spec has "
                f"{site.server.spec.num_gpus} GPUs, effective is "
                f"{site.effective_gpus}"
            )
    # --- accounting: fault counters internally consistent, accuracies sane.
    for window in result.windows:
        for stats in window.site_stats.values():
            if stats.transfer_retries > stats.transfers_failed:
                violations.append(
                    f"accounting: window {window.window_index} site "
                    f"{stats.site!r} has {stats.transfer_retries} retries > "
                    f"{stats.transfers_failed} failures"
                )
            for label, value in (
                ("retry_seconds", stats.retry_seconds),
                ("utilization", stats.utilization),
                ("profiling_gpu_seconds", stats.profiling_gpu_seconds),
                ("reclaimed_gpu_seconds", stats.reclaimed_gpu_seconds),
                ("wasted_gpu_seconds", stats.wasted_gpu_seconds),
            ):
                if not math.isfinite(value) or value < 0:
                    violations.append(
                        f"accounting: window {window.window_index} site "
                        f"{stats.site!r} {label}={value!r}"
                    )
        for name, fleet_outcome in window.stream_outcomes.items():
            accuracy = fleet_outcome.outcome.realized_average_accuracy
            if not math.isfinite(accuracy) or not 0.0 <= accuracy <= 1.0:
                violations.append(
                    f"accounting: window {window.window_index} stream "
                    f"{name!r} realized accuracy {accuracy!r}"
                )
        for migration in window.migrations:
            if not math.isfinite(migration.transfer_seconds) or (
                migration.transfer_seconds < 0
            ):
                violations.append(
                    f"accounting: window {window.window_index} migration of "
                    f"{migration.stream_name!r} has transfer_seconds="
                    f"{migration.transfer_seconds!r}"
                )
    return violations


def run_chaos_trial(
    seed: int,
    *,
    intensity: float = 1.0,
    quick: bool = False,
    num_sites: Optional[int] = None,
    streams_per_site: Optional[int] = None,
    num_windows: Optional[int] = None,
    window_duration: float = 200.0,
    gpus_per_site: int = 4,
    profile_sharing: bool = True,
    control_policy: str = "greedy",
) -> ChaosReport:
    """Run one seeded chaos schedule end to end and check the invariants.

    Builds a :class:`~repro.utils.clock.ManualClock` fleet (results are a
    pure function of the arguments), compiles the :class:`ChaosInjector`
    schedule for ``(seed, intensity)``, runs ``num_windows`` windows, and
    returns a :class:`ChaosReport` with any invariant violations.  ``quick``
    shrinks the default fleet shape for CI sweeps; explicit shape arguments
    win over both defaults.
    """
    shape_sites = num_sites if num_sites is not None else (3 if quick else 4)
    shape_streams = (
        streams_per_site if streams_per_site is not None else (2 if quick else 3)
    )
    shape_windows = num_windows if num_windows is not None else (6 if quick else 10)
    injector = ChaosInjector(seed=stable_seed("chaos-schedule", seed), intensity=intensity)
    clock = ManualClock()
    controller = make_fleet(
        shape_sites,
        shape_streams,
        gpus_per_site=gpus_per_site,
        window_duration=window_duration,
        seed=seed,
        clock=clock,
        profile_sharing=profile_sharing,
        wan_faults=injector.wan_faults(),
        control_policy=control_policy,
    )
    scenario = injector.compile(
        [site.name for site in controller.sites],
        window_duration=window_duration,
        num_windows=shape_windows,
        gpus_per_site=gpus_per_site,
    )
    simulator = FleetSimulator(controller, scenario, clock=clock)
    result = simulator.run(shape_windows)
    violations = check_invariants(
        controller, result, initial_streams=shape_sites * shape_streams
    )
    plane = simulator.telemetry
    # Telemetry accounting must stay exact under any fault schedule: the
    # ring never reports more live envelopes than its capacity, and the
    # drop counter is exactly the overflow beyond it.
    if plane.ring_occupancy > plane.ring_capacity:
        violations.append(
            f"telemetry accounting: ring occupancy {plane.ring_occupancy} "
            f"exceeds capacity {plane.ring_capacity}"
        )
    expected_drops = max(0, plane.events_recorded - plane.ring_capacity)
    if plane.events_dropped != expected_drops:
        violations.append(
            f"telemetry accounting: {plane.events_dropped} events dropped, "
            f"expected {expected_drops} "
            f"({plane.events_recorded} recorded, capacity {plane.ring_capacity})"
        )
    return ChaosReport(
        seed=seed,
        intensity=intensity,
        num_fault_events=len(scenario.events),
        violations=tuple(violations),
        summary=result.summary(),
        telemetry=plane.memory_report(),
    )
