"""Shared measurement core for the fleet-orchestration benchmarks.

Used by ``bench_fleet_scaling.py`` and the ``run_benchmarks.py`` entry point.
Two measurements:

* :func:`measure_fleet_scaling` — the site sweep (1 → 16 sites at 25
  streams/site, i.e. up to 400 concurrent streams fleet-wide), recording
  wall-clock, fleet mean accuracy, the p10 worst-stream accuracy, migrations
  and quantisation loss for every point.
* :func:`measure_failure_scenario` — a fixed chaos run (flash crowd, site
  failure with forced evacuation + recovery, WAN degradation) whose accuracy
  trajectory documents the migration/recovery behaviour.
* :func:`measure_heterogeneous_fleet` — the event-calendar capability run:
  per-site window durations advanced through
  :meth:`~repro.fleet.simulator.FleetSimulator.run_until` with a mid-window
  time-indexed failure (recorded in the trajectory, not gated).
* :func:`measure_profile_sharing` — a flash-crowd run with cross-site
  profile sharing enabled, recording the micro-profiling GPU-seconds the
  fleet store's warm starts saved (trajectory only, not gated).

All are deterministic in the seed except for wall-clock, so the committed
baseline in ``benchmarks/baselines/fleet_baseline.json`` can gate accuracy
exactly and runtime by ratio; :func:`check_quick_fleet_parity` additionally
asserts — in CI's ``--quick`` smoke mode — that a sharing-off fleet still
reproduces the committed baseline's deterministic metrics bit for bit.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_io import append_trajectory, load_json_if_exists

from repro.fleet import (
    FlashCrowd,
    FleetSimulator,
    Scenario,
    SiteFailure,
    WanDegradation,
    make_fleet,
)

#: The fleet sweep's shape: 25 streams/site on 4-GPU sites, 3 shared windows.
SITE_COUNTS = (1, 2, 4, 8, 16)
STREAMS_PER_SITE = 25
GPUS_PER_SITE = 4
NUM_WINDOWS = 3
SEED = 0

#: Default location of the emitted benchmark trajectory.
BENCH_FLEET_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"
FLEET_BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "fleet_baseline.json"


def build_fleet_simulator(
    num_sites: int,
    streams_per_site: int = STREAMS_PER_SITE,
    *,
    scenario: Optional[Scenario] = None,
    admission: str = "least_loaded",
    seed: int = SEED,
) -> FleetSimulator:
    controller = make_fleet(
        num_sites,
        streams_per_site,
        gpus_per_site=GPUS_PER_SITE,
        admission=admission,
        seed=seed,
    )
    return FleetSimulator(controller, scenario)


def measure_fleet_scaling(site_counts: Sequence[int] = SITE_COUNTS) -> List[Dict]:
    """Wall-clock / accuracy trajectory for a growing number of sites."""
    rows = []
    for num_sites in site_counts:
        simulator = build_fleet_simulator(num_sites)
        result = simulator.run(NUM_WINDOWS)
        wall = result.wall_clock_seconds
        summary = result.summary()
        rows.append(
            {
                "num_sites": num_sites,
                "num_streams": num_sites * STREAMS_PER_SITE,
                "num_windows": NUM_WINDOWS,
                "wall_clock_seconds": wall,
                "seconds_per_window": wall / NUM_WINDOWS,
                "mean_accuracy": summary["mean_accuracy"],
                "p10_worst_stream_accuracy": summary["p10_worst_stream_accuracy"],
                "migration_count": summary["migration_count"],
                "mean_utilization": summary["mean_utilization"],
                "mean_allocation_loss": summary["mean_allocation_loss"],
            }
        )
    return rows


def failure_scenario() -> Scenario:
    """The documented chaos run: burst, failure + recovery, WAN degradation.

    Times are window starts on the default 200 s windows: the burst at
    window 1, site-0's WAN degraded over windows 2-4, site-1 down over
    windows 3-4.
    """
    return Scenario(
        events=[
            FlashCrowd(at_seconds=200.0, num_streams=8, dataset="urban_traffic"),
            WanDegradation(at_seconds=400.0, site="site-0", uplink_factor=0.25, until_at=1000.0),
            SiteFailure(at_seconds=600.0, site="site-1", recovery_at=1000.0),
        ]
    )


def measure_failure_scenario(
    *, num_sites: int = 4, streams_per_site: int = 10, num_windows: int = 7
) -> Dict:
    """Accuracy trajectory of the chaos run, including the evacuation dip."""
    simulator = build_fleet_simulator(
        num_sites, streams_per_site, scenario=failure_scenario()
    )
    result = simulator.run(num_windows)
    evacuated = sorted(
        {
            event.stream_name
            for window in result.windows
            for event in window.migrations
            if event.reason == "evacuation"
        }
    )
    per_window_evacuee_accuracy = []
    for window in result.windows:
        values = [
            window.stream_outcomes[name].effective_average_accuracy
            for name in evacuated
            if name in window.stream_outcomes
        ]
        per_window_evacuee_accuracy.append(
            sum(values) / len(values) if values else None
        )
    summary = result.summary()
    summary.update(
        {
            "per_window_mean_accuracy": [w.mean_accuracy for w in result.windows],
            "evacuated_streams": evacuated,
            "per_window_evacuee_accuracy": per_window_evacuee_accuracy,
        }
    )
    return summary


def measure_heterogeneous_fleet(
    *,
    num_sites: int = 4,
    streams_per_site: int = 10,
    window_durations: Sequence[float] = (200.0, 150.0),
    horizon_seconds: float = 1200.0,
) -> Dict:
    """A per-site-window fleet on one calendar, with a mid-window failure.

    Exercises the event-calendar capabilities the shared-window engine could
    not express: heterogeneous ``window_duration`` s and a time-indexed
    ``SiteFailure`` firing between boundaries.  Recorded in the trajectory
    for documentation; not part of the regression gate.
    """
    controller = make_fleet(
        num_sites,
        streams_per_site,
        gpus_per_site=GPUS_PER_SITE,
        window_duration=window_durations,
        seed=SEED,
    )
    scenario = Scenario(
        events=[SiteFailure(at_seconds=330.0, site="site-0", recovery_at=700.0)]
    )
    simulator = FleetSimulator(controller, scenario)
    result = simulator.run_until(horizon_seconds)
    summary = result.summary()
    summary.update(
        {
            "window_durations": list(window_durations),
            "horizon_seconds": horizon_seconds,
            "num_cycles": len(result.windows),
            "cycle_starts": [w.start_seconds for w in result.windows],
            "events_processed": len(simulator.event_trace),
        }
    )
    return summary


def measure_profile_sharing(
    *, num_sites: int = 2, streams_per_site: int = 6, num_windows: int = 4
) -> Dict:
    """Saved micro-profiling cost of fleet-wide profile sharing.

    The same flash-crowd workload runs twice — sharing off (the default
    engine) and sharing on — and the entry records the profiling
    GPU-seconds the warm starts saved, plus both runs' accuracy for
    context.  Documentation only; the regression gates stay sharing-off.
    """
    scenario = Scenario(
        events=[FlashCrowd(at_seconds=400.0, num_streams=4, dataset="cityscapes")]
    )

    def run(profile_sharing: bool):
        controller = make_fleet(
            num_sites,
            streams_per_site,
            gpus_per_site=GPUS_PER_SITE,
            seed=SEED,
            profile_sharing=profile_sharing,
        )
        simulator = FleetSimulator(controller, scenario)
        return simulator.run(num_windows)

    off, on = run(False), run(True)
    on_summary = on.summary()
    return {
        "num_sites": num_sites,
        "streams_per_site": streams_per_site,
        "num_windows": num_windows,
        "profiling_gpu_seconds": on_summary["profiling_gpu_seconds"],
        "profiling_gpu_seconds_saved": on_summary["profiling_gpu_seconds_saved"],
        "per_window_saved": [w.profiling_gpu_seconds_saved for w in on.windows],
        "mean_accuracy_sharing_on": on.mean_accuracy,
        "mean_accuracy_sharing_off": off.mean_accuracy,
    }


def emit_fleet_bench_json(
    scaling: List[Dict],
    scenario: Optional[Dict] = None,
    path: Optional[Path] = None,
    heterogeneous: Optional[Dict] = None,
    profile_sharing: Optional[Dict] = None,
    telemetry: Optional[Dict] = None,
    policy: Optional[Dict] = None,
) -> Path:
    """Append one timestamped entry to the ``BENCH_fleet.json`` trajectory."""
    entry: Dict = {"scaling": scaling}
    if scenario is not None:
        entry["failure_scenario"] = scenario
    if heterogeneous is not None:
        entry["heterogeneous"] = heterogeneous
    if profile_sharing is not None:
        entry["profile_sharing"] = profile_sharing
    if telemetry is not None:
        entry["telemetry"] = telemetry
    if policy is not None:
        entry["policy"] = policy
    return append_trajectory(path if path is not None else BENCH_FLEET_JSON_PATH, entry)


def load_fleet_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    return load_json_if_exists(path if path is not None else FLEET_BASELINE_PATH)


#: Deterministic per-row metrics the quick parity gate compares bit for bit.
QUICK_PARITY_FIELDS = (
    "mean_accuracy",
    "p10_worst_stream_accuracy",
    "migration_count",
    "mean_utilization",
    "mean_allocation_loss",
)


def check_quick_fleet_parity(baseline: Dict, *, num_sites: int = 1) -> List[str]:
    """Exact sharing-off parity against the committed fleet baseline.

    Cross-site profile sharing must be strictly opt-in: with the default
    ``make_fleet(profile_sharing=False)`` the fleet engine has to reproduce
    the committed ``fleet_baseline.json`` metrics *bit for bit* (they are
    deterministic in the seed).  This runs the baseline's smallest site
    count — cheap enough for CI's ``--quick`` smoke mode — and compares
    every deterministic field with ``==``, no tolerance.
    """
    rows = {row["num_sites"]: row for row in baseline.get("scaling", [])}
    base = rows.get(num_sites)
    if base is None:
        return [
            f"committed fleet baseline has no {num_sites}-site row to check "
            f"sharing-off parity against"
        ]
    simulator = build_fleet_simulator(num_sites)
    summary = simulator.run(NUM_WINDOWS).summary()
    failures = []
    for field in QUICK_PARITY_FIELDS:
        if summary[field] != base[field]:
            failures.append(
                f"sharing-off fleet {field} at {num_sites} site(s) is "
                f"{summary[field]!r}, committed baseline says {base[field]!r} "
                f"(must match exactly)"
            )
    return failures


def check_fleet_against_baseline(
    scaling: List[Dict],
    baseline: Dict,
    *,
    regression_factor: float = 2.0,
    compare_wall_clock: bool = True,
) -> List[str]:
    """Human-readable regression messages against the committed baseline.

    Accuracy metrics are deterministic in the seed, so they are gated
    exactly; wall-clock is machine-dependent, gated by ratio at the largest
    common site count and skippable (``compare_wall_clock=False``) on CI
    hardware that is not comparable to the machine the baseline was
    recorded on.
    """
    failures: List[str] = []
    base_rows = {row["num_sites"]: row for row in baseline.get("scaling", [])}
    rows = {row["num_sites"]: row for row in scaling}
    common = sorted(set(base_rows) & set(rows))
    if not common:
        return ["no common site counts between run and committed fleet baseline"]
    largest = common[-1]
    run, base = rows[largest], base_rows[largest]
    if compare_wall_clock and run["wall_clock_seconds"] > regression_factor * base["wall_clock_seconds"]:
        failures.append(
            f"fleet sweep at {largest} sites took {run['wall_clock_seconds']:.2f} s, "
            f"more than {regression_factor:.0f}x the committed baseline "
            f"({base['wall_clock_seconds']:.2f} s)"
        )
    for num_sites in common:
        run_row, base_row = rows[num_sites], base_rows[num_sites]
        if run_row["mean_accuracy"] < base_row["mean_accuracy"] - 1e-9:
            failures.append(
                f"fleet mean accuracy at {num_sites} sites fell to "
                f"{run_row['mean_accuracy']:.6f} (baseline {base_row['mean_accuracy']:.6f})"
            )
        if (
            run_row["p10_worst_stream_accuracy"]
            < base_row["p10_worst_stream_accuracy"] - 1e-9
        ):
            failures.append(
                f"p10 worst-stream accuracy at {num_sites} sites fell to "
                f"{run_row['p10_worst_stream_accuracy']:.6f} "
                f"(baseline {base_row['p10_worst_stream_accuracy']:.6f})"
            )
    return failures
