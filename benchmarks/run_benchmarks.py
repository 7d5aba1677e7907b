#!/usr/bin/env python
"""Benchmark entry point with committed-regression gates.

Runs the scheduler benchmarks (paper operating point + 10→100-stream
scaling sweep) and the fleet-orchestration sweep (1→16 sites), appends
timestamped entries to ``BENCH_scheduler.json`` / ``BENCH_fleet.json``, and
fails (exit code 1) if the scheduler's decision latency at the operating
point has regressed more than 2× against the committed baseline in
``benchmarks/baselines/scheduler_baseline.json``, or the fleet sweep has
regressed against ``benchmarks/baselines/fleet_baseline.json``.

The gates compare *relative* quantities wherever possible — the wall-clock
speedup over the same-machine seed-path port, the PickConfigs evaluation
count and the (seed-deterministic) accuracies — so the check is meaningful
on hardware other than the one the baseline was recorded on.  Raw runtime
comparisons are additionally applied on developer machines, but skipped
when the ``CI`` environment variable is set: shared CI runners are not
comparable to the machine the baselines were recorded on.

``--quick`` runs the scheduler operating point plus an exact sharing-off
fleet parity check (the smallest baseline site count, compared bit for bit
against ``fleet_baseline.json`` — proving ``make_fleet``'s cross-site
profile sharing stays strictly opt-in), the telemetry memory bound, and
the control-policy gate (both arms of the cheapest reference scenario
must reproduce ``policy_baseline.json`` bit for bit, and the predictive
arm must not regress the fleet mean below greedy on the same calendar),
the horizon-flatness gate (exactly one drift-walk draw per stream-window
at 3 and 30 windows; off CI, seconds per window flat within 1.2x, see
``bench_horizon.py``) and the work-counter gate (the end-to-end
workloads' exact ledger counters over 3 windows against
``counters_baseline.json``, see ``bench_counters.py``), skipping the
scaling sweeps — the smoke mode CI uses on every PR.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--no-check] [--quick] \
        [--output BENCH_scheduler.json] [--baseline benchmarks/baselines/scheduler_baseline.json]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from bench_policy import (
    check_policy_against_baseline,
    check_quick_policy_gate,
    load_policy_baseline,
    measure_policy_ab,
)
from bench_counters import check_counters
from bench_horizon import check_time_growth, check_walk_draws, seconds_per_window
from bench_telemetry import check_quick_telemetry_bound, measure_telemetry_scaling
from fleet_bench_core import (
    BENCH_FLEET_JSON_PATH,
    FLEET_BASELINE_PATH,
    check_fleet_against_baseline,
    check_quick_fleet_parity,
    emit_fleet_bench_json,
    load_fleet_baseline,
    measure_failure_scenario,
    measure_fleet_scaling,
    measure_heterogeneous_fleet,
    measure_profile_sharing,
)
from scheduler_bench_core import (
    BASELINE_PATH,
    BENCH_JSON_PATH,
    emit_bench_json,
    load_baseline,
    measure_batched_planner,
    measure_operating_point,
    measure_scaling,
)

#: A run is a regression when it is more than this factor slower than the
#: committed baseline.
REGRESSION_FACTOR = 2.0


def _on_ci() -> bool:
    """Whether we are running on CI hardware (GitHub Actions sets ``CI``).

    The committed baselines were recorded on a developer machine; shared CI
    runners are routinely slower, so raw wall-clock comparisons would fail
    spuriously there.  The machine-independent gates (seed-path speedup,
    PickConfigs evaluation counts, accuracies) still apply everywhere.
    """
    return os.environ.get("CI", "").strip().lower() in ("1", "true", "yes")


def check_against_baseline(
    operating_point: dict, baseline: dict, *, compare_raw_runtime: bool = True
) -> list:
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    base_op = baseline.get("operating_point", {})

    base_runtime = base_op.get("scheduler_runtime_seconds")
    runtime = operating_point["scheduler_runtime_seconds"]
    if compare_raw_runtime and base_runtime and runtime > REGRESSION_FACTOR * base_runtime:
        failures.append(
            f"scheduler runtime {runtime * 1000:.1f} ms is more than "
            f"{REGRESSION_FACTOR:.0f}x the committed baseline "
            f"({base_runtime * 1000:.1f} ms)"
        )

    base_evaluations = base_op.get("pick_configs_evaluations")
    evaluations = operating_point["pick_configs_evaluations"]
    if base_evaluations and evaluations > REGRESSION_FACTOR * base_evaluations:
        failures.append(
            f"PickConfigs evaluations {evaluations} exceed "
            f"{REGRESSION_FACTOR:.0f}x the committed baseline ({base_evaluations})"
        )

    base_speedup = base_op.get("wall_clock_speedup")
    speedup = operating_point.get("wall_clock_speedup")
    if base_speedup and speedup and speedup < base_speedup / REGRESSION_FACTOR:
        failures.append(
            f"wall-clock speedup over the seed path fell to {speedup:.1f}x "
            f"(baseline {base_speedup:.1f}x)"
        )

    base_accuracy = base_op.get("estimated_average_accuracy")
    accuracy = operating_point["estimated_average_accuracy"]
    if base_accuracy and accuracy < base_accuracy - 1e-9:
        failures.append(
            f"estimated average accuracy {accuracy:.6f} fell below the "
            f"committed baseline {base_accuracy:.6f}"
        )
    return failures


def check_batched_planner(
    batched: dict, baseline: dict, *, compare_raw_runtime: bool = True
) -> list:
    """Gate the batched planner against the committed baseline.

    Two machine-independent checks apply everywhere: the batched schedule
    must be bit-identical to the scalar oracle's, and its deterministic
    counters (iterations, PickConfigs evaluations, estimated accuracy) must
    match the committed baseline exactly.  The same-machine speedup floor
    (``min_speedup``, committed as 4.5 at the 100-stream point) applies in
    full on developer machines; on CI runners — noisy shared hardware — it
    relaxes by ``REGRESSION_FACTOR``, mirroring the wall-clock convention.
    """
    failures = []
    gate = baseline.get("batched_planner", {})
    if not batched["decisions_identical"]:
        failures.append(
            f"batched planner diverged from the scalar oracle at "
            f"{batched['num_streams']} streams (decisions/counters/accuracy "
            f"must be bit-identical)"
        )
    for field in ("iterations", "pick_configs_evaluations", "estimated_average_accuracy"):
        expected = gate.get(field)
        if expected is not None and batched[field] != expected:
            failures.append(
                f"batched planner {field} is {batched[field]!r}, committed "
                f"baseline says {expected!r} (deterministic, must match exactly)"
            )
    floor = gate.get("min_speedup")
    if floor:
        required = floor if compare_raw_runtime else floor / REGRESSION_FACTOR
        if batched["batched_speedup"] < required:
            failures.append(
                f"batched planner speedup {batched['batched_speedup']:.2f}x at "
                f"{batched['num_streams']} streams fell below the committed "
                f"floor ({required:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON_PATH,
        help="trajectory JSON to append to (default: repo-root BENCH_scheduler.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help="committed baseline to gate against",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="record the run without gating against the baseline",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="operating point only: skip the stream-scaling and fleet sweeps",
    )
    parser.add_argument(
        "--fleet-output",
        type=Path,
        default=BENCH_FLEET_JSON_PATH,
        help="fleet trajectory JSON to append to (default: repo-root BENCH_fleet.json)",
    )
    parser.add_argument(
        "--fleet-baseline",
        type=Path,
        default=FLEET_BASELINE_PATH,
        help="committed fleet baseline to gate against",
    )
    args = parser.parse_args(argv)

    print("measuring operating point (10 streams x 8 GPUs x 18 configs, delta=0.1)...")
    operating_point = measure_operating_point()
    print(
        f"  runtime {operating_point['scheduler_runtime_seconds'] * 1000:.1f} ms | "
        f"evaluations {operating_point['pick_configs_evaluations']} | "
        f"accuracy {operating_point['estimated_average_accuracy']:.6f} | "
        f"speedup vs seed path {operating_point['wall_clock_speedup']:.1f}x"
    )

    print("measuring batched planner A/B (100 streams, scalar vs cohort-stacked)...")
    batched = measure_batched_planner()
    print(
        f"  scalar {batched['scalar_runtime_seconds'] * 1000:.1f} ms | "
        f"batched {batched['batched_runtime_seconds'] * 1000:.1f} ms | "
        f"speedup {batched['batched_speedup']:.2f}x | "
        f"identical {batched['decisions_identical']}"
    )

    scaling = []
    fleet_scaling = []
    if args.quick:
        # Smoke mode gates but does not record: a quick run has no scaling
        # sweeps, and appending degenerate entries would pollute the
        # committed trajectories.
        print("quick mode: trajectories not recorded")
    else:
        print("measuring scaling sweep (10 -> 100 streams)...")
        scaling = measure_scaling()
        for row in scaling:
            print(
                f"  {row['num_streams']:4d} streams: "
                f"{row['scheduler_runtime_seconds'] * 1000:8.1f} ms | "
                f"evaluations {row['pick_configs_evaluations']}"
            )
        path = emit_bench_json(operating_point, scaling, args.output, batched=batched)
        print(f"trajectory appended to {path}")

        print("measuring fleet scaling sweep (1 -> 16 sites, 25 streams/site)...")
        fleet_scaling = measure_fleet_scaling()
        for row in fleet_scaling:
            print(
                f"  {row['num_sites']:3d} sites / {row['num_streams']:3d} streams: "
                f"{row['wall_clock_seconds']:6.2f} s | "
                f"accuracy {row['mean_accuracy']:.4f} | "
                f"p10 {row['p10_worst_stream_accuracy']:.4f} | "
                f"migrations {row['migration_count']}"
            )
        print("measuring fleet failure scenario (flash crowd + site failure + WAN)...")
        scenario = measure_failure_scenario()
        print(
            f"  {len(scenario['evacuated_streams'])} streams evacuated | "
            f"accuracy {scenario['mean_accuracy']:.4f} | "
            f"migration cost {scenario['total_migration_seconds']:.0f} s"
        )
        print("measuring heterogeneous-window fleet (per-site calendars, mid-window failure)...")
        heterogeneous = measure_heterogeneous_fleet()
        print(
            f"  windows {heterogeneous['window_durations']} s | "
            f"{heterogeneous['num_cycles']} cycles / "
            f"{heterogeneous['events_processed']} events over "
            f"{heterogeneous['horizon_seconds']:.0f} s | "
            f"accuracy {heterogeneous['mean_accuracy']:.4f}"
        )
        print("measuring cross-site profile sharing (warm-started flash crowd)...")
        sharing = measure_profile_sharing()
        print(
            f"  profiling cost {sharing['profiling_gpu_seconds']:.1f} GPU-s | "
            f"saved {sharing['profiling_gpu_seconds_saved']:.1f} GPU-s | "
            f"accuracy on/off {sharing['mean_accuracy_sharing_on']:.4f}/"
            f"{sharing['mean_accuracy_sharing_off']:.4f}"
        )
        print("measuring telemetry footprint (16 sites x 400 streams, 3 vs 30 windows)...")
        telemetry = measure_telemetry_scaling()
        for point in telemetry["points"]:
            print(
                f"  {point['num_windows']:3d} windows: "
                f"{point['telemetry_bytes'] / 1024:7.0f} KiB telemetry | "
                f"{point['events_recorded']} events | "
                f"ring {point['ring_occupancy']}/{point['ring_capacity']}"
            )
        print(f"  footprint growth ratio {telemetry['footprint_growth_ratio']:.3f}x")
        print("measuring control-policy A/B (greedy vs predictive, 3 scenarios)...")
        policy = measure_policy_ab()
        for row in policy["scenarios"]:
            print(
                f"  {row['scenario']:16s} "
                f"p10 {row['greedy']['p10_worst_stream_accuracy']:.4f} -> "
                f"{row['predictive']['p10_worst_stream_accuracy']:.4f} | "
                f"wasted {row['greedy']['wasted_gpu_seconds']:7.2f} -> "
                f"{row['predictive']['wasted_gpu_seconds']:7.2f} GPU-s"
            )
        print(
            f"  predictive wins {policy['predictive_wins']} of "
            f"{policy['num_scenarios']} scenarios"
        )
        fleet_path = emit_fleet_bench_json(
            fleet_scaling,
            scenario,
            args.fleet_output,
            heterogeneous=heterogeneous,
            profile_sharing=sharing,
            telemetry=telemetry,
            policy=policy,
        )
        print(f"fleet trajectory appended to {fleet_path}")

    if args.no_check:
        return 0
    compare_raw = not _on_ci()
    if not compare_raw:
        print("CI environment detected: raw wall-clock gates skipped (relative gates still apply)")
    failures = []
    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"no committed baseline at {args.baseline}; skipping the scheduler gate")
    else:
        failures.extend(
            check_against_baseline(operating_point, baseline, compare_raw_runtime=compare_raw)
        )
        failures.extend(
            check_batched_planner(batched, baseline, compare_raw_runtime=compare_raw)
        )
    fleet_baseline = load_fleet_baseline(args.fleet_baseline)
    if fleet_baseline is None:
        print(f"no committed fleet baseline at {args.fleet_baseline}; skipping the fleet gate")
    elif args.quick:
        # Smoke mode still proves cross-site profile sharing is strictly
        # opt-in: the sharing-off fleet must reproduce the committed
        # baseline's deterministic metrics bit for bit.
        print("checking sharing-off fleet parity against the committed baseline...")
        failures.extend(check_quick_fleet_parity(fleet_baseline))
    else:
        failures.extend(
            check_fleet_against_baseline(
                fleet_scaling, fleet_baseline, compare_wall_clock=compare_raw
            )
        )
    if args.quick:
        # The telemetry plane's memory bound is cheap enough to gate on
        # every quick run: the committed quick shape must stay flat across
        # window counts and under the absolute byte bound.
        print("checking telemetry memory bound against the committed baseline...")
        failures.extend(check_quick_telemetry_bound())
        # And the control-policy plane: both arms must match the committed
        # baseline bit for bit, and the predictive arm must not regress the
        # fleet mean below greedy on the same calendar.
        print("checking control-policy gate against the committed baseline...")
        failures.extend(check_quick_policy_gate())
        # Cost per window must not grow with simulated time: the drift walk
        # draws are counted exactly everywhere, seconds per window off CI.
        print("checking horizon flatness (drift-walk draws per stream-window)...")
        failures.extend(check_walk_draws())
        if compare_raw:
            per_window = seconds_per_window()
            print("  " + " | ".join(
                f"{windows} windows {seconds * 1000:.1f} ms/window"
                for windows, seconds in per_window.items()
            ))
            failures.extend(check_time_growth(per_window))
        # Same decisions, same work: the end-to-end workloads' ledger
        # counters must match the committed baseline exactly.
        print("checking work counters of the end-to-end workloads (exact)...")
        failures.extend(check_counters())
    else:
        policy_baseline = load_policy_baseline()
        if policy_baseline is None:
            print("no committed policy baseline; skipping the policy gate")
        else:
            failures.extend(check_policy_against_baseline(policy, policy_baseline))
    if failures:
        print("REGRESSION DETECTED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("no regression against the committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
