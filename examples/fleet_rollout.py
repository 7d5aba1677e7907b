"""Fleet rollout on the event calendar: heterogeneous windows, mid-window events.

A four-site fleet where the two metro sites retrain on 200 s windows while
the two smaller neighbourhood sites run faster 150 s windows — impossible
under the old shared window index, natural on the event calendar: every site
gets its own ``WindowBoundary`` events and the scenario is time-indexed in
absolute seconds, so events fire mid-window:

* t=310 s — a flash crowd of six traffic cameras comes online (mid-window
  for every site),
* t=480 s — site-1's WAN backhaul degrades to a quarter of its uplink until
  t=1000 s,
* t=650 s — site-0 fails outright; its streams are evacuated over the WAN
  (paying checkpoint + profile transfer mid-window, so the next window at
  the destination only pays the transfer time still remaining) and it
  recovers at t=1050 s.

A 75 s control tick runs admission/rebalancing on its own cadence, decoupled
from window boundaries — the async control plane.  The demo prints the
per-cycle fleet state, the full event trace, and a comparison of the three
admission policies on the same workload and scenario.

Run with:  PYTHONPATH=src python examples/fleet_rollout.py
"""

from __future__ import annotations

from repro.fleet import (
    FlashCrowd,
    FleetSimulator,
    MigrationStarted,
    Scenario,
    SiteFailure,
    WanDegradation,
    WindowBoundary,
    make_fleet,
)

NUM_SITES = 4
STREAMS_PER_SITE = 5
#: Metro sites on 200 s windows, neighbourhood sites on 150 s (cycled).
WINDOW_DURATIONS = (200.0, 150.0)
HORIZON_SECONDS = 1600.0
CONTROL_INTERVAL = 75.0


def scenario() -> Scenario:
    return Scenario(
        events=[
            FlashCrowd(at_seconds=310.0, num_streams=6, dataset="urban_traffic"),
            WanDegradation(
                at_seconds=480.0, site="site-1", uplink_factor=0.25, until_at=1000.0
            ),
            SiteFailure(at_seconds=650.0, site="site-0", recovery_at=1050.0),
        ]
    )


def build_simulator(admission: str) -> FleetSimulator:
    controller = make_fleet(
        NUM_SITES,
        STREAMS_PER_SITE,
        dataset="cityscapes",
        gpus_per_site=2,
        window_duration=WINDOW_DURATIONS,
        admission=admission,
        seed=0,
    )
    return FleetSimulator(controller, scenario(), control_interval=CONTROL_INTERVAL)


def main() -> None:
    simulator = build_simulator("accuracy_greedy")
    result = simulator.run_until(HORIZON_SECONDS)

    durations = " / ".join(
        f"{site.name}:{site.spec.window_duration:.0f}s"
        for site in simulator.controller.sites
    )
    print(
        f"{NUM_SITES} sites x {STREAMS_PER_SITE} streams over {HORIZON_SECONDS:.0f} s, "
        f"windows {durations},\ncontrol tick every {CONTROL_INTERVAL:.0f} s, "
        f"admission = {result.admission_policy}\n"
    )
    print(
        f"{'cycle':<6} {'t(s)':>6} {'streams':>7} {'accuracy':>9} {'migrations':>11} "
        f"{'failed':>10}  per-site streams"
    )
    for window in result.windows:
        sites = ", ".join(
            f"{name}:{stats.num_streams}" for name, stats in sorted(window.site_stats.items())
        )
        failed = ",".join(window.failed_sites) or "-"
        print(
            f"{window.window_index:<6} {window.start_seconds:>6.0f} "
            f"{window.num_streams:>7} {window.mean_accuracy:>9.3f} "
            f"{len(window.migrations):>11} {failed:>10}  {sites}"
        )

    boundary_times = {
        event.time for event in simulator.event_trace if isinstance(event, WindowBoundary)
    }
    mid_window = [
        marker
        for marker in simulator.event_trace
        if isinstance(marker, MigrationStarted) and marker.time not in boundary_times
    ]
    summary = result.summary()
    print(
        f"\nfleet mean accuracy {summary['mean_accuracy']:.3f} | "
        f"p10 worst-stream {summary['p10_worst_stream_accuracy']:.3f} | "
        f"{summary['migration_count']} migrations, {len(mid_window)} started "
        f"mid-window ({summary['migrations_by_reason']}) costing "
        f"{summary['total_migration_seconds']:.0f} s of WAN transfer | "
        f"quantisation loss {summary['mean_allocation_loss']:.2f} GPU/window"
    )

    print(f"\nEvent trace ({len(simulator.event_trace)} events):")
    for event in simulator.event_trace:
        print(f"  {event.describe()}")

    print("\nAdmission-policy comparison (same workload and scenario):")
    print(f"{'policy':<18} {'mean acc':>9} {'p10 worst':>10} {'migrations':>11}")
    for admission in ("least_loaded", "accuracy_greedy", "random"):
        comparison = build_simulator(admission).run_until(HORIZON_SECONDS)
        print(
            f"{comparison.admission_policy:<18} {comparison.mean_accuracy:>9.3f} "
            f"{comparison.worst_stream_accuracy(10.0):>10.3f} "
            f"{comparison.migration_count:>11}"
        )

    # ----------------------------------------------------- profile sharing
    # Rerun the same fleet with cross-site profile sharing enabled: every
    # site pushes its micro-profiled curves into a fleet-wide store (as
    # ProfilePush events paying real WAN uplink time), and the flash crowd's
    # streams warm-start from their neighbours' curves instead of profiling
    # the full configuration grid.
    controller = make_fleet(
        NUM_SITES,
        STREAMS_PER_SITE,
        dataset="cityscapes",
        gpus_per_site=2,
        window_duration=WINDOW_DURATIONS,
        admission="accuracy_greedy",
        seed=0,
        profile_sharing=True,
    )
    shared = FleetSimulator(
        controller, scenario(), control_interval=CONTROL_INTERVAL
    ).run_until(HORIZON_SECONDS)
    sharing_summary = shared.summary()
    store = controller.profile_sharing.store
    print(
        f"\nWith cross-site profile sharing: "
        f"{store.num_pushes} profile pushes over the WAN "
        f"({len(store)} (dataset, drift-regime) keys), "
        f"micro-profiling cost {sharing_summary['profiling_gpu_seconds']:.0f} GPU-s, "
        f"warm starts saved {sharing_summary['profiling_gpu_seconds_saved']:.0f} GPU-s "
        f"| mean accuracy {sharing_summary['mean_accuracy']:.3f}"
    )

    # -------------------------------------------------- mid-window preemption
    # Every site is event-driven.  In a three-site fleet, site-0 fails ten
    # seconds into window 1 — while its retrainings are still in flight.
    # The evacuation cancels them mid-window (the streams keep their stale
    # models) and the reclaimed GPU-seconds accelerate
    # nothing on the dead site, but the trace shows the full event grammar:
    # plan at the boundary, InferenceReconfigured(retraining_cancelled) at
    # the failure, RetrainingComplete settles on the survivors, and stale
    # rescheduled completions popping as silent no-ops.
    preemptive = make_fleet(3, 4, dataset="cityscapes", gpus_per_site=2, seed=0)
    outage = Scenario(
        events=[SiteFailure(at_seconds=210.0, site="site-0", recovery_at=800.0)]
    )
    preemptive_sim = FleetSimulator(preemptive, outage)
    preemptive_result = preemptive_sim.run_until(1000.0)
    preemptive_summary = preemptive_result.summary()
    print(
        f"\nMid-window preemption (failure at t=210 s): "
        f"{preemptive_summary['retrainings_cancelled']} in-flight retrainings "
        f"cancelled, {preemptive_summary['reclaimed_gpu_seconds']:.0f} GPU-s "
        f"reclaimed | mean accuracy {preemptive_summary['mean_accuracy']:.3f}"
    )
    print("Preemption event trace around the failure (t in [200, 270] s):")
    for event in preemptive_sim.event_trace:
        if 200.0 <= event.time <= 270.0:
            print(f"  {event.describe()}")

    # ---------------------------------------------------- Prometheus export
    # Every summary key of the preemption run, rendered as the Prometheus
    # text format by the telemetry plane (scripts/export_metrics.py is the
    # standalone CLI for this exposition).
    print("\nPrometheus exposition of the preemption run:")
    for line in preemptive_sim.telemetry.export_text(preemptive_result).splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
