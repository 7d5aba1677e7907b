"""Exact work counters of the end-to-end workloads.

Ekya's claim to efficiency rests on the work the scheduler does per window:
dynamics queries, thief steal iterations, PickConfigs evaluations.  Those
counts are a pure function of the seed, so a refactor that claims "same
decisions, same or less work" can be checked exactly.  This benchmark runs
each workload of the end-to-end benchmark (``benchmarks/e2e/harness.py``)
for :data:`WINDOWS` windows at seed :data:`SEED` under that benchmark's
outside-in :class:`~layers.Tracer` and compares :data:`COUNTERS` exactly
against ``benchmarks/baselines/counters_baseline.json``.

Any difference fails the gate.  A change that lowers a counter on purpose
re-records the baseline (``--record``, which prints every value it changes
as ``name@workload old → new`` before writing) and lists those lines in its
change notes::

    PYTHONPATH=src python benchmarks/bench_counters.py [--record]

``run_benchmarks.py --quick`` runs the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from harness import WORKLOADS  # noqa: E402
from layers import Tracer  # noqa: E402

#: Windows each workload runs for.
WINDOWS = 3
#: Seed each workload is built with.
SEED = 0
#: Ledger counters compared, in report order.
COUNTERS = (
    "profiles.queries",
    "core.planner.steal_iterations",
    "core.planner.pick_configs_evaluations",
    "fleet.calendar.events_popped",
    "simulation.settle_calls",
    "fleet.control.migrations",
)
COUNTERS_BASELINE_PATH = HERE / "baselines" / "counters_baseline.json"


def count_work(workload: str) -> Dict[str, int]:
    """:data:`COUNTERS` of one :data:`WINDOWS`-window run of ``workload``."""
    _, simulator = WORKLOADS[workload].build(SEED, WINDOWS)
    tracer = Tracer()
    tracer.install()
    try:
        for window in range(WINDOWS):
            simulator.run_window(window)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(walk_steps=0, telemetry_bytes=0, events_dropped=0)
    return {name: int(metrics[name]) for name in COUNTERS}


def measure_counters() -> Dict[str, Dict[str, int]]:
    return {workload: count_work(workload) for workload in WORKLOADS}


def load_counters_baseline() -> Dict[str, Dict[str, int]]:
    with COUNTERS_BASELINE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def compare_counters(
    measured: Dict[str, Dict[str, int]], baseline: Dict[str, Dict[str, int]]
) -> List[str]:
    """Every counter that differs from the baseline, as a readable message."""
    failures = []
    for workload in sorted(set(measured) | set(baseline)):
        if workload not in measured or workload not in baseline:
            failures.append(f"{workload}: present in only one of run and baseline")
            continue
        for name in COUNTERS:
            got, expected = measured[workload].get(name), baseline[workload].get(name)
            if got != expected:
                failures.append(
                    f"{name}@{workload} is {got}, baseline says {expected} "
                    "(exact; re-record the baseline only for a deliberate decrease)"
                )
    return failures


def check_counters() -> List[str]:
    """The gate: measure every workload and compare it exactly."""
    return compare_counters(measure_counters(), load_counters_baseline())


def record_changes(
    measured: Dict[str, Dict[str, int]], baseline: Dict[str, Dict[str, int]]
) -> List[str]:
    """Every value a re-record changes, as ``name@workload old → new``."""
    return [
        f"{name}@{workload} {baseline.get(workload, {}).get(name)} → {counts[name]}"
        for workload, counts in measured.items()
        for name in COUNTERS
        if baseline.get(workload, {}).get(name) != counts[name]
    ]


def record() -> None:
    """Print every value that changes, then write the new baseline."""
    measured = measure_counters()
    baseline = load_counters_baseline() if COUNTERS_BASELINE_PATH.exists() else {}
    for change in record_changes(measured, baseline):
        print(f"  {change}")
    payload = {
        "seed": SEED,
        "windows": WINDOWS,
        "counters": list(COUNTERS),
        "workloads": measured,
    }
    COUNTERS_BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="re-record the baseline")
    args = parser.parse_args(argv)
    if args.record:
        record()
        print(f"baseline written to {COUNTERS_BASELINE_PATH}")
        return 0
    measured = measure_counters()
    for workload, counts in measured.items():
        print(f"  {workload:12s} " + " | ".join(f"{name} {counts[name]}" for name in COUNTERS))
    failures = compare_counters(measured, load_counters_baseline())
    if failures:
        print("WORK COUNTERS CHANGED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("work counters match the baseline exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
