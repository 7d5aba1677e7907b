"""Control-policy A/B benchmark: greedy vs predictive on seeded calendars.

Replays the three committed reference scenarios of
:mod:`repro.fleet.policy.ab` — flash crowd, WAN degradation, GPU flaps —
under both the default greedy rebalancer and the predictive profit policy,
and reports fleet mean accuracy, the p10 worst-stream accuracy, wasted
GPU-seconds and migration cost per arm.  All metrics are deterministic in
the scenario seed, so the committed baseline
(``benchmarks/baselines/policy_baseline.json``) gates them exactly::

    PYTHONPATH=src python benchmarks/bench_policy.py

``run_benchmarks.py --quick`` runs :func:`check_quick_policy_gate` on
every PR: both arms of the cheapest scenario must reproduce the committed
baseline bit for bit (the policy plane's default path must never drift,
and the predictive scan must not change a decision unnoticed), and the
predictive arm must not regress the fleet mean below the greedy arm on
that same calendar.  The full run appends the whole A/B table to
``BENCH_fleet.json`` under a ``policy`` key.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_io import append_trajectory, load_json_if_exists  # noqa: E402
from fleet_bench_core import BENCH_FLEET_JSON_PATH  # noqa: E402

from repro.fleet.policy.ab import (  # noqa: E402
    COMPARED_METRICS,
    reference_scenarios,
    run_policy_ab,
)

POLICY_BASELINE_PATH = (
    Path(__file__).resolve().parent / "baselines" / "policy_baseline.json"
)

#: The scenario the ``--quick`` gate replays (cheapest of the reference set).
QUICK_SCENARIO = "flash_crowd"


def measure_policy_ab() -> Dict:
    """Run the full reference A/B suite; one comparison row per scenario."""
    rows = []
    wins = 0
    for comparison in run_policy_ab():
        wins += comparison.predictive_wins
        rows.append(
            {
                "scenario": comparison.scenario,
                "greedy": dict(comparison.greedy.metrics),
                "predictive": dict(comparison.predictive.metrics),
                "deltas": comparison.deltas,
                "predictive_wins": comparison.predictive_wins,
            }
        )
    return {
        "scenarios": rows,
        "predictive_wins": wins,
        "num_scenarios": len(rows),
    }


def load_policy_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    return load_json_if_exists(path if path is not None else POLICY_BASELINE_PATH)


def check_policy_against_baseline(measured: Dict, baseline: Dict) -> List[str]:
    """Exact-match gate: the A/B table is deterministic in the seeds.

    The greedy arm is additionally the *default* control plane, so any
    drift there is a silent behaviour change of every existing fleet run;
    the predictive arm drifting means the profit model changed without the
    committed baseline being regenerated deliberately.
    """
    failures: List[str] = []
    base_rows = {row["scenario"]: row for row in baseline.get("scenarios", [])}
    for row in measured["scenarios"]:
        base = base_rows.get(row["scenario"])
        if base is None:
            failures.append(
                f"committed policy baseline has no {row['scenario']!r} scenario"
            )
            continue
        for arm in ("greedy", "predictive"):
            for metric in COMPARED_METRICS:
                got, want = row[arm][metric], base[arm][metric]
                if got != want:
                    failures.append(
                        f"{row['scenario']} {arm} {metric} is {got!r}, committed "
                        f"baseline says {want!r} (must match exactly)"
                    )
    base_wins = baseline.get("predictive_wins")
    if base_wins is not None and measured["predictive_wins"] < base_wins:
        failures.append(
            f"predictive wins {measured['predictive_wins']} of "
            f"{measured['num_scenarios']} scenarios, committed baseline "
            f"says {base_wins}"
        )
    return failures


def check_quick_policy_gate(path: Optional[Path] = None) -> List[str]:
    """The ``run_benchmarks.py --quick`` gate: one scenario, both arms.

    Replays the cheapest reference scenario under both policies and checks
    (a) both arms reproduce the committed baseline bit for bit — the greedy
    arm is the default engine, and a predictive metric that moves means the
    profit scan changed a decision — and (b) the predictive arm's fleet
    mean does not regress below the greedy arm on the identical calendar.
    """
    baseline = load_policy_baseline(path)
    specs = [spec for spec in reference_scenarios() if spec.name == QUICK_SCENARIO]
    comparison = run_policy_ab(specs)[0]
    failures: List[str] = []
    if baseline is not None:
        base_rows = {row["scenario"]: row for row in baseline.get("scenarios", [])}
        base = base_rows.get(QUICK_SCENARIO)
        if base is None:
            failures.append(
                f"committed policy baseline has no {QUICK_SCENARIO!r} scenario "
                "to check the quick gate against"
            )
        else:
            arms = {"greedy": comparison.greedy, "predictive": comparison.predictive}
            for arm, result in arms.items():
                for metric in COMPARED_METRICS:
                    got, want = result.metrics[metric], base[arm][metric]
                    if got != want:
                        failures.append(
                            f"{arm} arm {QUICK_SCENARIO} {metric} is {got!r}, "
                            f"committed baseline says {want!r} (must match exactly)"
                        )
    greedy_mean = comparison.greedy.metrics["mean_accuracy"]
    predictive_mean = comparison.predictive.metrics["mean_accuracy"]
    if predictive_mean < greedy_mean - 1e-9:
        failures.append(
            f"predictive fleet mean {predictive_mean:.6f} regressed below the "
            f"greedy arm {greedy_mean:.6f} on the {QUICK_SCENARIO} calendar"
        )
    return failures


def main(argv=None) -> int:
    print("measuring control-policy A/B (greedy vs predictive, 3 scenarios)...")
    measured = measure_policy_ab()
    for row in measured["scenarios"]:
        print(
            f"  {row['scenario']:16s} "
            f"p10 {row['greedy']['p10_worst_stream_accuracy']:.4f} -> "
            f"{row['predictive']['p10_worst_stream_accuracy']:.4f} | "
            f"wasted {row['greedy']['wasted_gpu_seconds']:7.2f} -> "
            f"{row['predictive']['wasted_gpu_seconds']:7.2f} GPU-s | "
            f"{'win' if row['predictive_wins'] else 'tie/loss'}"
        )
    print(
        f"  predictive wins {measured['predictive_wins']} of "
        f"{measured['num_scenarios']} scenarios"
    )
    path = append_trajectory(BENCH_FLEET_JSON_PATH, {"policy": measured})
    print(f"policy trajectory appended to {path}")
    baseline = load_policy_baseline()
    if baseline is None:
        print(f"no committed policy baseline at {POLICY_BASELINE_PATH}; not gated")
        return 0
    failures = check_policy_against_baseline(measured, baseline)
    if failures:
        print("POLICY REGRESSION DETECTED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("policy A/B matches the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
