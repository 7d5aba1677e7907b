"""End-to-end fleet benchmark: one command prints every metric and checks outputs.

Runs each workload of ``BENCHMARK.json`` in fresh worker subprocesses
(``harness.py``) with BLAS/OpenMP pinned to one thread, and prints a report
followed, as the last stdout line of each workload, by one JSON object::

    {"correct": true, "attempted": 80, "failed": 0,
     "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}

Untraced runs (the default) report the end-to-end metrics.  ``--trace`` runs
the workload in three lanes of one worker, stepped in lockstep — a
reference, a copy whose cycles run with every layer wrapped, and a copy that
counts the drift walk's steps (see ``layers.py``) — checks that all three
produce the same outcome digest, and reports the per-layer ledger instead,
with the tracing overhead.  The spans are written to ``--trace-out DIR``
when it is given; otherwise they are only summarised.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload steady_long --seed 0
    python3 benchmarks/e2e/run.py --workload chaos_fleet --trace 1
    python3 benchmarks/e2e/run.py --smoke            # every workload, 2 cycles

Every run of a workload does the same fixed work, so ``--seconds`` (part of
the common benchmark command line) is accepted but changes nothing; each
workload's repetitions are sized to take about ``run_seconds`` of
``BENCHMARK.json``.  The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LAYERS, PER_LAYER_UNITS, ROOT, SUBSTRATE

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
HARNESS = HERE / "harness.py"
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Every end-to-end metric an untraced run reports, with its unit.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "stream_windows_per_s": "1/s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p75": "ms",
    "horizon_growth": "ratio",
    "peak_rss_mb": "MiB",
    "mean_accuracy": "fraction",
    "p10_accuracy": "fraction",
}

#: Worker start-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
#: One BLAS/OpenMP thread, and a fixed string-hash seed so dict layouts (and
#: their cache behaviour) do not vary from one worker process to the next.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    """A worker subprocess died without reporting a result."""


def run_worker(args: Sequence[str], *, setup_only: bool = False) -> Tuple[float, dict]:
    """Run one harness subprocess; returns (seconds until ``ready``, its result)."""
    args = [*args, "--setup-only"] if setup_only else list(args)
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HARNESS), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, **PINNED_ENV),
        cwd=REPO_ROOT,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        tail = proc.stdout.read().strip().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    command = f"harness {' '.join(args)}"
    if ready.strip() != "ready":
        raise WorkerError(f"{command} exited {proc.returncode} during set-up")
    if setup_only:
        return setup_s, {}
    try:
        return setup_s, json.loads(tail[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{command} exited {proc.returncode} without a result") from exc


def horizon_growth(rep_cycle_s: List[List[float]], windows: int) -> float:
    """Median cycle time of the repetitions' last quarter over their first quarter."""
    quarter = max(1, windows // 4)
    complete = [cycles for cycles in rep_cycle_s if len(cycles) == windows]
    first = [seconds for cycles in complete for seconds in cycles[:quarter]]
    last = [seconds for cycles in complete for seconds in cycles[-quarter:]]
    return statistics.median(last) / statistics.median(first)


def end_to_end(result: dict, setup_samples: List[float]) -> Dict[str, float]:
    cycles = [seconds for rep in result["rep_cycle_s"] for seconds in rep]
    return {
        "setup_s": statistics.median(setup_samples),
        "stream_windows_per_s": result["stream_windows"] / sum(cycles),
        "cycle_ms_p50": 1e3 * statistics.median(cycles),
        "cycle_ms_p75": 1e3 * statistics.quantiles(cycles, n=4)[2],
        "horizon_growth": horizon_growth(result["rep_cycle_s"], result["windows"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "mean_accuracy": result["mean_accuracy"],
        "p10_accuracy": result["p10_accuracy"],
    }


def _base_args(workload: str, seed: int, smoke: bool) -> List[str]:
    return ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])


def measure(workload: str, seed: int, smoke: bool) -> Tuple[dict, list]:
    """Untraced run: the timed worker between set-up probes.

    Half the probes run before the worker and half after it, so a slow spell
    of the host rarely covers most of the set-up samples.
    """
    base = _base_args(workload, seed, smoke)
    probes = 0 if smoke else (SETUP_SAMPLES - 1) // 2

    def probe() -> List[float]:
        return [run_worker(base, setup_only=True)[0] for _ in range(probes)]

    samples = probe()
    setup_s, result = run_worker(base)
    samples += [setup_s, *probe()]
    try:
        values = end_to_end(result, samples)
    except (ZeroDivisionError, statistics.StatisticsError):
        values = {}  # too few cycles survived to measure; the run has failed
    cycles = sum(len(rep) for rep in result["rep_cycle_s"])
    lines = [
        f"cycles: {cycles} ({len(result['rep_cycle_s'])} reps x {result['windows']} windows), "
        f"passes: {result['passes']} (each cycle's shortest time kept), "
        f"stream-windows: {result['stream_windows']}, set-up samples: {len(samples)}",
        f"outcome_digest: {result['digest']}",
    ]
    return _verdict(result, values, END_TO_END_UNITS, result["problems"], lines)


def trace(
    workload: str, seed: int, smoke: bool, trace_out: Optional[Path]
) -> Tuple[dict, list]:
    """Traced run: reference, traced and walk-counting lanes, in lockstep."""
    out = [] if trace_out is None else ["--trace-out", str(trace_out)]
    reference = run_worker(_base_args(workload, seed, smoke) + ["--trace", *out])[1]
    traced, counted = reference["traced"], reference["counted"]
    values = dict(traced["layers"])
    # Median over the cycle pairs the two lanes ran back to back: robust to
    # host-speed bursts that hit single cycles.
    values["trace.overhead"] = statistics.median(
        traced_s / reference_s
        for traced_rep, reference_rep in zip(traced["rep_cycle_s"], reference["rep_cycle_s"])
        for traced_s, reference_s in zip(traced_rep, reference_rep)
    )
    lanes = (reference, traced, counted)
    problems = [problem for lane in lanes for problem in lane["problems"]]
    identical = all(lane["digest"] == reference["digest"] for lane in lanes)
    if not identical:
        problems.append("instrumenting changed the outcome digest")
    if values["simulation.settle_calls"] != traced["stream_windows"]:
        problems.append(
            f"{values['simulation.settle_calls']} settle calls for "
            f"{traced['stream_windows']} stream-windows"
        )
    shares = sorted(
        ((values[f"{layer}.share"], layer) for layer in LAYERS if layer != ROOT), reverse=True
    )
    non_substrate = [layer for _, layer in shares if layer not in SUBSTRATE]
    lines = [
        f"outcome_digest: {reference['digest']} "
        f"(traced: {'identical' if identical else 'different'})",
        "self-time ledger: "
        + ", ".join(f"{layer} {100 * share:.1f}%" for share, layer in shares),
        f"bottleneck: {shares[0][1]}; largest non-substrate layer: {non_substrate[0]}",
        f"spans: {traced.get('trace_file', 'not written (no --trace-out)')}",
    ]
    combined = {
        "attempted": sum(lane["attempted"] for lane in lanes),
        "failed": sum(lane["failed"] for lane in lanes),
    }
    return _verdict(combined, values, PER_LAYER_UNITS, problems, lines)


def _verdict(
    counts: dict,
    values: Dict[str, float],
    units: Dict[str, str],
    problems: List[str],
    lines: List[str],
) -> Tuple[dict, list]:
    """The JSON result line plus the report lines; any problem makes it incorrect."""
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    correct = counts["failed"] == 0 and not problems and len(metrics) == len(units)
    lines = lines + [f"failed: {counts['failed']} of {counts['attempted']} cycles"]
    lines += [f"  problem: {problem}" for problem in problems]
    lines += [
        f"  {name:<40}{metric['value']:>16.6g}  {metric['unit']}"
        for name, metric in metrics.items()
    ]
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="accepted for the common command line; the work is fixed"
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", type=Path, help="write the spans here (default: not)")
    parser.add_argument("--smoke", action="store_true", help="2 cycles per workload")
    parser.add_argument("--jsonl", type=Path, help="append one record per workload here")
    args = parser.parse_args(argv)
    all_correct = True
    for workload in [args.workload] if args.workload else workloads:
        try:
            if args.trace:
                result, lines = trace(workload, args.seed, args.smoke, args.trace_out)
            else:
                result, lines = measure(workload, args.seed, args.smoke)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        print(f"== {workload} seed={args.seed} trace={args.trace}")
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        if args.jsonl is not None:
            record = {"workload": workload, "seed": args.seed, "trace": args.trace, **result}
            with args.jsonl.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
