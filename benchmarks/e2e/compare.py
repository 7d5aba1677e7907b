"""Agreement between two sets of end-to-end benchmark runs.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each input line is one record appended by ``run.py --jsonl FILE`` (traced
records are skipped).  Run both sets on the same seeds, alternating which
side runs first.  For every workload x end-to-end metric of
``BENCHMARK.json`` the tool prints each set's median and quartiles and a
verdict.  Timing and memory metrics are judged, in this order, as:

* ``worse`` — B's median moved against the metric's direction by more than
  the bound, as a share of A's median;
* ``better`` — B beat A on at least nine tenths of the seeds run in both
  sets, and the medians differ by more than A's interquartile range, so a
  gain smaller than the bound still resolves;
* ``unresolved`` — a set's interquartile range, as a share of its median, is
  wider than the bound, so the sets cannot be told apart at that bound;
* ``within`` — otherwise.

The accuracy metrics (:data:`PER_SEED_EXACT`) are a pure function of the
seed, so they are compared seed by seed and must be identical: ``worse`` if
any seed run in both sets moved against the metric's direction, ``better``
if some moved with it and none against, ``within`` if none moved, and
``unresolved`` if the sets share no seed.

Exits 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)

#: Metrics that repeat exactly for one seed; compared per seed, with no bound.
PER_SEED_EXACT = frozenset({"mean_accuracy", "p10_accuracy"})

#: ``(workload, metric) -> {seed: value}``.
Runs = Dict[Tuple[str, str], Dict[int, float]]


def load(path: Path) -> Runs:
    """The untraced records of ``path``; a seed run twice keeps its last value."""
    values: Runs = defaultdict(dict)
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)][record["seed"]] = metric["value"]
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _moves(a: Dict[int, float], b: Dict[int, float], better: str) -> List[float]:
    """B minus A per seed run in both sets, positive where B is better."""
    sign = 1.0 if better == "higher" else -1.0
    return [sign * (b[seed] - a[seed]) for seed in sorted(a.keys() & b.keys())]


def verdict(a: Dict[int, float], b: Dict[int, float], bound: float, better: str) -> str:
    a1, a_median, a3 = quartiles(list(a.values()))
    b1, b_median, b3 = quartiles(list(b.values()))
    gain = (b_median - a_median) / a_median
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    moves = _moves(a, b, better)
    wins = sum(move > 0 for move in moves)
    if gain > 0 and moves and wins >= 0.9 * len(moves) and abs(b_median - a_median) > a3 - a1:
        return "better"
    if (a3 - a1) / a_median > bound or (b3 - b1) / b_median > bound:
        return "unresolved"
    return "within"


def exact_verdict(a: Dict[int, float], b: Dict[int, float], better: str) -> str:
    moves = _moves(a, b, better)
    if not moves:
        return "unresolved"
    if any(move < 0 for move in moves):
        return "worse"
    if any(move > 0 for move in moves):
        return "better"
    return "within"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    print(
        f"{'workload':<12} {'metric':<21} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict"
    )
    failing = 0
    for workload in (entry["name"] for entry in BENCHMARK["workloads"]):
        for metric in BENCHMARK["end_to_end"]:
            key = (workload, metric["name"])
            if not a.get(key) or not b.get(key):
                continue
            a_values, b_values = list(a[key].values()), list(b[key].values())
            if metric["name"] in PER_SEED_EXACT:
                result = exact_verdict(a[key], b[key], metric["better"])
                bound = "exact"
            else:
                result = verdict(a[key], b[key], metric["bound"], metric["better"])
                bound = f"{metric['bound']:.0%}"
            failing += result in ("worse", "unresolved")
            cells = []
            for values in (a_values, b_values):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            change = quartiles(b_values)[1] / quartiles(a_values)[1] - 1.0
            print(
                f"{workload:<12} {metric['name']:<21} {cells[0]:>30} {cells[1]:>30} "
                f"{change:>+8.1%} {bound:>6}  {result}"
            )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
