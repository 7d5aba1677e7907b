"""Self-test of the end-to-end fleet benchmark on its ``--smoke`` shapes.

Two cycles per workload keep the whole module at a few seconds; the full
shapes are exercised by ``run.py`` itself.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from layers import EXACT_COUNTERS, WalkStepCounter

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
DIGEST = re.compile(r"^outcome_digest: ([0-9a-f]{64})(.*)$", re.MULTILINE)


def _run(*args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.stdout, results


@pytest.fixture(scope="module")
def untraced():
    return _run()


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("spans"))
    return [
        _run("--workload", "chaos_fleet", "--trace", "1", "--trace-out", out) for _ in range(2)
    ]


def _units(section: str):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_every_metric_is_printed_with_its_unit(untraced, traced_twice):
    _, results = untraced
    assert len(results) == len(BENCHMARK["workloads"])
    for result in results + [traced[1][0] for traced in traced_twice]:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for result in results:
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == _units("end_to_end")
    for _, (result,) in traced_twice:
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == _units("per_layer")


def test_exact_counters_repeat_across_traced_runs(traced_twice):
    (_, (first,)), (_, (second,)) = traced_twice
    for name in EXACT_COUNTERS:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_tracing_leaves_the_outcome_digest_unchanged(untraced, traced_twice):
    untraced_digests = [match.group(1) for match in DIGEST.finditer(untraced[0])]
    chaos = [entry["name"] for entry in BENCHMARK["workloads"]].index("chaos_fleet")
    for stdout, _ in traced_twice:
        (match,) = DIGEST.finditer(stdout)
        assert match.group(1) == untraced_digests[chaos]
        assert match.group(2) == " (traced: identical)"


def test_walk_steps_count_the_draws_actually_made(monkeypatch):
    from repro.datasets.classes import ClassTaxonomy
    from repro.datasets.drift import AppearanceDrift, DriftProfile

    drift = AppearanceDrift(ClassTaxonomy(), DriftProfile(), feature_dim=4, seed=0)
    plain = drift.offsets_for_window(3)
    walk, cache = AppearanceDrift.offsets_for_window, {}

    def cached(self, window):
        if window not in cache:
            cache[window] = walk(self, window)
        return cache[window]

    monkeypatch.setattr(AppearanceDrift, "offsets_for_window", cached)
    counter = WalkStepCounter()
    counter.install()
    try:
        counted = [drift.offsets_for_window(3) for _ in range(2)]
    finally:
        counter.uninstall()
    assert counter.steps == 4  # windows 0..3, walked once; the cache hit draws nothing
    assert all((offsets == plain).all() for offsets in counted)


def test_passes_keep_each_cycles_shortest_time_and_must_agree():
    def outcome(rep_cycle_s, digest):
        return {
            "rep_cycle_s": rep_cycle_s,
            "attempted": 3,
            "failed": 0,
            "problems": [],
            "digest": digest,
            "peak_rss_mb": 90.0,
        }

    first = outcome([[0.3, 0.5], [0.4]], "d")
    merged = harness.best_of([first, outcome([[0.4, 0.2], [0.1]], "d")])
    assert merged["rep_cycle_s"] == [[0.3, 0.2], [0.1]]
    assert (merged["attempted"], merged["passes"], merged["problems"]) == (6, 2, [])
    replayed_differently = harness.best_of([first, outcome([[0.3, 0.5], [0.4]], "e")])
    assert replayed_differently["problems"] == ["a later pass changed the outcome digest"]


def test_compare_judges_accuracy_exactly_per_seed():
    import compare

    parent = {0: 0.61, 1: 0.62}
    assert compare.exact_verdict(parent, {0: 0.61, 1: 0.62}, "higher") == "within"
    assert compare.exact_verdict(parent, {0: 0.61, 1: 0.6199}, "higher") == "worse"
    assert compare.exact_verdict(parent, {0: 0.61, 1: 0.6201}, "higher") == "better"
    assert compare.exact_verdict(parent, {2: 0.62}, "higher") == "unresolved"


def test_compare_resolves_a_paired_gain_smaller_than_the_bound():
    import compare

    parent = {seed: 300.0 + 3.0 * seed for seed in range(10)}
    faster = {seed: 0.88 * value for seed, value in parent.items()}
    assert compare.verdict(parent, faster, 0.25, "lower") == "better"
    assert compare.verdict(faster, parent, 0.25, "lower") == "within"
    assert compare.verdict(parent, {s: 1.3 * v for s, v in parent.items()}, 0.25, "lower") == (
        "worse"
    )


def test_out_of_range_accuracy_fails_the_run(monkeypatch, capsys):
    import repro.simulation.simulator as simulator

    estimate = simulator.estimate_stream_average_accuracy

    def out_of_range(**kwargs):
        return dataclasses.replace(estimate(**kwargs), average_accuracy=1.5)

    monkeypatch.setattr(simulator, "estimate_stream_average_accuracy", out_of_range)
    code = harness.main(["--workload", "steady_long", "--seed", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] == result["attempted"] == harness.SMOKE_WINDOWS
    assert any("accuracy 1.5" in problem for problem in result["problems"])
