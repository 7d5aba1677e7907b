"""The work-counter gate of ``run_benchmarks.py --quick`` (``benchmarks/bench_counters.py``).

Its exact comparison must pass on the engine and fail on an injected
regression: one extra ``start_accuracy`` dynamics query in a whole run.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.simulation import Simulator

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_counters():
    spec = importlib.util.spec_from_file_location(
        "bench_counters", REPO_ROOT / "benchmarks" / "bench_counters.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inject_one_extra_query(monkeypatch):
    """The first window request of the run also asks its first stream's start accuracy."""
    prepare_request = Simulator.prepare_request
    injected = []

    def with_extra_query(self, window_index):
        if not injected:
            injected.append(window_index)
            self.dynamics.start_accuracy(self.server.streams[0], window_index)
        return prepare_request(self, window_index)

    monkeypatch.setattr(Simulator, "prepare_request", with_extra_query)


class TestWorkCounterGate:
    def test_every_workload_matches_the_baseline_exactly(self, bench_counters):
        baseline = bench_counters.load_counters_baseline()
        assert set(baseline) == {"steady_long", "dense_sites", "chaos_fleet"}
        assert bench_counters.check_counters() == []

    def test_gate_fails_on_one_extra_dynamics_query(self, bench_counters, monkeypatch):
        inject_one_extra_query(monkeypatch)
        measured = bench_counters.count_work("steady_long")
        expected = bench_counters.load_counters_baseline()["steady_long"]
        failures = bench_counters.compare_counters(
            {"steady_long": measured}, {"steady_long": expected}
        )
        assert measured["profiles.queries"] == expected["profiles.queries"] + 1
        assert len(failures) == 1
        assert failures[0].startswith("profiles.queries@steady_long is ")

    def test_record_lists_every_changed_value(self, bench_counters):
        baseline = {"steady_long": {name: 1 for name in bench_counters.COUNTERS}}
        measured = {
            "steady_long": dict(baseline["steady_long"], **{"simulation.settle_calls": 2}),
            "dense_sites": {name: 3 for name in bench_counters.COUNTERS},
        }
        changes = bench_counters.record_changes(measured, baseline)
        assert changes[0] == "simulation.settle_calls@steady_long 1 → 2"
        assert changes[1:] == [
            f"{name}@dense_sites None → 3" for name in bench_counters.COUNTERS
        ]
