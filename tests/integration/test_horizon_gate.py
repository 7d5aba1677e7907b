"""The horizon-flatness gate of ``run_benchmarks.py --quick`` (``benchmarks/bench_horizon.py``).

Its exact counter gate must pass on the engine and fail on an injected
regression: ``drift_magnitude`` put back to the stateless replay of the
drift walk from window 0, which draws O(window) steps per query.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import AppearanceDrift

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_horizon():
    spec = importlib.util.spec_from_file_location(
        "bench_horizon", REPO_ROOT / "benchmarks" / "bench_horizon.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replayed_drift_magnitude(self, from_window, to_window):
    """``drift_magnitude`` computed by replaying the walk for both windows."""
    start = self.offsets_for_window(from_window)
    end = self.offsets_for_window(to_window)
    return float(np.mean(np.linalg.norm(end - start, axis=1)))


class TestHorizonFlatnessGate:
    def test_walk_draws_are_exactly_one_per_stream_window(self, bench_horizon):
        assert bench_horizon.check_walk_draws() == []
        counts = bench_horizon.count_walk_draws(3)
        assert counts == {"stream_windows": 60, "walk_draws": 60}

    def test_gate_fails_on_the_stateless_replay(self, bench_horizon, monkeypatch):
        monkeypatch.setattr(AppearanceDrift, "drift_magnitude", replayed_drift_magnitude)
        failures = bench_horizon.check_walk_draws()
        assert len(failures) == 2
        assert all("must be exactly one per stream-window" in message for message in failures)

    def test_time_gate_bounds_the_per_window_growth(self, bench_horizon):
        assert bench_horizon.check_time_growth({3: 0.010, 30: 0.012}) == []
        failures = bench_horizon.check_time_growth({3: 0.010, 30: 0.0158})
        assert len(failures) == 1
        assert "1.58x" in failures[0]
