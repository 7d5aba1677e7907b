"""The control-policy gate of ``run_benchmarks.py --quick`` (``benchmarks/bench_policy.py``).

Both arms of the quick scenario must match the committed baseline exactly,
so a predictive scan that changes one decision cannot pass on the greedy
arm alone.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_policy():
    spec = importlib.util.spec_from_file_location(
        "bench_policy", REPO_ROOT / "benchmarks" / "bench_policy.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickPolicyGate:
    def test_both_arms_match_the_committed_baseline(self, bench_policy):
        assert bench_policy.check_quick_policy_gate() == []

    def test_one_ulp_on_a_predictive_metric_fails(self, bench_policy, tmp_path):
        baseline = bench_policy.load_policy_baseline()
        (row,) = [
            row for row in baseline["scenarios"] if row["scenario"] == bench_policy.QUICK_SCENARIO
        ]
        committed = row["predictive"]["mean_accuracy"]
        row["predictive"]["mean_accuracy"] = math.nextafter(committed, math.inf)
        path = tmp_path / "policy_baseline.json"
        path.write_text(json.dumps(baseline))
        failures = bench_policy.check_quick_policy_gate(path)
        assert len(failures) == 1
        assert failures[0].startswith(
            f"predictive arm {bench_policy.QUICK_SCENARIO} mean_accuracy is {committed!r}"
        )
