"""Smoke tests for every ``scripts/`` CLI entry point.

Each script is exercised exactly the way an operator (or CI) invokes it —
as a subprocess — covering three things per tool: a successful run at the
smallest useful shape (exit 0, expected stdout), the machine-readable
output where the tool offers one (``--json`` / Prometheus exposition,
parsed and shape-checked), and the failure paths (unknown flags exit 2 via
argparse; domain failures exit 1 with a diagnostic).  These tests pin the
public command-line contract so a refactor cannot silently change exit
codes or output shapes that automation depends on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args, timeout=300):
    """Run ``scripts/<name>`` as a subprocess, capturing text output."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO_ROOT,
    )


class TestRunAnalysis:
    def test_list_rules_exits_clean(self):
        proc = run_script("run_analysis.py", "--list-rules")
        assert proc.returncode == 0, proc.stderr
        # Every registered rule prints as "CODE  name: description".
        assert "REP001" in proc.stdout

    def test_json_report_shape(self):
        # A known-clean repo file (tier-1 keeps the whole tree strict-clean),
        # scanned with the default root so cross-check rules resolve.
        clean = REPO_ROOT / "src" / "repro" / "__init__.py"
        proc = run_script("run_analysis.py", "--json", str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert set(report) == {"root", "files_scanned", "rules_run", "findings"}
        assert report["files_scanned"] == 1
        assert report["findings"] == []

    def test_strict_fails_on_findings(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nNOW = time.time()\n", encoding="utf-8")
        proc = run_script("run_analysis.py", "--strict", "--root", str(tmp_path), str(dirty))
        assert proc.returncode == 1
        assert "REP001" in proc.stdout

    def test_unknown_flag_exits_2(self):
        proc = run_script("run_analysis.py", "--no-such-flag")
        assert proc.returncode == 2
        assert "no-such-flag" in proc.stderr


class TestRunChaos:
    def test_quick_sweep_passes(self):
        proc = run_script("run_chaos.py", "--seeds", "2", "--quick")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "seed   0: ok" in proc.stdout
        assert "all 2 seeds passed" in proc.stdout

    def test_zero_intensity_is_lossless(self):
        proc = run_script(
            "run_chaos.py", "--seeds", "1", "--quick", "--intensity", "0"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "transfers_failed=  0" in proc.stdout

    def test_unknown_flag_exits_2(self):
        proc = run_script("run_chaos.py", "--chaos", "9")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()


class TestRunPolicyAb:
    def test_single_scenario_with_json_table(self, tmp_path):
        out = tmp_path / "ab.json"
        proc = run_script(
            "run_policy_ab.py", "--scenario", "flash_crowd", "--json", str(out)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "predictive wins" in proc.stdout
        table = json.loads(out.read_text(encoding="utf-8"))
        assert [row["scenario"] for row in table["scenarios"]] == ["flash_crowd"]
        row = table["scenarios"][0]
        assert set(row) >= {"scenario", "greedy", "predictive", "deltas", "predictive_wins"}
        for arm in ("greedy", "predictive"):
            assert "p10_worst_stream_accuracy" in row[arm]

    def test_unknown_scenario_exits_2_and_lists_choices(self):
        proc = run_script("run_policy_ab.py", "--scenario", "meteor_strike")
        assert proc.returncode == 2
        assert "meteor_strike" in proc.stderr
        assert "flash_crowd" in proc.stderr

    def test_unknown_flag_exits_2(self):
        proc = run_script("run_policy_ab.py", "--frobnicate")
        assert proc.returncode == 2


class TestExportMetrics:
    def test_prometheus_exposition_shape(self):
        proc = run_script(
            "export_metrics.py",
            "--sites", "1", "--streams", "1", "--gpus", "1", "--windows", "1",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        samples = [line for line in lines if line and not line.startswith("#")]
        assert samples, "exposition carried no metric samples"
        for line in samples:
            name, _, value = line.rpartition(" ")
            assert name.startswith("ekya_"), line
            float(value)  # every sample value parses as a number
        assert any(line.startswith("ekya_fleet_mean_accuracy ") for line in samples)

    def test_unknown_flag_exits_2(self):
        proc = run_script("export_metrics.py", "--sites", "1", "--turbo")
        assert proc.returncode == 2


class TestCheckDocs:
    def test_repository_docs_all_resolve(self):
        proc = run_script("check_docs.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all links resolve" in proc.stdout

    def test_broken_link_fails_with_location(self, tmp_path):
        # The script resolves its repo root from its own location, so a
        # copy in a scratch tree checks that tree's docs instead of ours.
        scripts_dir = tmp_path / "scripts"
        scripts_dir.mkdir()
        shutil.copy(SCRIPTS / "check_docs.py", scripts_dir / "check_docs.py")
        (tmp_path / "README.md").write_text(
            "see [the missing page](docs/missing.md)\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, str(scripts_dir / "check_docs.py")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "README.md:1" in proc.stdout
        assert "docs/missing.md" in proc.stdout

    def test_unknown_flag_is_ignored_free_zone(self):
        # check_docs takes no arguments; anything extra must not crash it
        # into a traceback — it simply checks the tree as usual.
        proc = run_script("check_docs.py", "--json")
        assert proc.returncode in (0, 1)
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "script",
    ["run_analysis.py", "run_chaos.py", "run_policy_ab.py", "export_metrics.py"],
)
def test_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
