"""The documentation cannot rot: the README quickstart must execute,
every relative link in the docs tree must resolve, and every documented
``make_fleet``/``FleetSimulator``/``FleetController`` call must pass only
keywords the current signature accepts.

These are the same checks CI's ``docs`` job runs (``python -m doctest
README.md`` and ``scripts/check_docs.py``); running them in the tier-1
suite catches a stale snippet or a dangling link before it ever reaches a
PR.
"""

import doctest
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocumentation:
    def test_readme_exists_with_quickstart(self):
        readme = REPO_ROOT / "README.md"
        assert readme.exists()
        text = readme.read_text(encoding="utf-8")
        assert ">>> from repro.fleet import" in text, "quickstart must be a doctest"
        assert 'outage.summary()["retrainings_cancelled"] >= 1' in text, (
            "the README must show a mid-window preemption"
        )

    def test_readme_quickstart_executes(self):
        """The README's fenced examples run exactly as printed."""
        results = doctest.testfile(
            str(REPO_ROOT / "README.md"), module_relative=False, verbose=False
        )
        assert results.attempted > 0, "the README must contain doctest examples"
        assert results.failed == 0

    def test_docs_tree_exists(self):
        assert (REPO_ROOT / "docs" / "architecture.md").exists()
        assert (REPO_ROOT / "docs" / "events.md").exists()

    def test_all_relative_links_resolve(self):
        check_docs = _load_check_docs()
        files = check_docs.documentation_files(REPO_ROOT)
        assert len(files) >= 3  # README + architecture + events
        failures = []
        for path in files:
            failures.extend(check_docs.broken_links(path))
        assert failures == []

    def test_documented_fleet_calls_use_current_keywords(self):
        check_docs = _load_check_docs()
        files = check_docs.documentation_files(REPO_ROOT)
        assert sum(len(check_docs.documented_calls(path)) for path in files) > 0
        stale = [message for path in files for message in check_docs.stale_keywords(path)]
        assert stale == []

    def test_a_removed_keyword_is_reported(self, tmp_path):
        doc = tmp_path / "stale.md"
        doc.write_text(
            "Size it with `make_fleet(4, 6, seed=0, telemetry=...)`.\n\n"
            ">>> simulator = FleetSimulator(\n"
            "...     controller, clock=clock, telemetry=plane\n"
            "... )\n",
            encoding="utf-8",
        )
        stale = _load_check_docs().stale_keywords(doc)
        assert len(stale) == 2
        assert stale[0].endswith("stale.md:1: make_fleet() has no keyword 'telemetry'")
        assert stale[1].endswith("stale.md:3: FleetSimulator() has no keyword 'telemetry'")

    def test_events_doc_covers_every_summary_key(self):
        """The metrics appendix documents each FleetResult.summary() key."""
        from repro.fleet import FleetSimulator, make_fleet
        from repro.utils.clock import ManualClock

        clock = ManualClock()
        controller = make_fleet(1, 2, gpus_per_site=2, seed=0, clock=clock)
        summary = FleetSimulator(controller, clock=clock).run(1).summary()
        text = (REPO_ROOT / "docs" / "events.md").read_text(encoding="utf-8")
        for key in summary:
            assert f"`{key}`" in text, f"docs/events.md must document {key!r}"

    def test_events_doc_covers_the_event_hierarchy(self):
        text = (REPO_ROOT / "docs" / "events.md").read_text(encoding="utf-8")
        for event in (
            "SiteRecovery",
            "WanRestore",
            "GpuRecovered",
            "ScenarioTrigger",
            "TransferArrival",
            "TransferFailed",
            "RetrainingComplete",
            "InferenceReconfigured",
            "ProfilePush",
            "ControlTick",
            "WindowBoundary",
        ):
            assert event in text, f"docs/events.md must describe {event}"
