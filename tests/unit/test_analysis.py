"""Fixture-based tests for the determinism analyzer (``repro.analysis``).

Each rule gets a positive snippet (the violation is found), a negative
snippet (idiomatic engine code passes) and a suppression snippet (an inline
``# repro: ignore[REPxxx]`` shields the finding without tripping the
REP000 unused-suppression warning).  The structural rules additionally run
against *mutated copies* of the real cross-check targets — a drifted
``docs/events.md`` priority table must be caught — and the whole registry
must come back clean on the repository itself, which is exactly what the CI
``analysis`` job enforces with ``scripts/run_analysis.py --strict``.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

from repro.analysis import default_rules, run_analysis
from repro.analysis.context import FileContext, ImportMap, parse_suppressions
from repro.analysis.findings import SEVERITY_WARNING
from repro.analysis.rules_clock import WallClockRule
from repro.analysis.rules_events import (
    FrozenEventRule,
    PriorityTableRule,
    collect_event_classes,
    parse_priority_table,
)
from repro.analysis.rules_export import SummaryCoverageRule, parse_metrics_table
from repro.analysis.rules_ordering import IdTieBreakRule, SetIterationRule
from repro.analysis.rules_rng import UnseededRngRule

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _analyze(root: Path, files, rules, *, report_unused_suppressions=True):
    """Write ``files`` (relpath → source) under ``root`` and analyze them."""
    paths = [_write(root, relpath, source) for relpath, source in files.items()]
    return run_analysis(
        paths,
        root=root,
        rules=rules,
        report_unused_suppressions=report_unused_suppressions,
    )


def _codes(report):
    return [finding.code for finding in report.findings]


# --------------------------------------------------------------------------
# Suppression parsing
# --------------------------------------------------------------------------
class TestSuppressions:
    def test_single_and_multi_code(self):
        source = "x = 1  # repro: ignore[REP003]\ny = 2  # repro: ignore[REP003, REP004] why\n"
        assert parse_suppressions(source) == {1: {"REP003"}, 2: {"REP003", "REP004"}}

    def test_docstring_example_is_not_a_suppression(self):
        source = '"""Example::\n\n    x = 1  # repro: ignore[REP001]\n"""\nx = 2\n'
        assert parse_suppressions(source) == {}

    def test_import_alias_resolution(self):
        tree = FileContext(
            "m.py",
            "",
            __import__("ast").parse(
                "import numpy as np\nfrom time import perf_counter as pc\n"
            ),
        ).tree
        imports = ImportMap.of(tree)
        call = __import__("ast").parse("np.random.default_rng()").body[0].value
        assert imports.resolve_call(call.func) == "numpy.random.default_rng"
        call = __import__("ast").parse("pc()").body[0].value
        assert imports.resolve_call(call.func) == "time.perf_counter"


# --------------------------------------------------------------------------
# REP001 — wall clock
# --------------------------------------------------------------------------
class TestWallClockRule:
    def test_positive(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    import time
                    from time import perf_counter as pc

                    def run():
                        start = time.time()
                        return pc() - start
                    """
            },
            [WallClockRule()],
        )
        assert _codes(report) == ["REP001", "REP001"]
        assert "time.time" in report.findings[0].message

    def test_negative_injected_clock_and_allowlist(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    def run(clock):
                        return clock.now()
                    """,
                "src/utils/clock.py": """
                    import time

                    def wall():
                        return time.perf_counter()
                    """,
            },
            [WallClockRule()],
        )
        assert report.findings == []

    def test_suppression_shields_and_counts_as_used(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    import time

                    def run():
                        return time.time()  # repro: ignore[REP001] -- log timestamp only
                    """
            },
            [WallClockRule()],
        )
        assert report.findings == []  # shielded, and no REP000 either


# --------------------------------------------------------------------------
# REP002 — unseeded / module-global RNG
# --------------------------------------------------------------------------
class TestUnseededRngRule:
    def test_positive(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    import random
                    import numpy as np

                    def run():
                        random.shuffle([])
                        np.random.seed(0)
                        a = np.random.uniform()
                        b = np.random.default_rng()
                        c = np.random.default_rng(seed=None)
                        return a, b, c
                    """
            },
            [UnseededRngRule()],
        )
        assert _codes(report) == ["REP002"] * 5

    def test_negative_seeded_generators(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    import numpy as np
                    from numpy.random import default_rng

                    def run(seed):
                        rng = np.random.default_rng(7)
                        other = default_rng(seed=seed)
                        return rng.uniform() + other.uniform()
                    """
            },
            [UnseededRngRule()],
        )
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    import numpy as np

                    entropy = np.random.default_rng()  # repro: ignore[REP002] -- demo script
                    """
            },
            [UnseededRngRule()],
        )
        assert report.findings == []


# --------------------------------------------------------------------------
# REP003 — set iteration in fleet modules
# --------------------------------------------------------------------------
class TestSetIterationRule:
    def test_positive_in_fleet_scope(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/fleet/mod.py": """
                    def run(names, other):
                        for name in set(names):
                            print(name)
                        order = list(names.union(other))
                        picks = [n for n in {"a", "b"}]
                        return order, picks
                    """
            },
            [SetIterationRule()],
        )
        assert _codes(report) == ["REP003"] * 3

    def test_negative_outside_scope_and_sorted(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                # Same set iteration outside fleet/: out of scope.
                "src/core/mod.py": """
                    def run(names):
                        return [n for n in set(names)]
                    """,
                # In scope, but sorted() and dict iteration are fine.
                "src/fleet/ok.py": """
                    def run(names, table):
                        for name in sorted(set(names)):
                            print(name)
                        return [key for key in table]
                    """,
            },
            [SetIterationRule()],
        )
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/fleet/mod.py": """
                    def run(names):
                        return list(set(names))  # repro: ignore[REP003] -- re-sorted by caller
                    """
            },
            [SetIterationRule()],
        )
        assert report.findings == []


# --------------------------------------------------------------------------
# REP004 — id()/hash() tie-breaks
# --------------------------------------------------------------------------
class TestIdTieBreakRule:
    def test_positive(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    def pick(jobs):
                        jobs.sort(key=lambda job: id(job))
                        return hash(jobs[0].name)
                    """
            },
            [IdTieBreakRule()],
        )
        assert _codes(report) == ["REP004", "REP004"]

    def test_negative_hash_inside_dunder_hash(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    class Key:
                        def __hash__(self):
                            return hash((self.a, self.b))
                    """
            },
            [IdTieBreakRule()],
        )
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    def cycle_marker(obj):
                        return id(obj)  # repro: ignore[REP004] -- never compared across runs
                    """
            },
            [IdTieBreakRule()],
        )
        assert report.findings == []


# --------------------------------------------------------------------------
# REP005 — frozen event dataclasses
# --------------------------------------------------------------------------
_CALENDAR_OK = textwrap.dedent(
    """
    from dataclasses import dataclass
    from typing import ClassVar


    @dataclass(frozen=True)
    class SimEvent:
        priority: ClassVar[int] = 99
        time: float = 0.0


    @dataclass(frozen=True)
    class WindowBoundary(SimEvent):
        priority: ClassVar[int] = 7
    """
)


class TestFrozenEventRule:
    def test_positive_unfrozen_subclass(self, tmp_path):
        _write(
            tmp_path,
            "src/calendar.py",
            _CALENDAR_OK
            + textwrap.dedent(
                """

                @dataclass
                class ControlTick(SimEvent):
                    priority: ClassVar[int] = 6
                """
            ),
        )
        report = run_analysis(
            [tmp_path / "src"], root=tmp_path, rules=[FrozenEventRule("src/calendar.py")]
        )
        assert _codes(report) == ["REP005"]
        assert "ControlTick" in report.findings[0].message

    def test_negative_all_frozen(self, tmp_path):
        _write(tmp_path, "src/calendar.py", _CALENDAR_OK)
        report = run_analysis(
            [tmp_path / "src"], root=tmp_path, rules=[FrozenEventRule("src/calendar.py")]
        )
        assert report.findings == []

    def test_transitive_subclasses_are_collected(self):
        import ast

        tree = ast.parse(
            textwrap.dedent(
                """
                class SimEvent: ...
                class TransferEvent(SimEvent): ...
                class TransferFailed(TransferEvent): ...
                class Unrelated: ...
                """
            )
        )
        assert set(collect_event_classes(tree)) == {
            "SimEvent",
            "TransferEvent",
            "TransferFailed",
        }


# --------------------------------------------------------------------------
# REP006 — priority table drift
# --------------------------------------------------------------------------
class TestPriorityTableRule:
    def _mutated_repo(self, tmp_path, mutate_doc):
        """Copy the *real* calendar + events doc, mutating the doc table."""
        calendar = (REPO_ROOT / "src/repro/fleet/calendar.py").read_text(encoding="utf-8")
        doc = (REPO_ROOT / "docs/events.md").read_text(encoding="utf-8")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "calendar.py").write_text(calendar, encoding="utf-8")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "events.md").write_text(mutate_doc(doc), encoding="utf-8")
        return run_analysis(
            [tmp_path / "src"],
            root=tmp_path,
            rules=[PriorityTableRule("src/calendar.py", "docs/events.md")],
        )

    def test_real_doc_and_calendar_agree(self, tmp_path):
        report = self._mutated_repo(tmp_path, lambda doc: doc)
        assert report.findings == []

    def test_drifted_priority_number_is_caught(self, tmp_path):
        # Renumber WindowBoundary's documented priority: declared 7, doc 9.
        report = self._mutated_repo(
            tmp_path,
            lambda doc: re.sub(r"\|\s*7\s*\|(\s*`WindowBoundary`)", r"| 9 |\1", doc, count=1),
        )
        assert _codes(report) == ["REP006"]
        assert "WindowBoundary" in report.findings[0].message
        assert "documents 9" in report.findings[0].message

    def test_dropped_table_row_is_caught(self, tmp_path):
        report = self._mutated_repo(
            tmp_path,
            lambda doc: "\n".join(
                line for line in doc.splitlines() if "`ControlTick`" not in line
            ),
        )
        assert _codes(report) == ["REP006"]
        assert "ControlTick" in report.findings[0].message
        assert "missing" in report.findings[0].message

    def test_ghost_doc_entry_is_caught(self, tmp_path):
        report = self._mutated_repo(
            tmp_path,
            lambda doc: doc.replace("`ControlTick`", "`ControlTick` / `PhantomEvent`", 1),
        )
        assert _codes(report) == ["REP006"]
        assert "PhantomEvent" in report.findings[0].message

    def test_missing_classvar_declaration_is_caught(self, tmp_path):
        _write(
            tmp_path,
            "src/calendar.py",
            _CALENDAR_OK
            + textwrap.dedent(
                """

                @dataclass(frozen=True)
                class SilentEvent(SimEvent):
                    pass
                """
            ),
        )
        _write(
            tmp_path,
            "docs/events.md",
            """
            | priority | event | fires when |
            |---|---|---|
            | 7 | `WindowBoundary` | end of window |
            """,
        )
        report = run_analysis(
            [tmp_path / "src"],
            root=tmp_path,
            rules=[PriorityTableRule("src/calendar.py", "docs/events.md")],
        )
        assert _codes(report) == ["REP006"]
        assert "SilentEvent" in report.findings[0].message

    def test_priority_table_parser(self):
        table = parse_priority_table(
            textwrap.dedent(
                """
                intro text

                | priority | event | fires when |
                |---:|---|---|
                | 0 | `SiteRecovery` / `WanRestore` | faults heal |
                | 2 | `TransferArrival` | checkpoint lands |

                trailing text
                """
            )
        )
        assert table == {"SiteRecovery": 0, "WanRestore": 0, "TransferArrival": 2}


# --------------------------------------------------------------------------
# REP007 — summary/export/docs coverage
# --------------------------------------------------------------------------
_METRICS_SRC = """
    class FleetResult:
        def summary(self):
            return {
                "windows": self.windows,
                "migrations": self.migrations,
            }
"""


def _export_src(keys):
    entries = "".join(f'    "{key}": "help text",\n' for key in keys)
    return "_HELP = {\n" + entries + "}\n"


_DOC_TABLE = """
    | key | type | meaning |
    |---|---|---|
    | `windows` | counter | windows run |
    | `migrations` | counter | streams moved |
"""


class TestSummaryCoverageRule:
    def _run(self, tmp_path, metrics=_METRICS_SRC, export_keys=("windows", "migrations"),
             doc=_DOC_TABLE):
        _write(tmp_path, "src/metrics.py", metrics)
        _write(tmp_path, "src/export.py", _export_src(export_keys))
        _write(tmp_path, "docs/metrics.md", doc)
        return run_analysis(
            [tmp_path / "src"],
            root=tmp_path,
            rules=[SummaryCoverageRule("src/metrics.py", "src/export.py", "docs/metrics.md")],
        )

    def test_negative_full_coverage(self, tmp_path):
        assert self._run(tmp_path).findings == []

    def test_missing_help_entry(self, tmp_path):
        report = self._run(tmp_path, export_keys=("windows",))
        assert _codes(report) == ["REP007"]
        assert "'migrations'" in report.findings[0].message

    def test_stale_help_entry(self, tmp_path):
        report = self._run(tmp_path, export_keys=("windows", "migrations", "retired"))
        assert _codes(report) == ["REP007"]
        assert "'retired'" in report.findings[0].message

    def test_undocumented_summary_key(self, tmp_path):
        doc = "\n".join(
            line for line in textwrap.dedent(_DOC_TABLE).splitlines() if "migrations" not in line
        )
        report = self._run(tmp_path, doc=doc)
        assert _codes(report) == ["REP007"]
        assert "metrics appendix" in report.findings[0].message

    def test_metrics_table_parser_records_lines(self):
        keys = parse_metrics_table(textwrap.dedent(_DOC_TABLE))
        assert set(keys) == {"windows", "migrations"}


# --------------------------------------------------------------------------
# Runner behaviour
# --------------------------------------------------------------------------
class TestRunner:
    def test_unused_suppression_is_a_rep000_warning(self, tmp_path):
        report = _analyze(
            tmp_path,
            {
                "src/mod.py": """
                    def run(clock):
                        return clock.now()  # repro: ignore[REP001] -- nothing to shield
                    """
            },
            [WallClockRule()],
        )
        assert _codes(report) == ["REP000"]
        assert report.findings[0].severity == SEVERITY_WARNING
        # Warnings block only under --strict.
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_error_blocks_without_strict(self, tmp_path):
        report = _analyze(
            tmp_path,
            {"src/mod.py": "import time\nt = time.time()\n"},
            [WallClockRule()],
        )
        assert report.exit_code() == 1

    def test_report_serialises_deterministically(self, tmp_path):
        files = {"src/mod.py": "import time\nt = time.time()\nu = time.monotonic()\n"}
        first = _analyze(tmp_path, files, [WallClockRule()])
        second = run_analysis([tmp_path / "src"], root=tmp_path, rules=[WallClockRule()])
        assert first.to_json() == second.to_json()
        assert "1 files scanned" in first.render_text()

    def test_repository_is_strict_clean(self):
        """The acceptance gate: the full registry over src/repro is clean."""
        report = run_analysis(root=REPO_ROOT, rules=default_rules())
        assert report.render_text().endswith("0 errors, 0 warnings")
        assert report.exit_code(strict=True) == 0
