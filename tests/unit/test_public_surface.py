"""Surface guard: every public definition under ``src/repro/`` has a caller
outside ``tests/``.

A definition counts as reached when some identifier in ``src/``,
``benchmarks/``, ``scripts/`` or ``examples/`` names it: a NAME token, or an
identifier inside an f-string.  Three places never count as callers: the
definition's own body (recursion, or a class naming itself), import
statements and ``__all__`` lists, and package ``__init__`` files (they only
re-export).  Docstrings and comments are not identifiers, so a name that
appears only in prose is unreached.

The scan is by name, not by type, so a method shares callers with every
other attribute of the same name and dead code can hide behind a common
name.  Only a computed name (``getattr``) escapes it the other way:
``visit_*`` methods are called that way by ``ast.NodeVisitor`` and are
exempt.  What a test of live code needs to observe it stays, listed in
:data:`ALLOWED` with the reason.
"""

from __future__ import annotations

import ast
import io
import tokenize
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "scripts", "examples")

#: Public definitions that only tests reach, kept on purpose.
ALLOWED: Dict[str, str] = {
    "repro.cluster.placement.Placement.gpu_for": (
        "read-only view of a placement that the placement and PickConfigs tests observe"
    ),
    "repro.cluster.placement.Placement.total_for": (
        "read-only view of a placement that the placement property tests observe"
    ),
    "repro.cluster.resources.AllocationVector.as_units_dict": (
        "the lattice state the batched-planner oracle tests compare exactly"
    ),
    "repro.cluster.resources.AllocationVector.units_key": (
        "the exact lattice key the PickConfigs cache-key tests observe"
    ),
    "repro.core.controller.EkyaPolicy.scheduler": (
        "the planner a policy built; the batched-planner tests drive it directly"
    ),
    "repro.core.microprofiler.MicroProfilingSource": (
        "the paper-claim test test_end_to_end.py runs the substrate testbed through it"
    ),
    "repro.fleet.metrics.FleetStreamOutcome.migrated": (
        "read-only flag the migration tests observe"
    ),
    "repro.fleet.telemetry.AdaptiveStreamSampler.series_of": (
        "read-only view of one stream's sampled series for the telemetry tests"
    ),
    "repro.fleet.telemetry.AdaptiveStreamSampler.summary_of": (
        "read-only view of one stream's exact aggregates for the telemetry tests"
    ),
    "repro.fleet.telemetry.P2Quantile.is_exact": (
        "read-only flag the quantile-sketch tests observe"
    ),
    "repro.fleet.telemetry.TelemetryPlane.sampler": (
        "read-only access to the plane's sampler for the telemetry tests"
    ),
    "repro.profiles.fleet_store.FleetProfileStore.pushes_for": (
        "read-only push count the store's memo test observes"
    ),
    "repro.utils.clock.ManualClock.advance": "moves the test clock",
}

Definition = Tuple[str, str, str, int, int]  # qualname, name, path, first, last line


def _skipped_lines(tree: ast.AST) -> Set[int]:
    """Lines of import statements and ``__all__`` assignments."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _identifiers(source: str, tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """Every identifier with its line: NAME tokens plus f-string contents."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.string, token.start[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    yield inner.id, inner.lineno
                elif isinstance(inner, ast.Attribute):
                    yield inner.attr, inner.end_lineno


def _definitions(tree: ast.Module, module: str, path: str) -> Iterator[Definition]:
    """Public module-level functions and classes, and public class members."""

    def walk(body: List[ast.stmt], prefix: str) -> Iterator[Definition]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            qualname = f"{prefix}.{node.name}"
            yield qualname, node.name, path, first, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, qualname)

    yield from walk(tree.body, module)


def unreached_definitions(root: Path) -> Dict[str, str]:
    """``{qualified name: "path:line"}`` of public definitions no caller names."""
    definitions: List[Definition] = []
    callers: Dict[str, List[Tuple[str, int]]] = {}
    for directory in CALLER_DIRS:
        for file in sorted((root / directory).rglob("*.py")):
            if file.name == "__init__.py":
                continue
            path = file.relative_to(root).as_posix()
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source)
            if path.startswith("src/repro/"):
                module = path[len("src/") : -len(".py")].replace("/", ".")
                definitions.extend(_definitions(tree, module, path))
            skipped = _skipped_lines(tree)
            for name, line in _identifiers(source, tree):
                if line not in skipped:
                    callers.setdefault(name, []).append((path, line))
    unreached = {}
    for qualname, name, path, first, last in definitions:
        if name.startswith("visit_"):
            continue
        if not any(
            caller != path or not first <= line <= last
            for caller, line in callers.get(name, ())
        ):
            unreached[qualname] = f"{path}:{first}"
    return unreached


@lru_cache(maxsize=None)
def _repo_unreached() -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(unreached_definitions(ROOT).items()))


def test_every_public_definition_has_a_caller_outside_tests():
    dead = {name: where for name, where in _repo_unreached() if name not in ALLOWED}
    listing = "\n".join(f"  {name} ({where})" for name, where in sorted(dead.items()))
    assert not dead, (
        "public definitions under src/repro/ that nothing outside tests/ names:\n"
        f"{listing}\n"
        "delete them, or add them to ALLOWED with the reason a test needs them"
    )


def test_every_allowlisted_definition_is_still_only_reached_by_tests():
    unreached = dict(_repo_unreached())
    stale = sorted(name for name in ALLOWED if name not in unreached)
    assert not stale, (
        "ALLOWED names definitions that are gone or now have a caller outside "
        f"tests/; remove them from the list: {stale}"
    )


def test_the_scan_counts_only_real_callers(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .tools import spawn_rng, used\n")
    (package / "tools.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def spawn_rng(depth):\n"
        '    """Mentioned in prose: used, spawn_rng."""\n'
        "    return spawn_rng(depth - 1) if depth else 0\n"
        "\n"
        "\n"
        "class Walker:\n"
        "    def visit_Name(self, node):\n"
        "        return node\n"
    )
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "report.py").write_text(
        "from repro.tools import spawn_rng, used\n"
        "__all__ = ['spawn_rng']\n"
        "# spawn_rng is only named in this comment\n"
        "print(f'{used()}')\n"
    )
    assert unreached_definitions(tmp_path) == {
        "repro.tools.spawn_rng": "src/repro/tools.py:5",
        "repro.tools.Walker": "src/repro/tools.py:10",
    }
