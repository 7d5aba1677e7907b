"""REP005/REP006 — the ``SimEvent`` hierarchy's structural invariants.

The calendar orders same-instant events by each class's ``ClassVar``
priority, and ``docs/events.md`` documents that ordering as a table.  Three
things must therefore agree: the dataclass hierarchy, the declared
priorities and the doc table.  These rules extract all three and cross-check
them:

* **REP005** — every class in the ``SimEvent`` hierarchy is declared
  ``@dataclass(frozen=True)``.  Events live inside heap tuples; a mutable
  event would let a handler rewrite history after it was ordered.
* **REP006** — every concrete event class explicitly declares
  ``priority: ClassVar[int]`` (silently inheriting the base default is how
  ordering bugs are born), the declared value matches the priority table in
  ``docs/events.md``, the table names no ghost classes, and classes sharing
  a priority are documented together on that priority's row.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from .context import ProjectContext
from .findings import Finding
from .registry import Rule

#: Where the event hierarchy and its documentation live.
DEFAULT_CALENDAR_PATH = "src/repro/fleet/calendar.py"
DEFAULT_EVENTS_DOC_PATH = "docs/events.md"
#: Root class of the hierarchy, excluded from the doc table cross-check.
EVENT_BASE_CLASS = "SimEvent"

_BACKTICKED = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")


def collect_event_classes(
    tree: ast.Module, base: str = EVENT_BASE_CLASS
) -> Dict[str, ast.ClassDef]:
    """Name → ClassDef for ``base`` and its (transitive) module subclasses."""
    by_name = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    hierarchy: Dict[str, ast.ClassDef] = {}
    if base in by_name:
        hierarchy[base] = by_name[base]
    changed = True
    while changed:
        changed = False
        for name, node in by_name.items():
            if name in hierarchy:
                continue
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            if any(parent in hierarchy for parent in bases):
                hierarchy[name] = node
                changed = True
    return hierarchy


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def declared_priority(node: ast.ClassDef) -> Optional[Tuple[int, int]]:
    """``(priority, lineno)`` of an explicit ClassVar declaration, if any."""
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        target = stmt.target
        if not (isinstance(target, ast.Name) and target.id == "priority"):
            continue
        if "ClassVar" not in ast.dump(stmt.annotation):
            continue
        if isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, int):
            return int(stmt.value.value), stmt.lineno
    return None


def parse_priority_table(text: str) -> Optional[Dict[str, int]]:
    """Event name → priority from the markdown table in ``docs/events.md``.

    The table is recognised by its header row (``| priority | event | ...``);
    each row's *event column* may list several backticked class names (events
    that share the priority).  Returns ``None`` when no table is found.
    """
    lines = text.splitlines()
    table: Dict[str, int] = {}
    in_table = False
    for line in lines:
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not in_table:
            if len(cells) >= 2 and cells[0].lower() == "priority" and cells[1].lower() == "event":
                in_table = True
            continue
        if len(cells) < 2 or not line.strip().startswith("|"):
            break
        if set(cells[0]) <= {"-", ":", " "}:
            continue  # the |---|---| separator row
        try:
            priority = int(cells[0])
        except ValueError:
            break
        for name in _BACKTICKED.findall(cells[1]):
            table[name] = priority
    return table if table else None


class FrozenEventRule(Rule):
    code = "REP005"
    name = "frozen-events"
    description = "every SimEvent subclass is a frozen dataclass"

    def __init__(self, calendar_path: str = DEFAULT_CALENDAR_PATH) -> None:
        self._calendar_path = calendar_path

    def check_project(self, project: ProjectContext) -> List[Finding]:
        ctx = project.file(self._calendar_path)
        if ctx is None:
            return [
                Finding(
                    path=self._calendar_path,
                    line=0,
                    code=self.code,
                    message="event calendar module not found; cannot check the hierarchy",
                )
            ]
        findings: List[Finding] = []
        for name, node in sorted(collect_event_classes(ctx.tree).items()):
            if not _is_frozen_dataclass(node):
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=node.lineno,
                        code=self.code,
                        message=(
                            f"event class {name} is not @dataclass(frozen=True); "
                            "calendar events are heap-ordered and must be immutable"
                        ),
                    )
                )
        return findings


class PriorityTableRule(Rule):
    code = "REP006"
    name = "priority-table"
    description = "declared event priorities match docs/events.md"

    def __init__(
        self,
        calendar_path: str = DEFAULT_CALENDAR_PATH,
        doc_path: str = DEFAULT_EVENTS_DOC_PATH,
    ) -> None:
        self._calendar_path = calendar_path
        self._doc_path = doc_path

    def check_project(self, project: ProjectContext) -> List[Finding]:
        ctx = project.file(self._calendar_path)
        if ctx is None:
            return [
                Finding(
                    path=self._calendar_path,
                    line=0,
                    code=self.code,
                    message="event calendar module not found; cannot check priorities",
                )
            ]
        classes = collect_event_classes(ctx.tree)
        classes.pop(EVENT_BASE_CLASS, None)

        doc_text = project.text(self._doc_path)
        documented = parse_priority_table(doc_text) if doc_text is not None else None
        findings: List[Finding] = []
        if documented is None:
            findings.append(
                Finding(
                    path=self._doc_path,
                    line=0,
                    code=self.code,
                    message="no `| priority | event |` table found; the ordering is undocumented",
                )
            )

        declared: Dict[str, Tuple[int, int]] = {}
        for name, node in sorted(classes.items()):
            info = declared_priority(node)
            if info is None:
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=node.lineno,
                        code=self.code,
                        message=(
                            f"event class {name} does not declare "
                            "`priority: ClassVar[int]`; inheriting the base "
                            "default hides its same-instant ordering"
                        ),
                    )
                )
                continue
            declared[name] = info

        if documented is None:
            return findings

        for name, (priority, lineno) in sorted(declared.items()):
            doc_priority = documented.get(name)
            if doc_priority is None:
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=lineno,
                        code=self.code,
                        message=(
                            f"event class {name} (priority {priority}) is missing "
                            f"from the priority table in {self._doc_path}"
                        ),
                    )
                )
            elif doc_priority != priority:
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=lineno,
                        code=self.code,
                        message=(
                            f"event class {name} declares priority {priority} but "
                            f"{self._doc_path} documents {doc_priority}"
                        ),
                    )
                )
        for name in sorted(set(documented) - set(classes)):
            findings.append(
                Finding(
                    path=self._doc_path,
                    line=0,
                    code=self.code,
                    message=(
                        f"priority table documents {name} (priority "
                        f"{documented[name]}) but no such event class exists in "
                        f"{self._calendar_path}"
                    ),
                )
            )
        return findings
