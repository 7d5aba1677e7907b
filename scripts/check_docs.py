#!/usr/bin/env python
"""Check the documentation tree so docs cannot rot silently.

Scans ``README.md`` and ``docs/*.md`` for two kinds of rot:

* **Broken links.**  Every *relative* Markdown link target must exist on
  disk (anchors are stripped; external ``http(s)``/``mailto`` links are out
  of scope — CI must not depend on the network).
* **Stale keywords.**  Every ``make_fleet(``, ``FleetSimulator(`` and
  ``FleetController(`` call written in the docs may pass only keywords the
  current signature accepts, so a removed option cannot stay documented.

Exits non-zero listing every finding.  Run from anywhere::

    python scripts/check_docs.py

The same checks run inside the tier-1 suite (``tests/unit/test_docs.py``)
and as CI's ``docs`` job next to ``python -m doctest README.md``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown inline links: ``[text](target)``.  Images (``![alt](target)``)
#: match too, which is what we want.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Link schemes that are not files on disk.
_EXTERNAL = ("http://", "https://", "mailto:")

#: A call of one of the ``repro.fleet`` constructors whose keywords are checked.
_CALL = re.compile(r"(?<!\w)(make_fleet|FleetSimulator|FleetController)\(")

#: A top-level ``name=`` argument (not ``==``).
_KEYWORD = re.compile(r"\s*([A-Za-z_]\w*)\s*=(?!=)")

#: Doctest prompts that open the continuation lines of a multi-line call.
_PROMPT = re.compile(r"^[ \t]*(?:>>>|\.\.\.)(?=[ \t]|$)", re.MULTILINE)


def documentation_files(root: Path = REPO_ROOT) -> List[Path]:
    """The Markdown files under check: the README plus the docs tree."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _location(path: Path, text: str, offset: int) -> str:
    line = text[:offset].count("\n") + 1
    shown = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    return f"{shown}:{line}"


def broken_links(path: Path) -> List[str]:
    """Human-readable messages for every dangling relative link in ``path``."""
    failures = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            failures.append(f"{_location(path, text, match.start())}: broken link -> {target}")
    return failures


def _top_level_arguments(text: str, start: int) -> Optional[List[str]]:
    """The top-level arguments of the call whose ``(`` ends at ``start``.

    ``None`` when the call does not close within its paragraph or code
    block (prose that merely names the constructor).
    """
    arguments: List[str] = []
    depth = 0
    quote = ""
    begin = start
    for index in range(start, len(text)):
        char = text[index]
        if text.startswith("\n\n", index) or text.startswith("```", index):
            return None
        if quote:
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
        elif char in "([{":
            depth += 1
        elif char in ")]}" and depth:
            depth -= 1
        elif char == ")":
            arguments.append(text[begin:index])
            return arguments
        elif char == "," and not depth:
            arguments.append(text[begin:index])
            begin = index + 1
    return None


def documented_calls(path: Path) -> List[Tuple[str, str, List[str]]]:
    """Every checked constructor call in ``path``: ``(location, name, keywords)``."""
    text = _PROMPT.sub("", path.read_text(encoding="utf-8"))
    calls = []
    for match in _CALL.finditer(text):
        arguments = _top_level_arguments(text, match.end())
        if arguments is None:
            continue
        keywords = [m.group(1) for m in map(_KEYWORD.match, arguments) if m is not None]
        calls.append((_location(path, text, match.start()), match.group(1), keywords))
    return calls


@functools.lru_cache(maxsize=None)
def _accepted_keywords(name: str) -> FrozenSet[str]:
    """The keyword names the current ``repro.fleet.<name>`` accepts."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    target = getattr(importlib.import_module("repro.fleet"), name)
    return frozenset(inspect.signature(target).parameters)


def stale_keywords(path: Path) -> List[str]:
    """Human-readable messages for every documented keyword that no longer exists."""
    return [
        f"{location}: {name}() has no keyword {keyword!r}"
        for location, name, keywords in documented_calls(path)
        for keyword in keywords
        if keyword not in _accepted_keywords(name)
    ]


def main() -> int:
    files = documentation_files()
    if not files:
        print("no documentation files found (expected README.md and docs/*.md)")
        return 1
    links = [message for path in files for message in broken_links(path)]
    stale = [message for path in files for message in stale_keywords(path)]
    if links:
        print("BROKEN DOCUMENTATION LINKS:")
        for message in links:
            print(f"  {message}")
    if stale:
        print("STALE DOCUMENTED KEYWORDS:")
        for message in stale:
            print(f"  {message}")
    if links or stale:
        return 1
    num_calls = sum(len(documented_calls(path)) for path in files)
    print(
        f"{len(files)} documentation files checked, all links resolve, "
        f"{num_calls} documented fleet calls use current keywords"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
