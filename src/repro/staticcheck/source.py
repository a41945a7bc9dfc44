"""Source loading and inline suppressions.

Each analyzed file is parsed once into a :class:`SourceFile` shared by
every pass.  Suppressions are inline comments of the form::

    expr_that_would_be_flagged()  # staticcheck: ignore[rule-id]
    # staticcheck: ignore[rule-a,rule-b]   (on the line above also works)

A suppression names the rule(s) it silences; ``ignore[*]`` silences every
rule on that line.  Unlike the baseline file (which grandfathers findings
without touching the source), a suppression is the permanent, reviewed
statement that a site is intentionally exempt — e.g. the kernel's
profiler reading ``perf_counter_ns``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import Dict, List, Optional, Set

_SUPPRESS_RE = re.compile(r"#\s*staticcheck:\s*ignore\[([^\]]+)\]")


@dataclasses.dataclass
class SourceFile:
    """One parsed python source file plus its suppression table."""

    path: str  # display path (repo-relative posix when possible)
    module: str  # dotted module name, e.g. "repro.core.base"
    text: str
    tree: ast.Module
    lines: List[str]
    suppressions: Dict[int, Set[str]]  # 1-based line -> suppressed rule ids

    @functools.cached_property
    def protocol(self):
        """This file's protocol facts (ladders, classes, send sites).

        Extracted on first use and shared by every pass that reads them;
        see :mod:`repro.staticcheck.protocol`.
        """
        from repro.staticcheck.protocol import FileFacts

        return FileFacts(self)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        """True if ``rule`` is suppressed on ``lineno`` or the line above."""
        return self.suppression_site(lineno, rule) is not None

    def suppression_site(self, lineno: int, rule: str) -> Optional[int]:
        """The comment line that suppresses ``rule`` at ``lineno``, if any.

        The ``unused-suppression`` pass uses this to credit the exact
        comment a dropped finding consumed.
        """
        for ln in (lineno, lineno - 1):
            rules = self.suppressions.get(ln)
            if rules and ("*" in rules or rule in rules):
                return ln
        return None


def parse_source(path: str, text: str, module: str = "") -> SourceFile:
    """Parse one file's text into a :class:`SourceFile`."""
    tree = ast.parse(text, filename=path)
    lines = text.splitlines()
    suppressions: Dict[int, Set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            suppressions[i] = rules
    return SourceFile(
        path=path, module=module, text=text, tree=tree,
        lines=lines, suppressions=suppressions,
    )


def load_tree(
    root: Path, rel_to: Optional[Path] = None, extra_files: Optional[List[Path]] = None
) -> List[SourceFile]:
    """Load every ``.py`` file under ``root`` (a package directory).

    ``root`` must point at the ``repro`` package directory; module names
    are derived from the path relative to its parent.  ``extra_files``
    (e.g. a test fixture) are appended and get module name ``<fixture>``.
    Files are returned sorted by path so pass output is deterministic.
    """
    root = Path(root).resolve()
    rel_root = (rel_to or root.parent).resolve()
    files: List[SourceFile] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(rel_root)
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        files.append(parse_source(rel.as_posix(), path.read_text(), module))
    for path in extra_files or []:
        path = Path(path)
        files.append(parse_source(path.as_posix(), path.read_text(), "<fixture>"))
    return files
