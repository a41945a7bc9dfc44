"""Top-level driver: run the passes over a list of parsed files.

Used by ``python -m repro lint`` and directly by the test suite, which
appends a parsed fixture file to one shared loaded tree to seed
violations without touching the real tree.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.staticcheck.base import PASSES, Pass
from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile, load_tree
from repro.staticcheck.suppressions import UnusedSuppressionPass


def default_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parents[1]


def run_passes(
    files: Optional[List[SourceFile]] = None,
    passes: Optional[Sequence[Pass]] = None,
) -> Tuple[List[Finding], List[str]]:
    """Run ``passes`` (default: the full registry) over ``files``.

    ``files`` defaults to ``load_tree(default_root())``.  Passes never
    write to the parsed trees, so one list may feed any number of runs.

    Returns ``(findings, pass_ids)`` with findings globally sorted.

    Detector passes record which suppression comments consumed a finding;
    the ``suppressions`` pass judges against those credits.  When it is
    selected, every *registered* detector contributes credits — even
    detectors outside the selection run in credit-only mode (their
    findings discarded) so ``--pass suppressions`` cannot call a
    suppression unused just because its detector was deselected.
    """
    if files is None:
        files = load_tree(default_root())
    selected = list(passes) if passes is not None else list(PASSES)
    used: Set[Tuple[str, int]] = set()
    findings: List[Finding] = []
    judges = [p for p in selected if isinstance(p, UnusedSuppressionPass)]
    detectors = [p for p in selected if not isinstance(p, UnusedSuppressionPass)]
    for p in detectors:
        findings.extend(p.run(files, used=used))
    if judges:
        ran = {p.id for p in detectors}
        for p in PASSES:
            if isinstance(p, UnusedSuppressionPass) or p.id in ran:
                continue
            p.run(files, used=used)  # credit-only: findings discarded
        for p in judges:
            findings.extend(p.run(files, used=used))
    return sorted(findings), [p.id for p in selected]
