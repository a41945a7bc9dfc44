"""Canonical JSON: how every ``repro.*/1`` document becomes bytes and back.

Byte-identical output is this repository's determinism check, so the
encoding rule lives here and nowhere else.  Keys are always sorted and
output is ASCII.  A document's ``schema`` tag picks one of two layouts;
callers never choose:

* **pretty** (``indent=2``) for the human-reviewed schemas in
  :data:`PRETTY_SCHEMAS` (committed baselines, lint reports, topology);
* **compact** (``,``/``:`` separators, no whitespace) for every other
  schema.
"""

from __future__ import annotations

import json
import os

#: ``repro.<name>/N`` schemas rendered with ``indent=2``.
PRETTY_SCHEMAS = frozenset({
    "protomodel", "staticcheck", "staticcheck-baseline",
    "bench_perf", "bench_alloc", "topology",
})


def encode(obj) -> str:
    """The compact form, no trailing newline (``CellResult.to_json`` and
    the result-cache key hash input)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render(doc: dict) -> str:
    """The document in its schema's layout, plus a trailing newline."""
    tag = str(doc.get("schema", ""))
    if tag.startswith("repro.") and tag[6:].partition("/")[0] in PRETTY_SCHEMAS:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return encode(doc) + "\n"


def write(path, doc: dict) -> None:
    """Render ``doc`` to ``path``, creating the parent directory."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(doc))


def load(path, schema=None):
    """Parse ``path``; with ``schema``, require that ``schema`` tag.

    Unparseable files and tag mismatches raise :class:`ValueError`
    naming the file; a missing file raises :class:`OSError`.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    if schema is not None:
        found = doc.get("schema") if isinstance(doc, dict) else None
        if found != schema:
            raise ValueError(f"{path}: schema is {found!r}, want {schema!r}")
    return doc
