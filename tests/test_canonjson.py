"""The canonical-JSON codec (``repro.common.canonjson``).

Every ``repro.*/1`` document is encoded and read back through this one
module.  The tests pin its two layouts against the committed artifacts,
its error messages, and the rule that no other module encodes JSON.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.common import canonjson

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_encode_is_compact_and_sorted():
    assert canonjson.encode({"b": [1, 2], "a": "é"}) == '{"a":"\\u00e9","b":[1,2]}'


def test_render_layout_follows_the_schema_tag():
    pretty = {"schema": "repro.staticcheck-baseline/1", "x": 1}
    assert canonjson.render(pretty) == json.dumps(pretty, indent=2, sort_keys=True) + "\n"
    for doc in ({"schema": "repro.telemetry/1", "x": 1},
                {"schema": "other.topology/1", "x": 1},
                {"schema": 1, "x": 1},
                {"x": 1}):
        assert canonjson.render(doc) == canonjson.encode(doc) + "\n"


def test_write_creates_the_parent_and_load_round_trips(tmp_path):
    path = tmp_path / "a" / "b" / "doc.json"
    doc = {"schema": "repro.trace/1", "events": [3, 1]}
    canonjson.write(str(path), doc)
    assert path.read_text() == canonjson.render(doc)
    assert canonjson.load(path, "repro.trace/1") == doc


def test_load_errors_name_the_file(tmp_path):
    want = "want 'repro.bench_perf/1'"
    for text, why in (
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ('{"schema": "repro.bench_alloc/1"}',
         f"schema is 'repro.bench_alloc/1', {want}"),
        ("[1]", f"schema is None, {want}"),
    ):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            canonjson.load(path, "repro.bench_perf/1")
        assert str(err.value) == f"{path}: {why}"
    with pytest.raises(OSError):
        canonjson.load(tmp_path / "missing.json")


@pytest.mark.parametrize("name, schema", [
    ("protomodel-baseline.json", "repro.protomodel/1"),
    ("staticcheck-baseline.json", "repro.staticcheck-baseline/1"),
    ("BENCH_perf.json", "repro.bench_perf/1"),
    ("BENCH_alloc.json", "repro.bench_alloc/1"),
    ("benchmarks/results/telemetry_fig6_smoke.json", "repro.telemetry/1"),
    ("benchmarks/results/telemetry_scaling_16cmp_dst1.json", "repro.telemetry/1"),
])
def test_committed_artifact_is_in_its_schema_layout(name, schema):
    path = REPO_ROOT / name
    assert canonjson.render(canonjson.load(path, schema)) == path.read_text()


def _json_encode_calls(tree):
    """``(enclosing function, line)`` of every ``json.dump``/``json.dumps``
    call or import in ``tree``."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "json"
                and node.attr in ("dump", "dumps")):
            hits.append((func, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            hits.extend((func, node.lineno) for alias in node.names
                        if alias.name in ("dump", "dumps"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return hits


def test_only_the_codec_encodes_json(repo_tree):
    found = {}
    for src in repo_tree:
        hits = _json_encode_calls(src.tree)
        if hits:
            found[src.module] = [func for func, _line in hits]
    assert found.pop("repro.common.canonjson")
    # The fig6 smoke metrics sha is pinned over this exact encoding.
    assert found == {"repro.perf": ["bench_e2e_fig6_smoke"]}
