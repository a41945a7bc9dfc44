"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SELF_SHARES = (
    "sim.self_frac", "net.self_frac", "core.l1.self_frac", "core.l2.self_frac",
    "core.mem.self_frac", "dir.l1.self_frac", "dir.intra.self_frac",
    "dir.inter.self_frac", "cpu.self_frac", "other.self_frac",
    "setup.build_frac", "setup.workload_frac", "exp.overhead_frac",
    "mc.expand_frac", "mc.canon_frac", "mc.invariant_frac",
    "mc.checker_self_frac", "lint.parse_frac",
) + tuple(f"lint.pass_frac.{p}" for p in run.LINT_PASSES)


def _units(table):
    return {name: unit for name, unit in table}


def test_config_matches_the_command():
    # fig6-directory is runnable but not listed (see NOTES.md).
    listed = [w["name"] for w in CONFIG["workloads"]]
    assert listed == [w for w in run.WORKLOADS if w != "fig6-directory"]
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == _units(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == _units(run.PER_LAYER)
    from repro.staticcheck.base import PASSES

    assert tuple(p.id for p in PASSES) == run.LINT_PASSES


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(workload, trace):
    result = run.run_benchmark(workload, seed=1, seconds=0, trace=trace,
                               tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = _units(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_digest_counts_as_failed():
    cell = run.sim_cells("fig6-directory", 1, tiny=True)[0]
    expected = {run.cell_key(cell): "0" * 64}
    result = run.run_benchmark("fig6-directory", seed=1, seconds=0,
                               trace=True, tiny=True, expected=expected)
    assert not result["correct"]
    # The tampered cell is one of three per round and failed in every round
    # (warm-up, untraced and traced).
    assert result["failed"] == 3 and result["attempted"] == 9
    assert result["metrics"]["failed_frac"]["value"] == 3 / 9


def test_tampered_model_counts_count_as_failed():
    expected = {"model/DirectoryCMP-flat": [1, 1]}
    result = run.run_benchmark("verify", seed=1, seconds=0, trace=False,
                               tiny=True, expected=expected)
    assert result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("workload", ["fig6-token", "verify"])
def test_self_times_sum_to_at_most_the_wall_time(workload):
    result = run.run_benchmark(workload, seed=1, seconds=0, trace=True,
                               tiny=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Self times are shares of the traced wall time (trace.wall_s).
    covered = sum(metrics[name] for name in SELF_SHARES)
    assert 0 < covered <= 1.0
    assert metrics["trace.wall_s"] > 0


def test_counts_repeat_across_hash_seeds():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(json.dumps(run.run_benchmark('lock-contention', 3, 0, True, "
            "tiny=True)['metrics']))")
    outputs = []
    for hash_seed in ("0", "977"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR)], env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [name for name, unit in run.PER_LAYER
              if unit in ("count", "sim_us", "sim_ns", "B")]
    for name in counts:
        assert outputs[0][name] == outputs[1][name], name


def test_cells_and_models_mark_the_end_of_set_up():
    from repro.system.machine import Machine

    machine_run = Machine.run
    with run.marking_setup():
        for workload in ("fig6-directory", "verify"):
            op = run.build_ops(workload, 1, tiny=True)[0]
            run._setup_done[0] = None
            op.run(None)
            assert run._setup_done[0] is not None, workload
    assert Machine.run is machine_run
