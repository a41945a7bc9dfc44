"""Pooling-safety suite: the zero-allocation steady state must be
*invisible* to the simulation.

Three layers:

* **aliasing unit tests** — the freelist recycles records and resets
  their payload; double release and plain-message release are no-ops;
  uid draws are one-per-acquire in both modes (so disabling the pool
  cannot shift any uid-derived tiebreak);
* **equivalence** — a real cell produces byte-identical canonical
  metrics with ``REPRO_POOLING=0`` and ``1``, including under the fault
  injector (whose in-flight ledger takes ownership of absorbed
  messages) and a mid-run crash; a subprocess matrix crosses pooling
  with ``PYTHONHASHSEED`` to prove neither knob leaks into results;
* **allocation-gate units** — ``alloc_report`` projects only the
  machine-independent fields, ``compare_alloc`` is zero-tolerance, and
  ``compare`` gates wall-clock throughput only between matching host
  fingerprints.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.params import SystemParams
from repro.exp.spec import Cell
from repro.exp.runner import run_cell
from repro.faults.injector import FaultConfig
from repro.interconnect.message import Message, MessagePool, MsgType
from repro.perf import (
    ALLOC_DETERMINISTIC_FIELDS,
    alloc_report,
    compare,
    compare_alloc,
    machine_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

A, B = 10, 11  # arbitrary node ids


# ---------------------------------------------------------------------------
# Aliasing: the freelist contract.
# ---------------------------------------------------------------------------
def test_release_then_acquire_recycles_the_record():
    pool = MessagePool(enabled=True)
    m1 = pool.acquire(MsgType.TOK_GETS, A, B, 0x100)
    m1.tokens = 5
    m1.data = 0xDEAD
    uid1 = m1.uid
    pool.release(m1)
    m2 = pool.acquire(MsgType.TOK_GETX, B, A, 0x200)
    assert m2 is m1  # recycled, not reconstructed
    assert m2.uid == uid1 + 1  # fresh identity
    assert (m2.mtype, m2.src, m2.dst, m2.addr) == (MsgType.TOK_GETX, B, A, 0x200)
    assert m2.tokens == 0 and m2.data is None  # payload reset to defaults
    assert pool.stats() == {
        "acquires": 2, "news": 1, "releases": 1, "free_end": 0,
    }


def test_double_release_and_plain_release_are_noops():
    pool = MessagePool(enabled=True)
    msg = pool.acquire(MsgType.TOK_ACK, A, B, 0x0)
    pool.release(msg)
    pool.release(msg)  # marker already popped: safety-net no-op
    assert pool.stats()["releases"] == 1
    assert len(pool._free) == 1
    plain = Message(MsgType.TOK_ACK, A, B, 0x0)
    pool.release(plain)  # caller-constructed: never pool-owned
    assert pool.stats()["releases"] == 1


def test_disabled_pool_always_constructs_fresh():
    pool = MessagePool(enabled=False)
    m1 = pool.acquire(MsgType.TOK_GETS, A, B, 0x100)
    pool.release(m1)
    m2 = pool.acquire(MsgType.TOK_GETS, A, B, 0x100)
    assert m2 is not m1
    assert "_pooled" not in m1.__dict__ and "_pooled" not in m2.__dict__
    assert pool.stats()["news"] == 2 and pool.stats()["free_end"] == 0


def test_clone_stamps_template_and_draws_fresh_uid():
    pool = MessagePool(enabled=True)
    template = pool.acquire_carrier(
        MsgType.TOK_DATA, A, B, 0x40,
        tokens=3, owner=True, data=0x77, dirty=True, epoch=2,
    )
    clone = pool.clone(template, dst=B + 1)
    assert clone.dst == B + 1 and clone.uid == template.uid + 1
    assert (clone.tokens, clone.owner, clone.data, clone.dirty, clone.epoch) \
        == (3, True, 0x77, True, 2)
    # Recycled clones overwrite every field of the previous occupant.
    pool.release(clone)
    clone2 = pool.clone(template, dst=B + 2)
    assert clone2 is clone and clone2.dst == B + 2


def test_uid_draw_order_is_one_per_acquire_in_both_modes():
    # The uid counter is global; if either mode drew extra (or fewer)
    # uids per acquire, interleaved draws would show gaps.
    on, off = MessagePool(enabled=True), MessagePool(enabled=False)
    uids = []
    for i in range(4):
        uids.append(on.acquire(MsgType.TOK_GETS, A, B, i).uid)
        uids.append(off.acquire(MsgType.TOK_GETS, A, B, i).uid)
    assert uids == list(range(uids[0], uids[0] + 8))


# ---------------------------------------------------------------------------
# Equivalence: pooling must be invisible to results.
# ---------------------------------------------------------------------------
def _small_cell(**overrides):
    base = dict(
        protocol="TokenCMP-dst1",
        workload="oltp",
        workload_kwargs=(("refs_per_proc", 40),),
        seed=3,
        params=SystemParams(num_chips=2, procs_per_chip=2,
                            tokens_per_block=16),
    )
    base.update(overrides)
    return Cell(**base)


def _metrics_blob(cell, monkeypatch, pooling: str) -> str:
    monkeypatch.setenv("REPRO_POOLING", pooling)
    res = run_cell(cell)
    return json.dumps(res.metrics(), sort_keys=True)


def test_pooling_on_off_metrics_identical(monkeypatch):
    cell = _small_cell()
    assert _metrics_blob(cell, monkeypatch, "1") \
        == _metrics_blob(cell, monkeypatch, "0")


@pytest.mark.parametrize("protocol, exercised", [
    ("TokenCMP-dst1-filt", "l2.filter_suppressed"),
    ("TokenCMP-dst1-mcast", "l2.multicasts"),
    ("TokenB", "policy.transient_requests"),
])
def test_pooling_on_off_identical_for_per_call_destination_sets(
        monkeypatch, protocol, exercised):
    # Filtered rebroadcasts and predicted multicasts build their
    # destination sets per call, and TokenB broadcasts machine-wide.  With
    # pooling off a fan-out takes the plan-free send(clone_to(dst)) loop,
    # so it is the oracle for the pooled plan path.  Four chips, so a
    # predicted multicast set can differ from the full broadcast.
    cell = _small_cell(protocol=protocol,
                       params=SystemParams(num_chips=4, procs_per_chip=2,
                                           tokens_per_block=32))
    monkeypatch.setenv("REPRO_POOLING", "1")
    pooled = run_cell(cell)
    assert pooled.get(exercised) > 0
    assert json.dumps(pooled.metrics(), sort_keys=True) \
        == _metrics_blob(cell, monkeypatch, "0")


def test_pooling_on_off_identical_under_fault_injector(monkeypatch):
    # The injector's ledger absorbs, duplicates and re-emits messages —
    # the hardest interplay for ownership bookkeeping.
    cell = _small_cell(faults=FaultConfig.adversarial(0.05))
    assert _metrics_blob(cell, monkeypatch, "1") \
        == _metrics_blob(cell, monkeypatch, "0")


def test_pooling_on_off_identical_with_lossy_recovery(monkeypatch):
    # Lossy carriers destroy tokens and trigger the recreation tier;
    # recovery broadcasts ride the same pooled fan-out path.
    cell = _small_cell(faults=FaultConfig.adversarial(0.05, lossy=True))
    assert _metrics_blob(cell, monkeypatch, "1") \
        == _metrics_blob(cell, monkeypatch, "0")


def test_pooling_on_off_identical_with_mid_run_crash(monkeypatch):
    # A crash wipes a controller's token soft-state mid-flight and the
    # recreation tier rebuilds it; pooling must not change any of it.
    from repro.faults.crash import CrashSpec
    cell = _small_cell(crash=CrashSpec(level="l1", at_ps=500_000))
    assert _metrics_blob(cell, monkeypatch, "1") \
        == _metrics_blob(cell, monkeypatch, "0")


def test_pooling_and_hash_seed_do_not_leak_into_metrics():
    # Subprocess matrix: {pooling on/off} x {two hash seeds}.  Every
    # combination must print the same canonical-metrics digest.
    script = (
        "import hashlib, json\n"
        "from repro.common.params import SystemParams\n"
        "from repro.exp.spec import Cell\n"
        "from repro.exp.runner import run_cell\n"
        "cell = Cell(protocol='TokenCMP-dst1', workload='oltp',\n"
        "            workload_kwargs=(('refs_per_proc', 40),), seed=3,\n"
        "            params=SystemParams(num_chips=2, procs_per_chip=2,\n"
        "                                tokens_per_block=16))\n"
        "blob = json.dumps(run_cell(cell).metrics(), sort_keys=True)\n"
        "print(hashlib.sha256(blob.encode()).hexdigest())\n"
    )
    digests = set()
    for pooling in ("0", "1"):
        for hashseed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                cwd=REPO_ROOT,
                env={
                    "PYTHONPATH": "src",
                    "REPRO_POOLING": pooling,
                    "PYTHONHASHSEED": hashseed,
                    "PATH": "/usr/bin:/bin",
                },
            )
            digests.add(out.stdout.strip())
    assert len(digests) == 1, f"metrics depend on pooling/hashseed: {digests}"


# ---------------------------------------------------------------------------
# Allocation gate units.
# ---------------------------------------------------------------------------
def _steady(**overrides):
    steady = {
        "cell": "TokenCMP-dst1/oltp[refs=120,seed=1]",
        "warmup_events": 40_000,
        "window_events": 10_000,
        "windows": 2,
        "blocks_window_budget": 4096,
        "blocks_within_budget": True,
        "event_news": [0, 0],
        "pool_news": [0, 0],
        "pooling_enabled": True,
        # raw observational extras that must NOT survive projection
        "blocks_delta": [1939, -2],
        "pool": {"acquires": 99, "news": 0, "releases": 99, "free_end": 7},
    }
    steady.update(overrides)
    return steady


def test_alloc_report_projects_only_deterministic_fields():
    report = alloc_report(full=_steady())
    (entry,) = report["python"].values()
    assert set(entry["steady_state"]) == set(ALLOC_DETERMINISTIC_FIELDS)
    assert "blocks_delta" not in entry["steady_state"]


def test_compare_alloc_zero_tolerance():
    committed = alloc_report(full=_steady())
    assert compare_alloc(committed, committed) == []
    drifted = copy.deepcopy(committed)
    (entry,) = drifted["python"].values()
    entry["steady_state"]["event_news"] = [0, 1]
    problems = compare_alloc(drifted, committed)
    assert problems and "event_news" in problems[0]


def test_compare_alloc_missing_python_version_fails():
    committed = {"schema": "repro.bench_alloc/1",
                 "python": {"0.0": {"steady_state": _steady()}}}
    current = alloc_report(full=_steady())
    problems = compare_alloc(current, committed)
    assert problems and "regenerate" in problems[0].lower()


def _perf_report(host, e2e_rate):
    return {
        "schema": "repro.bench/1",
        "quick": True,
        "host": host,
        "benchmarks": {
            "e2e_fig6_smoke": {
                "cell": "c", "events": 1, "runtime_ps": 2,
                "metrics_sha256": "abc",
                "events_per_sec": e2e_rate,
            },
        },
    }


def test_compare_gates_timing_only_on_matching_host():
    here = machine_fingerprint()
    elsewhere = dict(here, machine="emu-riscv128")
    fast, slow = _perf_report(here, 1000.0), _perf_report(here, 10.0)
    assert any("events_per_sec" in p for p in compare(slow, fast))
    # Same regression, but the baseline came from another machine:
    # wall-clock is not comparable, deterministic fields still are.
    foreign_fast = _perf_report(elsewhere, 1000.0)
    assert compare(slow, foreign_fast) == []
    foreign_drift = copy.deepcopy(foreign_fast)
    foreign_drift["benchmarks"]["e2e_fig6_smoke"]["metrics_sha256"] = "xyz"
    assert any("metrics_sha256" in p for p in compare(slow, foreign_drift))
