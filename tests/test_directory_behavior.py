"""Behavioural tests of DirectoryCMP's two-level MOESI machinery."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.common.params import SystemParams
from repro.cpu.ops import Load, Rmw, Store
from repro.directory.states import E, M, O, S
from repro.system import MachineSpec


ADDR = 0x6000_0000


def machine(**kw):
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16, **kw)
    return MachineSpec(params=params, protocol="DirectoryCMP", seed=11).build(), params


def run_op(m, proc, op):
    out = {}
    m.sequencers[proc].issue(op, lambda v: out.setdefault("v", v))
    m.sim.run(max_events=2_000_000)
    assert "v" in out, "operation did not complete"
    return out["v"]


def l1_entry(m, p, proc):
    return m.controllers[p.l1d_of(proc)].array.lookup(ADDR, touch=False)


def test_first_read_grants_exclusive():
    m, p = machine()
    run_op(m, 0, Load(ADDR))
    assert l1_entry(m, p, 0).state == E


def test_exclusive_upgrades_silently():
    m, p = machine()
    run_op(m, 0, Load(ADDR))
    misses = m.stats.get("l1.misses")
    run_op(m, 0, Store(ADDR, 3))
    assert m.stats.get("l1.misses") == misses
    assert l1_entry(m, p, 0).state == M


def test_migratory_read_of_modified_block():
    """A read of another L1's M block migrates it whole (grant M)."""
    m, p = machine()
    run_op(m, 0, Store(ADDR, 5))
    assert run_op(m, 1, Load(ADDR)) == 5  # same chip
    assert l1_entry(m, p, 1).state == M
    assert l1_entry(m, p, 0) is None  # previous owner invalidated
    misses = m.stats.get("l1.misses")
    run_op(m, 1, Store(ADDR, 6))  # write hits thanks to migratory grant
    assert m.stats.get("l1.misses") == misses


def test_chip_level_migratory_across_chips():
    m, p = machine()
    run_op(m, 0, Store(ADDR, 5))
    assert run_op(m, 2, Load(ADDR)) == 5  # remote chip
    assert l1_entry(m, p, 2).state == M
    assert m.stats.get("dir.chip_migratory") >= 1


def test_getx_invalidates_remote_sharers():
    m, p = machine()
    # Build two read-shared copies on different chips (avoid migratory by
    # keeping the block clean: only loads).
    run_op(m, 0, Load(ADDR))
    run_op(m, 2, Load(ADDR))
    run_op(m, 1, Store(ADDR, 9))
    assert m.coherent_value(ADDR) == 9
    assert l1_entry(m, p, 1).state == M
    # No other L1 may retain a readable copy.
    for proc in (0, 2):
        entry = l1_entry(m, p, proc)
        assert entry is None


def test_three_phase_writeback_updates_memory():
    m, p = machine(l1_size=2 * 64 * 4)  # tiny L1 to force evictions
    run_op(m, 0, Store(ADDR, 77))
    set_stride = (2 * 64 * 4) // 4
    for i in range(1, 6):
        run_op(m, 0, Load(ADDR + i * set_stride))
    m.sim.run()
    assert m.stats.get("l1.dirty_evictions") >= 1
    assert m.coherent_value(ADDR) == 77


def test_unblock_messages_flow():
    m, p = machine()
    run_op(m, 0, Load(ADDR))
    from repro.interconnect.traffic import Scope, TrafficClass

    unblock_bytes = sum(
        v for (s, k), v in m.meter.bytes.items() if k is TrafficClass.UNBLOCK
    )
    assert unblock_bytes > 0  # both intra- and inter-level unblocks


def test_busy_directory_defers_requests():
    m, p = machine()
    # Two processors race to write the same cold block; the serialization
    # shows up as deferred requests at one of the directories.
    done = []
    m.sequencers[0].issue(Store(ADDR, 1), done.append)
    m.sequencers[1].issue(Store(ADDR, 2), done.append)
    m.sim.run(max_events=2_000_000)
    assert len(done) == 2
    deferred = m.stats.get("l2.deferred_requests") + m.stats.get(
        "interdir.deferred_requests"
    )
    assert deferred >= 1
    assert m.coherent_value(ADDR) in (1, 2)


def test_zero_cycle_directory_speeds_up_forwards():
    """The zero-cycle directory saves the directory access before a
    forward (memory data reads themselves still cost DRAM latency)."""
    runtimes = {}
    for proto in ("DirectoryCMP", "DirectoryCMP-zero"):
        params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
        m = MachineSpec(params=params, protocol=proto, seed=11).build()
        run_op(m, 0, Store(ADDR, 1))  # dirty in a remote L1
        start = m.sim.now
        run_op(m, 2, Load(ADDR))  # needs a forward through the directory
        runtimes[proto] = m.sim.now - start
    assert runtimes["DirectoryCMP-zero"] < runtimes["DirectoryCMP"]


def test_rmw_atomic_under_contention():
    m, p = machine()
    results = []
    for proc in range(4):
        m.sequencers[proc].issue(Rmw(ADDR, lambda v: v + 1), results.append)
    m.sim.run(max_events=4_000_000)
    assert sorted(results) == [0, 1, 2, 3]  # each saw a distinct old value
    assert m.coherent_value(ADDR) == 4


def test_writeback_racing_recall_eviction_completes(capsys):
    # This apache cell makes an L1 writeback race an inclusion-recall
    # eviction of the same line at its L2 bank; the run must complete.
    rc = repro_main(["run", "DirectoryCMP", "apache", "--seed", "1279910088",
                     "--ops", "25", "--json"])
    assert rc == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["l2.stray_writebacks"] >= 1
