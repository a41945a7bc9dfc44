"""The repository benchmark: Figure-6 cells, lock contention, verify + lint.

Run it from the repository root::

    python3 perfbench/run.py --workload fig6-token --seed 1 --seconds 40 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``fig6-token``      -- TokenCMP-dst1 on the three Figure-6 commercial cells;
* ``fig6-directory``  -- DirectoryCMP on the same three cells; it is not in
  ``BENCHMARK.json``, because DirectoryCMP fails on some seeds (NOTES.md);
* ``lock-contention`` -- TokenCMP-dst1 on the locking micro-benchmark, 2 locks;
* ``verify``          -- the ``repro verify --fast`` model set, then
  ``repro.staticcheck.runner.run_passes()`` over the whole tree.

Each workload is a closed batch of operations (one cell, one model check
or the lint run), each started when the previous one ends, in a single
process.  The batch is repeated round-robin until ``--seconds`` have
passed (at least one whole batch); each operation's host time is the
median of its repeats.  Set-up is timed in fresh processes, run between
operations so that its samples span the run.  Every operation's output
is checked, outside the timed region; an exception or a wrong output
counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics, measured untraced; ``--trace 1`` gives the
per-layer metrics of a traced run (:mod:`tracing`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# fig6-directory stays runnable by hand but is not in BENCHMARK.json: on
# some seeds a DirectoryCMP cell fails an assertion (see NOTES.md).
WORKLOADS = ("fig6-token", "fig6-directory", "lock-contention", "verify")
SIM_PROTOCOL = {
    "fig6-token": "TokenCMP-dst1",
    "fig6-directory": "DirectoryCMP",
    "lock-contention": "TokenCMP-dst1",
}
LOCKS = 2
LOCK_ACQUIRES = 100
# Sizes for the benchmark's own tests, which run every workload quickly.
TINY_REFS = 8
TINY_ACQUIRES = 4
MAX_STATES = 200_000
# Set-up probes take this share of a run's time, and are at least
# SETUP_REPEATS.
SETUP_SHARE = 0.15
SETUP_REPEATS = 9
EXPECTED_PATH = BENCH_DIR / "expected.json"
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LINT_PASSES = ("dispatch", "protocol-model", "determinism", "tokens",
               "purity", "pooling", "suppressions")

PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_ref", "events/ref"),
    ("sim.self_frac", "ratio"),
    ("net.sends", "count"),
    ("net.fanout_sends", "count"),
    ("net.deliveries", "count"),
    ("net.self_frac", "ratio"),
    ("net.max_link_busy_frac", "ratio"),
    ("core.l1.deliveries", "count"),
    ("core.l2.deliveries", "count"),
    ("core.mem.deliveries", "count"),
    ("core.l1.self_frac", "ratio"),
    ("core.l2.self_frac", "ratio"),
    ("core.mem.self_frac", "ratio"),
    ("core.transient_deliveries", "count"),
    ("core.transient_useful_frac", "ratio"),
    ("core.persistent_share", "ratio"),
    ("core.escalations", "count"),
    ("core.retries", "count"),
    ("dir.l1.deliveries", "count"),
    ("dir.intra.deliveries", "count"),
    ("dir.inter.deliveries", "count"),
    ("dir.l1.self_frac", "ratio"),
    ("dir.intra.self_frac", "ratio"),
    ("dir.inter.self_frac", "ratio"),
    ("dir.deferred", "count"),
    ("mem.l1_hit_frac", "ratio"),
    ("mem.dram_reads", "count"),
    ("cpu.refs", "count"),
    ("cpu.self_frac", "ratio"),
    ("other.self_frac", "ratio"),
    ("setup.build_frac", "ratio"),
    ("setup.workload_frac", "ratio"),
    ("exp.overhead_frac", "ratio"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.expand_frac", "ratio"),
    ("mc.canon_frac", "ratio"),
    ("mc.canon_calls", "count"),
    ("mc.invariant_frac", "ratio"),
    ("mc.checker_self_frac", "ratio"),
    ("mc.new_state_frac", "ratio"),
    ("lint.parse_frac", "ratio"),
    ("lint.parses", "count"),
) + tuple((f"lint.pass_frac.{p}", "ratio") for p in LINT_PASSES) + (
    ("lint.findings", "count"),
    ("sim_runtime_us", "sim_us"),
    ("sim_miss_p50_ns", "sim_ns"),
    ("sim_miss_p99_ns", "sim_ns"),
    ("sim_miss_samples", "count"),
    ("inter_cmp_bytes", "B"),
    ("intra_cmp_bytes", "B"),
    ("failed_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Mismatch(Exception):
    """An operation's output differs from the recorded or the first one."""


@dataclasses.dataclass
class Op:
    """One timed operation: a cell, a model check or the lint run.

    ``run(tracer)`` does the timed work and returns its output;
    ``check(output)`` runs untimed and returns ``(fingerprint, facts)`` --
    the value compared against the recorded one and across repeats, and
    the numbers the metrics are computed from -- or raises.
    """

    key: str
    kind: str  # "sim", "model" or "lint"
    run: Callable
    check: Callable


# perf_counter() when the running operation's set-up ended: its machine
# and workload are built (Machine.run starts) or its model is made.
_setup_done: List[Optional[float]] = [None]


def _end_setup() -> None:
    _setup_done[0] = time.perf_counter()


@contextlib.contextmanager
def marking_setup():
    """Let ``Machine.run`` note when a cell's set-up ends."""
    from repro.system.machine import Machine

    machine_run = Machine.run

    def marked_run(machine, *args, **kwargs):
        _end_setup()
        return machine_run(machine, *args, **kwargs)

    Machine.run = marked_run
    try:
        yield
    finally:
        Machine.run = machine_run


# ----------------------------------------------------------------------
# Operations.
# ----------------------------------------------------------------------
def sim_cells(workload: str, seed: int, tiny: bool = False) -> list:
    """The cells of a simulation workload, built as the fig6 experiment does."""
    from repro.exp.library import (
        COMMERCIAL_REFS, COMMERCIAL_WORKLOADS, GRID_MAX_EVENTS,
    )
    from repro.exp.spec import ExperimentSpec

    if workload == "lock-contention":
        acquires = TINY_ACQUIRES if tiny else LOCK_ACQUIRES
        loads = [("locking", {"num_locks": LOCKS, "acquires_per_proc": acquires})]
    else:
        refs = TINY_REFS if tiny else COMMERCIAL_REFS
        loads = [(wl, {"refs_per_proc": refs}) for wl in COMMERCIAL_WORKLOADS]
    spec = ExperimentSpec.grid(
        workload, [SIM_PROTOCOL[workload]], loads, seeds=(seed,),
        max_events=GRID_MAX_EVENTS,
    )
    return list(spec.cells)


def cell_key(cell) -> str:
    kwargs = ",".join(f"{k}={v}" for k, v in cell.workload_kwargs)
    return f"{cell.protocol_name}/{cell.workload_name}/{kwargs}/seed={cell.seed}"


def model_specs(tiny: bool = False) -> list:
    """``(factory, check_liveness)`` for the ``repro verify --fast`` set.

    The tiny set keeps the two smallest models.
    """
    from repro.verification.dir_model import DirFlatModel
    from repro.verification.token_model import (
        TokenDstModel, TokenRecreateModel, TokenSafetyModel,
    )

    specs = [
        (TokenSafetyModel, False),
        (lambda: TokenDstModel(coarse_sends=True, atomic_broadcasts=True), True),
        (TokenRecreateModel, False),
        (DirFlatModel, True),
    ]
    return [specs[0], specs[3]] if tiny else specs


def _run_sim(cell, tracer):
    from repro.exp import runner

    profiler = None
    if tracer is not None:
        from tracing import LayerProfiler

        profiler = LayerProfiler(tracer)
    return runner.run_cell(cell, profiler=profiler)


def _check_sim(result):
    from repro.interconnect.traffic import Scope

    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    machine = result.raw.machine
    if machine.cfg.family == "token":
        machine.check_token_invariants()
    busy = 0.0
    links = machine.net.links_by_name()
    for name, nbytes in machine.net.link_utilization().items():
        busy_ps = nbytes * 1000 / links[name].bytes_per_ns
        busy = max(busy, busy_ps / result.runtime_ps)
    facts = {
        "events": machine.sim.events_fired,
        "refs": result.get("seq.ops"),
        "runtime_ps": result.runtime_ps,
        "miss": result.raw.stats.summaries["l1.miss_latency_ps"],
        "inter_bytes": result.scope_bytes(Scope.INTER),
        "intra_bytes": result.scope_bytes(Scope.INTRA),
        "max_link_busy_frac": busy,
        "counters": dict(result.counters),
    }
    return digest, facts


def _run_model(spec, tracer):
    from repro.verification import checker

    factory, liveness = spec
    model = factory()
    _end_setup()
    return checker.check(model, max_states=MAX_STATES, check_liveness=liveness)


def _check_model(result):
    counts = [result.states, result.transitions]
    return counts, {"states": result.states, "transitions": result.transitions}


def _run_lint(tracer):
    from repro.staticcheck import runner

    return runner.run_passes()


def _check_lint(output):
    from repro.staticcheck import diff_baseline, load_baseline

    findings, _pass_ids = output
    new, _stale = diff_baseline(
        findings, load_baseline(ROOT / "staticcheck-baseline.json")
    )
    if new:
        raise Mismatch(
            f"{len(new)} lint finding(s) beyond the baseline: {new[0]}"
        )
    return None, {"findings": len(findings)}


def build_ops(workload: str, seed: int, tiny: bool = False) -> List[Op]:
    if workload == "verify":
        ops = [
            Op(f"model/{spec[0]().name}", "model",
               lambda tracer, spec=spec: _run_model(spec, tracer), _check_model)
            for spec in model_specs(tiny)
        ]
        ops.append(Op("lint", "lint", _run_lint, _check_lint))
        return ops
    return [
        Op(cell_key(cell), "sim",
           lambda tracer, cell=cell: _run_sim(cell, tracer), _check_sim)
        for cell in sim_cells(workload, seed, tiny)
    ]


def load_expected() -> Dict[str, object]:
    """Recorded fingerprints: cell digests and model (states, transitions)."""
    doc = json.loads(EXPECTED_PATH.read_text())
    return {**doc["digests"], **doc["models"]}


# ----------------------------------------------------------------------
# Running and checking.
# ----------------------------------------------------------------------
class Book:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, expected: Dict[str, object]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first: Dict[str, object] = {}  # op key -> first fingerprint
        self.facts: Dict[str, dict] = {}  # op key -> facts of first good run

    def run(self, op: Op, tracer=None, after_setup: bool = False
            ) -> Optional[float]:
        """Run ``op`` once; its host seconds, or ``None`` if it failed.

        With ``after_setup`` the seconds start where the operation's
        set-up ended, if it marked that point.
        """
        self.attempted += 1
        # Garbage left by the previous operation (a machine is a web of
        # cycles) would otherwise be collected inside this one's timing.
        gc.collect()
        _setup_done[0] = None
        try:
            start = time.perf_counter()
            output = op.run(tracer)
            end = time.perf_counter()
            if after_setup and _setup_done[0] is not None:
                start = _setup_done[0]
            elapsed = end - start
            fingerprint, facts = op.check(output)
            want = self.expected.get(op.key)
            if want is not None and fingerprint != want:
                raise Mismatch(f"{op.key}: got {fingerprint}, recorded {want}")
            first = self.first.setdefault(op.key, fingerprint)
            if fingerprint != first:
                raise Mismatch(f"{op.key}: got {fingerprint}, first run {first}")
        except Exception:  # one failed operation must not stop the batch
            self.failed += 1
            print(f"perfbench: operation {op.key} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.facts.setdefault(op.key, facts)
        return elapsed


def measure(ops: List[Op], seconds: float, book: Book, tracer=None,
            after_setup: bool = False, probe: Optional[Callable] = None
            ) -> Dict[str, List[float]]:
    """Run ``ops`` round-robin for ``seconds``, at least one round.

    After the first round an operation is started only if its previous
    duration still fits before the deadline, so a run ends on time.
    ``probe``, if given, is called after an operation whenever the probes
    so far took less than ``SETUP_SHARE`` of the time, inside the deadline.
    """
    times: Dict[str, List[float]] = {op.key: [] for op in ops}
    last: Dict[str, float] = {}
    start = time.perf_counter()
    probe_s = 0.0
    done = 0
    while True:
        op = ops[done % len(ops)]
        if done >= len(ops) and (time.perf_counter() - start + last[op.key]
                                 > seconds):
            return times
        if tracer is not None:
            tracer.op = op.key
        begin = time.perf_counter()
        elapsed = book.run(op, tracer, after_setup)
        probe_begin = time.perf_counter()
        if probe is not None and probe_s < SETUP_SHARE * (probe_begin - start):
            probe()
            probe_s += time.perf_counter() - probe_begin
        last[op.key] = time.perf_counter() - begin
        if elapsed is not None:
            times[op.key].append(elapsed)
        done += 1


def _median_time(times: Dict[str, List[float]], ops: List[Op], kinds) -> float:
    return sum(statistics.median(times[op.key]) for op in ops
               if op.kind in kinds and times[op.key])


def _work(book: Book, ops: List[Op], times, kinds) -> int:
    """References (sim) or states (model) of the ops that completed."""
    return sum(book.facts[op.key]["refs" if op.kind == "sim" else "states"]
               for op in ops if op.kind in kinds and times[op.key])


def _setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """One set-up in a fresh process: imports, machines and workloads (or
    models), printed in seconds.  Run by :func:`setup_seconds`."""
    start = time.perf_counter()
    if workload == "verify":
        from repro.staticcheck import runner  # noqa: F401  (import cost)

        for factory, _liveness in model_specs(tiny):
            factory()
    else:
        from repro.workloads import make_workload

        for cell in sim_cells(workload, seed, tiny):
            cell.machine.build()
            make_workload(cell.workload, cell.params, seed=cell.seed,
                          **cell.kwargs)
    print(time.perf_counter() - start)


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time of one fresh process."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run._setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1')")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), workload, str(seed),
         "1" if tiny else "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _metric_doc(values: Dict[str, float], table) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in table}


def end_to_end(workload: str, seed: int, seconds: float, book: Book,
               tiny: bool = False) -> Dict[str, dict]:
    """Untraced rounds for ``seconds``; host times exclude each operation's
    set-up, which ``setup_s`` measures in fresh processes between them."""
    ops = build_ops(workload, seed, tiny)
    setups: List[float] = []

    def probe():
        setups.append(setup_seconds(workload, seed, tiny))

    with marking_setup():
        times = measure(ops, seconds, book, after_setup=True, probe=probe)
    while len(setups) < SETUP_REPEATS:
        probe()
    work_kinds = ("model",) if workload == "verify" else ("sim",)
    work_time = _median_time(times, ops, work_kinds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": _median_time(times, ops, ("sim", "model", "lint")),
        "work_per_s": (_work(book, ops, times, work_kinds) / work_time
                       if work_time else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _metric_doc(values, END_TO_END)


# ----------------------------------------------------------------------
# The traced run.
# ----------------------------------------------------------------------
def _round_metrics(delta: dict, wall_s: float) -> Dict[str, float]:
    """Metrics of one traced round.

    Host times are given as shares of the round's wall time ``wall_s``
    (``trace.wall_s``), so a layer that does no work in the workload reads
    0 rather than a constant zero time.
    """
    totals = delta["totals"]
    zero = [0, 0, 0]

    def calls(name):
        return totals.get(name, zero)[0]

    def share(ns):
        return ns / 1e9 / wall_s if wall_s else 0.0

    def total(name):
        return share(totals.get(name, zero)[1])

    def self_time(name):
        return share(totals.get(name, zero)[2])

    layer_ns: Dict[str, int] = {}
    deliveries: Dict[str, int] = {}
    for (layer, fn), (count, wall_ns, child_ns) in delta["sites"].items():
        layer_ns[layer] = layer_ns.get(layer, 0) + wall_ns - child_ns
        if fn == "handle":
            deliveries[layer] = deliveries.get(layer, 0) + count
    handled, useful = delta["transient"]
    m = {
        "sim.self_frac": self_time("sim.run"),
        "net.sends": calls("net.send"),
        "net.fanout_sends": calls("net.send_fanout"),
        "net.deliveries": sum(deliveries.values()),
        "net.self_frac": (self_time("net.send") + self_time("net.send_fanout")
                          + share(layer_ns.get("net", 0))),
        "core.transient_deliveries": handled,
        "core.transient_useful_frac": useful / handled if handled else 0.0,
        # Thread start-up and generator creation run in Machine.run itself.
        "cpu.self_frac": (share(layer_ns.get("cpu", 0))
                          + self_time("sim.machine_run")),
        "other.self_frac": share(layer_ns.get("other", 0)),
        "setup.build_frac": self_time("setup.build"),
        "setup.workload_frac": self_time("setup.workload"),
        "exp.overhead_frac": self_time("exp.run_cell"),
        "mc.expand_frac": self_time("mc.transitions"),
        "mc.canon_frac": self_time("mc.canonicalize"),
        "mc.canon_calls": calls("mc.canonicalize"),
        "mc.invariant_frac": self_time("mc.check_invariants"),
        "mc.checker_self_frac": self_time("mc.check"),
        "lint.parse_frac": total("lint.load_tree"),
        "lint.parses": calls("lint.parse_source"),
        "trace.wall_s": wall_s,
    }
    for layer in ("core.l1", "core.l2", "core.mem",
                  "dir.l1", "dir.intra", "dir.inter"):
        m[f"{layer}.deliveries"] = deliveries.get(layer, 0)
        m[f"{layer}.self_frac"] = share(layer_ns.get(layer, 0))
    for pass_id in LINT_PASSES:
        m[f"lint.pass_frac.{pass_id}"] = total(f"lint.pass.{pass_id}")
    return m


def _fact_metrics(book: Book, ops: List[Op]) -> Dict[str, float]:
    """Deterministic metrics from the checked outputs."""
    from repro.common.stats import Summary

    sims = [book.facts[op.key] for op in ops
            if op.kind == "sim" and op.key in book.facts]
    models = [book.facts[op.key] for op in ops
              if op.kind == "model" and op.key in book.facts]
    lint = [book.facts[op.key] for op in ops
            if op.kind == "lint" and op.key in book.facts]

    def counter(name):
        return sum(f["counters"].get(name, 0) for f in sims)

    miss = Summary()
    for f in sims:
        miss.merge(f["miss"])
    events = sum(f["events"] for f in sims)
    refs = sum(f["refs"] for f in sims)
    hits, misses = counter("l1.hits"), counter("l1.misses")
    persistent = counter("persistent.requests")
    requests = persistent + counter("policy.transient_requests")
    return {
        "sim.events": events,
        "sim.events_per_ref": events / refs if refs else 0.0,
        "net.max_link_busy_frac": max(
            (f["max_link_busy_frac"] for f in sims), default=0.0),
        "core.persistent_share": persistent / requests if requests else 0.0,
        "core.escalations": counter("l2.escalations"),
        "core.retries": counter("policy.retries"),
        "dir.deferred": (counter("l2.deferred_requests")
                         + counter("interdir.deferred_requests")),
        "mem.l1_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "mem.dram_reads": counter("mem.dram_reads") + counter("interdir.dram_reads"),
        "cpu.refs": refs,
        "mc.states": sum(f["states"] for f in models),
        "mc.transitions": sum(f["transitions"] for f in models),
        "lint.findings": sum(f["findings"] for f in lint),
        "sim_runtime_us": sum(f["runtime_ps"] for f in sims) / 1e6,
        "sim_miss_p50_ns": miss.percentile(50) / 1000,
        "sim_miss_p99_ns": miss.percentile(99) / 1000,
        "sim_miss_samples": miss.count,
        "inter_cmp_bytes": sum(f["inter_bytes"] for f in sims),
        "intra_cmp_bytes": sum(f["intra_bytes"] for f in sims),
    }


def per_layer(workload: str, seed: int, seconds: float, book: Book,
              tiny: bool = False, trace_path: Optional[Path] = None
              ) -> Dict[str, dict]:
    """An untimed warm-up round, then an untraced and a traced round in
    turn for ``seconds``, at least one of each.  Time metrics are medians
    over the rounds of their kind."""
    from tracing import Tracer

    ops = build_ops(workload, seed, tiny)
    every = ("sim", "model", "lint")
    start = time.perf_counter()
    measure(ops, 0, book)  # first-call costs: imports, lazy tables
    tracer = Tracer()
    untraced: List[float] = []
    rounds = []
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        untraced.append(_median_time(measure(ops, 0, book), ops, every))
        before = tracer.snapshot()
        tracer.install()
        try:
            times = measure(ops, 0, book, tracer)
        finally:
            tracer.unpatch_all()
        rounds.append(_round_metrics(tracer.since(before),
                                     _median_time(times, ops, every)))
        last = time.perf_counter() - begin
    if trace_path is not None:
        tracer.write(trace_path)
    values = {name: statistics.median(r[name] for r in rounds)
              for name in rounds[0]}
    untraced_wall = statistics.median(untraced)
    values.update(_fact_metrics(book, ops))
    values["mc.new_state_frac"] = (
        values["mc.states"] / values["mc.canon_calls"]
        if values["mc.canon_calls"] else 0.0
    )
    values["failed_frac"] = book.failed / book.attempted
    values["trace.overhead_frac"] = (
        values["trace.wall_s"] / untraced_wall if untraced_wall else 0.0
    )
    return _metric_doc(values, PER_LAYER)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, expected: Optional[dict] = None,
                  trace_path: Optional[Path] = None) -> dict:
    """The result object the command prints as its last line."""
    book = Book(load_expected() if expected is None else expected)
    if trace:
        metrics = per_layer(workload, seed, seconds, book, tiny, trace_path)
    else:
        metrics = end_to_end(workload, seed, seconds, book, tiny)
    return {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics as "
                    "JSON on the last line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import repro  # noqa: F401  (fail before any output without the sources)

    trace_path = None
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), trace_path=trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
