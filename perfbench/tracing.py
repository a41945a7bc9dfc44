"""Span tracing for the benchmark's traced run.

The benchmark traces from outside the program: :class:`Tracer` swaps
span-recording wrappers in for public functions and methods of each layer
(cell execution, machine construction, the kernel's run loop, network
sends, the model checker's model hooks, the staticcheck loader and
passes) and puts the originals back afterwards.  ``src/`` is never edited.

Every span has a name, a start, an end, a parent span and the id of the
operation (cell, model check or lint run) that was in progress.  Spans
are kept in memory; :meth:`Tracer.write` writes them once, at the end.
The coarse spans (one per cell, build, kernel run, model check, pass)
are kept as individual records.  The hot ones -- hundreds of thousands
per cell, such as network sends and model-checker hooks -- are folded
into per-name totals as they close, so the trace stays small.  The
record of a folded span's nearest recorded ancestor is its parent.

A span's self time is its duration minus the time its child spans
cover.  Kernel callbacks are not wrapped: :class:`LayerProfiler` rides
the kernel's existing profiler hook, charges each callback's wall time
to the layer of the callback's module and class, and takes from it the
network spans that ran inside the callback.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.obs.profile import KernelProfiler

_now = time.perf_counter_ns

#: Module of a kernel callback's owner class -> layer that gets its time.
LAYER_OF_MODULE = {
    "repro.core.l1": "core.l1",
    "repro.core.l2": "core.l2",
    "repro.core.memctrl": "core.mem",
    "repro.directory.l1": "dir.l1",
    "repro.directory.intra": "dir.intra",
    "repro.directory.inter": "dir.inter",
    "repro.cpu.thread": "cpu",
    "repro.cpu.sequencer": "cpu",
    "repro.interconnect.network": "net",
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        # Open spans, innermost last: [child_ns, record index, callback mark].
        self.stack: List[list] = []
        # Span name -> [calls, total ns, self ns].
        self.totals: Dict[str, List[int]] = {}
        # Recorded spans: [name, start ns, end ns, parent index, op id].
        self.records: List[list] = []
        # (layer, callback name) -> [calls, wall ns, child-span ns].
        self.sites: Dict[Tuple[str, str], List[int]] = {}
        # Token-cache TOK_GETS/TOK_GETX deliveries: [handled, followed by a send].
        self.transient = [0, 0]
        # Sender node -> send / fan-out calls it made.
        self.sends_from: Dict[object, int] = {}
        self.op = ""
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, record: bool = False) -> Callable:
        """``fn`` wrapped so that each call is one span named ``name``."""
        stack = self.stack
        records = self.records
        totals = self.totals.setdefault(name, [0, 0, 0])
        tracer = self

        def wrapper(*args, **kwargs):
            if record:
                index = len(records)
                records.append(
                    [name, 0, 0, stack[-1][1] if stack else -1, tracer.op]
                )
            else:
                index = stack[-1][1] if stack else -1
            frame = [0, index, 0]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record:
                    records[index][1] = start
                    records[index][2] = end

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`unpatch_all`."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, record: bool = False) -> None:
        self.patch(owner, attr, self.span(name, getattr(owner, attr), record))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public calls of every layer the benchmark runs."""
        from repro.core.base import TokenCacheController
        from repro.exp import runner
        from repro.interconnect.message import MsgType
        from repro.interconnect.network import Network
        from repro.sim.kernel import Simulator
        from repro.staticcheck import runner as lint_runner
        from repro.staticcheck import source
        from repro.staticcheck.base import PASSES
        from repro.system.machine import Machine
        from repro.system.spec import MachineSpec
        from repro.verification import checker
        from repro.verification.dir_model import DirFlatModel
        from repro.verification.token_model import (
            TokenDstModel, TokenRecreateModel, TokenSafetyModel,
        )

        self.patch_span(runner, "run_cell", "exp.run_cell", record=True)
        self.patch_span(runner, "make_workload", "setup.workload", record=True)
        self.patch_span(MachineSpec, "build", "setup.build", record=True)
        self.patch_span(Machine, "run", "sim.machine_run", record=True)
        self.patch_span(Simulator, "run", "sim.run", record=True)

        sends_from = self.sends_from
        send = self.span("net.send", Network.send)
        fanout = self.span("net.send_fanout", Network.send_fanout)

        def counted_send(net, msg):
            src = msg.src
            sends_from[src] = sends_from.get(src, 0) + 1
            send(net, msg)

        def counted_fanout(net, template, dests):
            src = template.src
            sends_from[src] = sends_from.get(src, 0) + 1
            fanout(net, template, dests)

        self.patch(Network, "send", counted_send)
        self.patch(Network, "send_fanout", counted_fanout)

        # Not a span: the profiler already times the callback.  This only
        # counts transient requests and whether the cache answered them.
        process = TokenCacheController._process
        transient = self.transient
        requests = (MsgType.TOK_GETS, MsgType.TOK_GETX)

        def counted_process(ctrl, msg):
            if msg.mtype not in requests:
                return process(ctrl, msg)
            node = ctrl.node
            before = sends_from.get(node, 0)
            process(ctrl, msg)
            transient[0] += 1
            if sends_from.get(node, 0) != before:
                transient[1] += 1

        counted_process.__name__ = "_process"
        self.patch(TokenCacheController, "_process", counted_process)

        self.patch_span(checker, "check", "mc.check", record=True)
        for model in (TokenSafetyModel, TokenDstModel, TokenRecreateModel,
                      DirFlatModel):
            self.patch_span(model, "transitions", "mc.transitions")
            self.patch_span(model, "canonicalize", "mc.canonicalize")
            self.patch_span(model, "check_invariants", "mc.check_invariants")

        self.patch_span(lint_runner, "run_passes", "lint.run_passes", record=True)
        self.patch_span(lint_runner, "load_tree", "lint.load_tree", record=True)
        self.patch_span(source, "parse_source", "lint.parse_source")
        for lint_pass in PASSES:
            self.patch_span(lint_pass, "run", f"lint.pass.{lint_pass.id}",
                            record=True)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "sites": {k: list(v) for k, v in self.sites.items()},
            "transient": list(self.transient),
        }

    def since(self, before: dict) -> dict:
        """What accumulated after ``before`` (a :meth:`snapshot`)."""
        now = self.snapshot()

        def sub(cur, old):
            return {
                k: [a - b for a, b in zip(v, old.get(k, [0] * len(v)))]
                for k, v in cur.items()
            }

        return {
            "totals": sub(now["totals"], before["totals"]),
            "sites": sub(now["sites"], before["sites"]),
            "transient": [a - b for a, b in
                          zip(now["transient"], before["transient"])],
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans, per-name totals of every span (folded
        ones included) and the per-layer callback times as one JSON document."""
        doc = {
            "schema": "perfbench.trace/1",
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
                for n, s, e, p, op in self.records
            ],
            "totals": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "callbacks": {
                f"{layer}:{fn}": {"calls": c, "wall_ns": w, "child_ns": ch}
                for (layer, fn), (c, w, ch) in sorted(self.sites.items())
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")


class LayerProfiler(KernelProfiler):
    """Kernel profiler hook that charges callback time to layers.

    One instance per cell.  ``record`` runs after each kernel callback,
    while the ``sim.run`` span is the innermost open span.  Spans that
    closed inside the callback were added to that span's child time; they
    are moved to the callback, and the callback's whole wall time becomes
    the ``sim.run`` span's child time instead, so nothing is counted twice.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def record(self, fn, wall_ns: int) -> None:
        frame = self.tracer.stack[-1]
        child_ns = frame[0] - frame[2]
        frame[0] = frame[2] = frame[2] + wall_ns
        owner = getattr(fn, "__self__", None)
        module = type(owner).__module__ if owner is not None else fn.__module__
        key = (LAYER_OF_MODULE.get(module, "other"), fn.__name__)
        site = self.tracer.sites.get(key)
        if site is None:
            site = self.tracer.sites[key] = [0, 0, 0]
        site[0] += 1
        site[1] += wall_ns
        site[2] += child_ns
