"""Machine: a fully wired simulated M-CMP system plus run helpers.

``MachineSpec(...).build()`` (see :mod:`repro.system.spec`) builds every
controller for the chosen protocol family on a fresh event kernel;
:meth:`run` drives a workload to completion and returns a
:class:`RunResult` with runtime and traffic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.errors import DeadlockError, ProtocolError
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind, to_ns
from repro.cpu.sequencer import Sequencer
from repro.cpu.thread import ProcThread
from repro.interconnect.network import Network
from repro.interconnect.traffic import Scope, TrafficMeter
from repro.sim.kernel import Simulator
from repro.system.config import ProtocolConfig
from repro.system.spec import MachineSpec
from repro.workloads.base import Workload


@dataclasses.dataclass
class RunResult:
    """Outcome of one workload run."""

    protocol: str
    workload: str
    runtime_ps: int
    stats: Stats
    meter: TrafficMeter
    machine: "Machine"

    @property
    def runtime_ns(self) -> float:
        return to_ns(self.runtime_ps)

    def traffic_bytes(self, scope: Scope) -> int:
        return self.meter.scope_bytes(scope)


class Machine:
    """One simulated M-CMP system.  Construct via ``MachineSpec(...).build()``."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        params = spec.params
        faults = spec.faults
        self.params = params
        self.cfg: ProtocolConfig = spec.protocol
        self.seed = spec.seed
        self.sim = Simulator()
        self.stats = Stats()
        self.meter = TrafficMeter()
        net = Network(self.sim, params, self.meter)
        if faults is not None:
            # Wrap the interconnect in the adversarial decorator *before*
            # any controller registers, so every endpoint is faultable.
            from repro.faults.injector import FaultyNetwork

            net = FaultyNetwork(net, faults, seed=spec.seed, stats=self.stats)
        self.net = net
        self.watchdog = None  # set by faults.watchdog.LivenessWatchdog
        self.recovery = None  # RecoveryLedger, set by enable_recovery()
        self.l1ds: List = []  # per-processor L1 data controllers
        self.l1is: List = []  # per-processor L1 instruction controllers
        self.controllers: Dict[NodeId, object] = {}
        self.mems: Dict[int, object] = {}
        self._build()
        if faults is not None and getattr(faults, "lossy", False):
            self.enable_recovery()
        self.sequencers = [
            Sequencer(
                self.sim, p, self.l1ds[p], self.stats,
                l1i=self.l1is[p] if p < len(self.l1is) else None,
            )
            for p in range(params.num_procs)
        ]

    # ------------------------------------------------------------------
    def _build(self) -> None:
        if self.cfg.family == "token":
            from repro.system.builder import build_token_machine

            build_token_machine(self)
        elif self.cfg.family == "directory":
            from repro.system.builder import build_directory_machine

            build_directory_machine(self)
        elif self.cfg.family == "snooping":
            from repro.system.builder import build_snooping_machine

            build_snooping_machine(self)
        else:
            from repro.system.builder import build_perfect_machine

            build_perfect_machine(self)

    # ------------------------------------------------------------------
    def enable_recovery(self):
        """Arm the token-recreation recovery subsystem (token family).

        Creates the shared :class:`~repro.recovery.ledger.RecoveryLedger`,
        wires it into the memory controllers (rulers of tokens) and the
        fault-injecting network, and arms the L1s' recreation escalation
        tier.  Idempotent.  Required for ``FaultConfig(lossy=True)`` runs
        and for :class:`~repro.faults.crash.CrashInjector` — without it,
        destroyed tokens would starve their block forever.
        """
        if self.recovery is not None:
            return self.recovery
        if self.cfg.family != "token":
            raise ProtocolError("token recovery only applies to the token family")
        from repro.core.l1 import TokenL1Controller
        from repro.recovery.ledger import RecoveryLedger

        self.recovery = ledger = RecoveryLedger()
        for mem in self.mems.values():
            mem.ledger = ledger
        for ctrl in self.controllers.values():
            if isinstance(ctrl, TokenL1Controller):
                ctrl.recovery_enabled = True
        if hasattr(self.net, "in_flight_tokens"):  # FaultyNetwork wrapper
            self.net.ledger = ledger
            self.net.epoch_of = self.block_epoch
        return ledger

    def block_epoch(self, addr: int) -> int:
        """The block's current recreation epoch at its home controller."""
        return self.mems[self.params.home_chip(addr)].epoch_of(addr)

    def run(self, workload: Workload, max_events: Optional[int] = None) -> RunResult:
        """Run ``workload`` to completion and return the results."""
        gens = workload.generators()
        if len(gens) != self.params.num_procs:
            raise ValueError(
                f"workload built {len(gens)} threads for {self.params.num_procs} processors"
            )
        unfinished = {"count": len(gens)}

        def _on_finish(thread: ProcThread) -> None:
            unfinished["count"] -= 1

        threads = [
            ProcThread(self.sim, self.sequencers[p], gen, _on_finish)
            for p, gen in enumerate(gens)
        ]
        for thread in threads:
            thread.start()
        if self.watchdog is not None:
            self.watchdog.arm(threads)
        try:
            self.sim.run(max_events=max_events, expect_drain=True)
            if unfinished["count"]:
                raise DeadlockError(
                    f"{unfinished['count']} threads never finished "
                    f"({self.cfg.name} / {workload.name}); the system went "
                    "quiescent without completing"
                )
        except DeadlockError as err:
            if self.watchdog is not None:
                raise self.watchdog.attach_diagnostics(err)
            raise
        finally:
            if self.watchdog is not None:
                self.watchdog.disarm()
        runtime = max(t.finish_time for t in threads)
        self.stats.counters["runtime_ps"] = runtime
        return RunResult(
            protocol=self.cfg.name,
            workload=workload.name,
            runtime_ps=runtime,
            stats=self.stats,
            meter=self.meter,
            machine=self,
        )

    def run_measured(
        self,
        warmup: Workload,
        measured: Workload,
        max_events: Optional[int] = None,
    ) -> RunResult:
        """Warm the caches with one workload, then measure another.

        Mirrors the paper's methodology ("N requests to warm simulated
        hardware caches, detailed simulations of M requests for reported
        results"): the returned result's runtime and statistics cover the
        measured phase only (counter and traffic snapshots are deltas).
        """
        self.run(warmup, max_events=max_events)
        counters_before = self.stats.snapshot()
        meter_before = dict(self.meter.bytes)
        start_ps = self.sim.now
        result = self.run(measured, max_events=max_events)
        result = dataclasses.replace(result, runtime_ps=self.sim.now - start_ps)
        for name, value in counters_before.items():
            if name in result.stats.counters and name != "runtime_ps":
                result.stats.counters[name] -= value
        for key, value in meter_before.items():
            result.meter.bytes[key] -= value
        result.stats.counters["runtime_ps"] = result.runtime_ps
        return result

    # ------------------------------------------------------------------
    # Post-run invariant checking (token family).
    # ------------------------------------------------------------------
    def touched_blocks(self) -> set:
        """All block addresses with any coherence state (token family)."""
        from repro.core.base import TokenCacheController

        addrs = set()
        for ctrl in self.controllers.values():
            if isinstance(ctrl, TokenCacheController):
                addrs.update(a for a, _e in ctrl.array.items())
        for mem in self.mems.values():
            addrs.update(mem._tokens.keys())
            addrs.update(mem.image._values.keys())
        in_flight = getattr(self.net, "in_flight_tokens", None)
        if in_flight is not None:
            addrs.update(addr for addr, _triple in in_flight())
        return addrs

    def check_token_invariants(self) -> None:
        """Verify token conservation and value coherence for every block.

        Safe at quiescence (drained queue) and, on a fault-injected
        machine, at any event boundary: the faulty network tracks every
        token-carrying message from send to absorption, and those
        in-flight tokens are counted in the census.
        """
        if self.cfg.family != "token":
            raise ProtocolError("token invariants only apply to the token family")
        from repro.core.base import TokenCacheController
        from repro.core.tokens import check_conservation

        # Census the in-flight carriers, keeping only those of each
        # block's *current* recreation epoch — stale-epoch carriers are
        # walking dead (discarded on arrival, already replaced by the
        # reconstituted set at memory) and must not be counted.
        in_flight_by_addr: Dict[int, list] = {}
        collect = getattr(self.net, "in_flight_token_epochs", None)
        if collect is not None:
            for addr, epoch, triple in collect():
                if epoch >= self.block_epoch(addr):
                    in_flight_by_addr.setdefault(addr, []).append(triple)

        for addr in self.touched_blocks():
            home = self.mems[self.params.home_chip(addr)]
            holders = []
            for node, ctrl in self.controllers.items():
                if isinstance(ctrl, TokenCacheController):
                    entry = ctrl.peek_entry(addr)
                    if entry is not None:
                        holders.append((str(node), entry))
            destroyed, destroyed_owner = (
                self.recovery.deficit(addr) if self.recovery is not None else (0, False)
            )
            check_conservation(
                holders,
                mem_tokens=home.tokens_of(addr),
                mem_owner=home.is_owner(addr),
                mem_value=home.image.read(addr),
                total_tokens=self.params.tokens_per_block,
                in_flight=in_flight_by_addr.get(addr, ()),
                destroyed_tokens=destroyed,
                destroyed_owner=destroyed_owner,
                recreating=home.is_recreating(addr),
            )

    def coherent_value(self, addr: int) -> int:
        """The architecturally current value of a block (owner's copy)."""
        addr = self.params.block_of(addr)
        if self.cfg.family == "token":
            from repro.core.base import TokenCacheController

            for ctrl in self.controllers.values():
                if isinstance(ctrl, TokenCacheController):
                    entry = ctrl.peek_entry(addr)
                    if entry is not None and entry.owner:
                        return entry.value
            return self.mems[self.params.home_chip(addr)].image.read(addr)
        if self.cfg.family == "perfect":
            return self._perfect_l2.image.read(addr)
        if self.cfg.family == "snooping":
            return self._snoop_coordinator.coherent_value(addr)
        from repro.directory.inter import coherent_value as dir_value

        return dir_value(self, addr)
