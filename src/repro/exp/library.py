"""Named experiment definitions: one code path from spec to table.

Every figure/table experiment the repository reproduces is declared here
as an :class:`Experiment` — a spec builder plus a table renderer over the
structured :class:`~repro.exp.result.CellResult` records.  The pytest
benchmarks under ``benchmarks/`` and the ``python -m repro bench``
subcommand drive the *same* definitions, so there is exactly one source
of truth for each experiment's grid and its rendered output.

Model checking (Section 5) is not cell-shaped (no machine, no workload)
and stays in ``bench_sec5_modelcheck`` / ``python -m repro verify``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.analysis.report import ResultTable
from repro.common.params import SystemParams, auto_tokens
from repro.exp.runner import ExperimentResult
from repro.exp.spec import Cell, ExperimentSpec
from repro.interconnect.topology import Topology
from repro.interconnect.traffic import Scope, TrafficClass

# ---------------------------------------------------------------------------
# Figures 2 & 3: locking micro-benchmark.
# ---------------------------------------------------------------------------

LOCK_COUNTS = [2, 4, 8, 16, 32, 64, 128, 256, 512]
FIG2_PROTOCOLS = [
    "TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst0",
]
FIG3_PROTOCOLS = [
    "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst4", "TokenCMP-dst1",
    "TokenCMP-dst1-pred",
]
LOCK_ACQUIRES = 12
GRID_MAX_EVENTS = 120_000_000


def _locking_spec(name: str, protocols: List[str]) -> ExperimentSpec:
    cells = []
    for nl in LOCK_COUNTS:
        # High-contention points are noisy: average over perturbed runs,
        # the paper's Alameldeen & Wood methodology (error bars).
        seeds = (1, 2, 3) if nl <= 8 else (1,)
        for proto in protocols:
            for seed in seeds:
                cells.append(Cell(
                    protocol=proto, workload="locking",
                    workload_kwargs={
                        "num_locks": nl, "acquires_per_proc": LOCK_ACQUIRES,
                    },
                    seed=seed, max_events=GRID_MAX_EVENTS, label=str(nl),
                ))
    return ExperimentSpec(name=name, cells=tuple(cells))


def locking_grid(result: ExperimentResult, protocols: List[str]
                 ) -> Dict[int, Dict[str, float]]:
    return {
        nl: result.runtime_grid(protocols, label=str(nl))
        for nl in LOCK_COUNTS
    }


def _render_locking(result, protocols, title) -> List[ResultTable]:
    grid = locking_grid(result, protocols)
    base = grid[512]["DirectoryCMP"]
    table = ResultTable(title, ["locks"] + protocols)
    for nl in LOCK_COUNTS:
        table.add(nl, *(f"{grid[nl][p] / base:.2f}" for p in protocols))
    return [table]


# ---------------------------------------------------------------------------
# Table 4: barrier micro-benchmark.
# ---------------------------------------------------------------------------

TABLE4_PROTOCOLS = [
    "TokenCMP-arb0", "TokenCMP-dst0", "DirectoryCMP", "DirectoryCMP-zero",
    "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
]
TABLE4_PAPER = {
    "TokenCMP-arb0": (1.40, 1.29),
    "TokenCMP-dst0": (0.94, 0.91),
    "DirectoryCMP": (1.00, 1.00),
    "DirectoryCMP-zero": (0.95, 0.93),
    "TokenCMP-dst4": (1.15, 1.01),
    "TokenCMP-dst1": (0.99, 0.95),
    "TokenCMP-dst1-pred": (0.96, 0.93),
    "TokenCMP-dst1-filt": (0.99, 0.95),
}
BARRIER_PHASES = 16


def _table4_spec() -> ExperimentSpec:
    cells = []
    for label, jitter in (("fixed", 0.0), ("jitter", 1000.0)):
        for proto in TABLE4_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="barrier",
                workload_kwargs={
                    "phases": BARRIER_PHASES, "work_ns": 3000.0,
                    "work_jitter_ns": jitter,
                },
                seed=1, max_events=GRID_MAX_EVENTS, label=label,
            ))
    return ExperimentSpec(name="table4", cells=tuple(cells))


def _render_table4(result) -> List[ResultTable]:
    fixed = result.runtime_grid(TABLE4_PROTOCOLS, label="fixed")
    jitter = result.runtime_grid(TABLE4_PROTOCOLS, label="jitter")
    table = ResultTable(
        "Table 4 - barrier micro-benchmark runtime, normalized to DirectoryCMP",
        ["protocol", "3000ns fixed", "paper", "3000ns +-U(1000)", "paper"],
    )
    for proto in TABLE4_PROTOCOLS:
        table.add(
            proto,
            f"{fixed[proto] / fixed['DirectoryCMP']:.2f}",
            f"{TABLE4_PAPER[proto][0]:.2f}",
            f"{jitter[proto] / jitter['DirectoryCMP']:.2f}",
            f"{TABLE4_PAPER[proto][1]:.2f}",
        )
    return [table]


# ---------------------------------------------------------------------------
# Figures 6 & 7: commercial workloads.
# ---------------------------------------------------------------------------

FIG6_PROTOCOLS = [
    "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst4", "TokenCMP-dst1",
    "TokenCMP-dst1-pred", "TokenCMP-dst1-filt", "PerfectL2",
]
FIG7_PROTOCOLS = [
    "DirectoryCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred",
    "TokenCMP-dst1-filt",
]
COMMERCIAL_WORKLOADS = ["oltp", "apache", "specjbb"]
PAPER_SPEEDUP = {"oltp": 0.50, "apache": 0.29, "specjbb": 0.10}
COMMERCIAL_REFS = 250


def _commercial_spec(name: str, protocols: List[str]) -> ExperimentSpec:
    return ExperimentSpec.grid(
        name, protocols,
        [(wl, {"refs_per_proc": COMMERCIAL_REFS}) for wl in COMMERCIAL_WORKLOADS],
        max_events=GRID_MAX_EVENTS,
    )


def commercial_results(result: ExperimentResult, protocols: List[str]
                       ) -> Dict[str, Dict[str, object]]:
    return {
        wl: result.by_protocol(protocols, workload=wl)
        for wl in COMMERCIAL_WORKLOADS
    }


def _render_fig6(result) -> List[ResultTable]:
    all_results = commercial_results(result, FIG6_PROTOCOLS)
    table = ResultTable(
        "Figure 6 - commercial workload runtime normalized to DirectoryCMP "
        "(smaller is better)",
        ["protocol"] + COMMERCIAL_WORKLOADS,
    )
    for proto in FIG6_PROTOCOLS:
        cells = []
        for wl in COMMERCIAL_WORKLOADS:
            base = all_results[wl]["DirectoryCMP"].runtime_ps
            cells.append(f"{all_results[wl][proto].runtime_ps / base:.2f}")
        table.add(proto, *cells)
    speedups = ResultTable(
        "TokenCMP-dst1 speedup over DirectoryCMP (paper: OLTP 50%, Apache 29%, "
        "SPECjbb 10%)",
        ["workload", "measured", "paper"],
    )
    for wl in COMMERCIAL_WORKLOADS:
        base = all_results[wl]["DirectoryCMP"].runtime_ps
        tok = all_results[wl]["TokenCMP-dst1"].runtime_ps
        speedups.add(wl, f"{base / tok - 1:+.0%}", f"+{PAPER_SPEEDUP[wl]:.0%}")
    latency = ResultTable(
        "L1 miss latency in ns (mean / p50 / p95) - the indirection gap",
        ["workload", "protocol", "mean", "p50", "p95"],
    )
    for wl in COMMERCIAL_WORKLOADS:
        for proto in ("DirectoryCMP", "TokenCMP-dst1"):
            summary = all_results[wl][proto].summary("l1.miss_latency_ps")
            latency.add(
                wl, proto,
                f"{summary['mean'] / 1000:.0f}",
                f"{summary['p50'] / 1000:.0f}",
                f"{summary['p95'] / 1000:.0f}",
            )
    return [table, speedups, latency]


def traffic_norm(results: Dict[str, object], scope: Scope, baseline: str
                 ) -> Dict[str, Dict[TrafficClass, float]]:
    """Per-protocol traffic by class, normalized to ``baseline``'s total."""
    base_total = results[baseline].scope_bytes(scope)
    return {
        name: {
            klass: (value / base_total if base_total else 0.0)
            for klass, value in res.breakdown(scope).items()
        }
        for name, res in results.items()
    }


def _render_fig7(result) -> List[ResultTable]:
    all_results = commercial_results(result, FIG7_PROTOCOLS)
    tables = []
    for scope, title in (
        (Scope.INTER, "Figure 7a - inter-CMP traffic by message class "
                      "(bytes, normalized to DirectoryCMP total)"),
        (Scope.INTRA, "Figure 7b - intra-CMP traffic by message class "
                      "(bytes, normalized to DirectoryCMP total)"),
    ):
        table = ResultTable(
            title,
            ["workload", "protocol", "total"] + [k.value for k in TrafficClass],
        )
        for wl in COMMERCIAL_WORKLOADS:
            norm = traffic_norm(all_results[wl], scope, "DirectoryCMP")
            for proto in FIG7_PROTOCOLS:
                row = norm[proto]
                table.add(
                    wl, proto, f"{sum(row.values()):.2f}",
                    *(f"{row[k]:.3f}" for k in TrafficClass),
                )
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# The fig6 smoke cell: the pinned end-to-end determinism anchor.
# ---------------------------------------------------------------------------

SMOKE_CELL_PROTOCOL = "TokenCMP-dst1"
SMOKE_CELL_WORKLOAD = "oltp"
SMOKE_CELL_REFS = 120
SMOKE_CELL_SEED = 1


def fig6_smoke_cell(telemetry=None) -> Cell:
    """One representative fig6 cell, pinned across PRs.

    The perf suite's e2e benchmark, the determinism tests and the CI
    telemetry-smoke job all run exactly this cell (metrics sha
    ``8d0b5685...``, 163255 events), so any behavioral drift shows up as
    one diff everywhere.  ``telemetry`` optionally attaches a
    :class:`~repro.obs.telemetry.TelemetryConfig` — sampling is
    observational, so the simulated outcome is identical either way.
    """
    return Cell(
        protocol=SMOKE_CELL_PROTOCOL,
        workload=SMOKE_CELL_WORKLOAD,
        workload_kwargs={"refs_per_proc": SMOKE_CELL_REFS},
        seed=SMOKE_CELL_SEED,
        max_events=GRID_MAX_EVENTS,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Hand-off latency (mechanism behind Figure 6).
# ---------------------------------------------------------------------------

HANDOFF_PROTOCOLS = ["DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst1", "TokenB"]
HANDOFF_ROUNDS = 24


def _handoff_spec() -> ExperimentSpec:
    params = SystemParams()
    cells = []
    for label, proc_b in (("same chip", 1), ("cross chip", params.procs_per_chip)):
        for proto in HANDOFF_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="pingpong",
                workload_kwargs={
                    "proc_a": 0, "proc_b": proc_b, "rounds": HANDOFF_ROUNDS,
                },
                seed=1, params=params, label=label,
            ))
    return ExperimentSpec(name="handoff", cells=tuple(cells))


def handoff_grid(result: ExperimentResult) -> Dict[tuple, float]:
    """ns per ping-pong round trip, keyed by (pair label, protocol)."""
    return {
        (label, proto): result.cell(protocol=proto, label=label).runtime_ps
        / HANDOFF_ROUNDS / 1000.0
        for label in ("same chip", "cross chip")
        for proto in HANDOFF_PROTOCOLS
    }


def _render_handoff(result) -> List[ResultTable]:
    grid = handoff_grid(result)
    table = ResultTable(
        "Sharing-miss hand-off: ns per ping-pong round trip (lower is better)",
        ["pair"] + HANDOFF_PROTOCOLS,
    )
    for label in ("same chip", "cross chip"):
        table.add(label, *(f"{grid[(label, p)]:.0f}" for p in HANDOFF_PROTOCOLS))
    return [table]


# ---------------------------------------------------------------------------
# CMP-count scaling (paper Section 8).
# ---------------------------------------------------------------------------

SCALING_PROTOCOLS = ["DirectoryCMP", "TokenCMP-dst1", "TokenCMP-dst1-mcast"]
CHIP_COUNTS = [2, 4, 8]
SCALING_REFS = 120


def _scaling_spec() -> ExperimentSpec:
    cells = []
    for chips in CHIP_COUNTS:
        params = SystemParams(
            num_chips=chips, tokens_per_block=128 if chips > 4 else 64
        )
        for proto in SCALING_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="oltp",
                workload_kwargs={"refs_per_proc": SCALING_REFS},
                seed=1, params=params, label=str(chips),
            ))
    return ExperimentSpec(name="scaling", cells=tuple(cells))


def scaling_grid(result: ExperimentResult) -> Dict[int, Dict[str, object]]:
    return {
        chips: result.by_protocol(SCALING_PROTOCOLS, label=str(chips))
        for chips in CHIP_COUNTS
    }


def _render_scaling(result) -> List[ResultTable]:
    grid = scaling_grid(result)
    table = ResultTable(
        "Scaling - inter-CMP traffic normalized to DirectoryCMP (OLTP) "
        "and runtime normalized to DirectoryCMP, by CMP count",
        ["CMPs"] + [f"{p} traffic" for p in SCALING_PROTOCOLS[1:]]
        + [f"{p} runtime" for p in SCALING_PROTOCOLS[1:]],
    )
    for chips in CHIP_COUNTS:
        res = grid[chips]
        base_b = res["DirectoryCMP"].scope_bytes(Scope.INTER)
        base_t = res["DirectoryCMP"].runtime_ps
        cells = [f"{res[p].scope_bytes(Scope.INTER) / base_b:.2f}"
                 for p in SCALING_PROTOCOLS[1:]]
        cells += [f"{res[p].runtime_ps / base_t:.2f}" for p in SCALING_PROTOCOLS[1:]]
        table.add(chips, *cells)
    return [table]


# ---------------------------------------------------------------------------
# Big-topology scaling (ROADMAP: 8/16-CMP mesh sweeps — where does flat
# token counting break down vs DirectoryCMP, and how much does the
# multicast destination-set predictor claw back?).
# ---------------------------------------------------------------------------

BIG_CHIP_COUNTS = [8, 16]
BIG_PROCS_PER_CHIP = 8
BIG_SCALING_REFS = 40
SMOKE_CHIPS = 8
SMOKE_PROCS_PER_CHIP = 2
SMOKE_REFS = 30


def mesh_params(chips: int, procs: int) -> SystemParams:
    """An ``chips``-CMP mesh machine with a valid power-of-two token count."""
    return SystemParams(
        num_chips=chips, procs_per_chip=procs,
        tokens_per_block=auto_tokens(chips, procs), topology=Topology.mesh(),
    )


def _mesh_scaling_spec(name: str, chip_counts: List[int], procs: int,
                       refs: int) -> ExperimentSpec:
    cells = []
    for chips in chip_counts:
        params = mesh_params(chips, procs)
        for proto in SCALING_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="oltp",
                workload_kwargs={"refs_per_proc": refs},
                seed=1, params=params, label=str(chips),
            ))
    return ExperimentSpec(name=name, cells=tuple(cells))


def _scaling_big_spec() -> ExperimentSpec:
    return _mesh_scaling_spec("scaling-big", BIG_CHIP_COUNTS,
                              BIG_PROCS_PER_CHIP, BIG_SCALING_REFS)


def _scaling_smoke_spec() -> ExperimentSpec:
    return _mesh_scaling_spec("scaling-smoke", [SMOKE_CHIPS],
                              SMOKE_PROCS_PER_CHIP, SMOKE_REFS)


def request_fanout_per_miss(res) -> float:
    """Inter-CMP request messages per L1 miss (broadcast fan-out proxy).

    Derived from existing traffic counters — request-class messages are
    control-sized, so inter-CMP request bytes / control size counts the
    inter-chip link crossings the protocol's request fan-out caused.
    """
    misses = res.get("l1.misses")
    if not misses:
        return 0.0
    ctrl = SystemParams().control_msg_bytes
    return res.breakdown(Scope.INTER)[TrafficClass.REQUEST] / ctrl / misses


def mesh_scaling_grid(result: ExperimentResult, chip_counts: List[int]
                      ) -> Dict[int, Dict[str, object]]:
    return {
        chips: result.by_protocol(SCALING_PROTOCOLS, label=str(chips))
        for chips in chip_counts
    }


def _render_mesh_scaling(result: ExperimentResult, chip_counts: List[int],
                         title: str) -> List[ResultTable]:
    tables = []
    grid = mesh_scaling_grid(result, chip_counts)
    for chips in chip_counts:
        res = grid[chips]
        base = res["DirectoryCMP"]
        table = ResultTable(
            f"{title} - {chips} CMPs (mesh)",
            ["protocol", "runtime(us)", "inter KB", "inter vs dir",
             "persistent", "req fan-out/miss"],
        )
        for proto in SCALING_PROTOCOLS:
            r = res[proto]
            inter = r.scope_bytes(Scope.INTER)
            table.add(
                proto,
                f"{r.runtime_ns / 1000:.1f}",
                f"{inter / 1024:.0f}",
                f"{inter / base.scope_bytes(Scope.INTER):.2f}",
                r.get("persistent.requests"),
                f"{request_fanout_per_miss(r):.2f}",
            )
        tables.append(table)
    return tables


def _render_scaling_big(result) -> List[ResultTable]:
    return _render_mesh_scaling(
        result, BIG_CHIP_COUNTS,
        "Big-topology scaling - TokenCMP vs DirectoryCMP",
    )


def _render_scaling_smoke(result) -> List[ResultTable]:
    return _render_mesh_scaling(
        result, [SMOKE_CHIPS], "Mesh scaling smoke (CI determinism gate)",
    )


# ---------------------------------------------------------------------------
# Time-resolved saturation on the big mesh sweep: the same cells as
# scaling-big, with telemetry sampling on — *which* links saturate, and
# *when*, as non-multicast TokenCMP crosses over at 16 CMPs.
# ---------------------------------------------------------------------------

TELEMETRY_SAMPLE_EVERY = 4096


def _scaling_telemetry_spec() -> ExperimentSpec:
    from repro.obs.telemetry import TelemetryConfig

    telemetry = TelemetryConfig(sample_every_events=TELEMETRY_SAMPLE_EVERY)
    cells = []
    for chips in BIG_CHIP_COUNTS:
        params = mesh_params(chips, BIG_PROCS_PER_CHIP)
        for proto in SCALING_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="oltp",
                workload_kwargs={"refs_per_proc": BIG_SCALING_REFS},
                seed=1, params=params, telemetry=telemetry,
                label=str(chips),
            ))
    return ExperimentSpec(name="scaling-telemetry", cells=tuple(cells))


def saturation_summary(doc: dict) -> Dict[str, object]:
    """Window counts by kind plus the earliest-starting window."""
    by_kind: Dict[str, int] = {}
    first = None
    for window in doc["saturation"]:
        by_kind[window["kind"]] = by_kind.get(window["kind"], 0) + 1
        if first is None or window["start_ps"] < first["start_ps"]:
            first = window
    return {"by_kind": by_kind, "first": first}


def _render_scaling_telemetry(result: ExperimentResult) -> List[ResultTable]:
    tables = []
    grid = mesh_scaling_grid(result, BIG_CHIP_COUNTS)
    for chips in BIG_CHIP_COUNTS:
        table = ResultTable(
            f"Saturation windows - {chips} CMPs (mesh, sampled every "
            f"{TELEMETRY_SAMPLE_EVERY} events)",
            ["protocol", "samples", "windows", "util", "backlog", "ptable",
             "first saturated"],
        )
        for proto in SCALING_PROTOCOLS:
            doc = grid[chips][proto].telemetry
            summary = saturation_summary(doc)
            kinds = summary["by_kind"]
            first = summary["first"]
            table.add(
                proto,
                len(doc["t_ps"]),
                len(doc["saturation"]),
                kinds.get("link-utilization", 0),
                kinds.get("backlog-growth", 0),
                kinds.get("ptable-near-full", 0),
                f"{first['subject']} @ {first['start_ps'] / 1e6:.1f} us"
                if first else "-",
            )
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Experiment:
    """A named, reproducible experiment: spec builder + table renderer."""

    id: str
    title: str
    build: Callable[[], ExperimentSpec]
    render: Callable[[ExperimentResult], List[ResultTable]]


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in (
        Experiment(
            "fig2", "Figure 2: locking, persistent requests only",
            lambda: _locking_spec("fig2", FIG2_PROTOCOLS),
            lambda r: _render_locking(
                r, FIG2_PROTOCOLS,
                "Figure 2 - locking micro-benchmark, persistent requests only "
                "(runtime normalized to DirectoryCMP @ 512 locks; smaller is "
                "better)",
            ),
        ),
        Experiment(
            "fig3", "Figure 3: locking, transient + persistent requests",
            lambda: _locking_spec("fig3", FIG3_PROTOCOLS),
            lambda r: _render_locking(
                r, FIG3_PROTOCOLS,
                "Figure 3 - locking micro-benchmark, transient + persistent "
                "requests (runtime normalized to DirectoryCMP @ 512 locks; "
                "smaller is better)",
            ),
        ),
        Experiment(
            "table4", "Table 4: barrier micro-benchmark",
            _table4_spec, _render_table4,
        ),
        Experiment(
            "fig6", "Figure 6: commercial workload runtime",
            lambda: _commercial_spec("fig6", FIG6_PROTOCOLS), _render_fig6,
        ),
        Experiment(
            "fig7", "Figures 7a/7b: commercial workload traffic",
            lambda: _commercial_spec("fig7", FIG7_PROTOCOLS), _render_fig7,
        ),
        Experiment(
            "handoff", "Sharing-miss hand-off latency (ping-pong)",
            _handoff_spec, _render_handoff,
        ),
        Experiment(
            "scaling", "CMP-count scaling of inter-CMP traffic (Section 8)",
            _scaling_spec, _render_scaling,
        ),
        Experiment(
            "scaling-big",
            "8/16-CMP mesh scaling: runtime, traffic, fan-out (ROADMAP)",
            _scaling_big_spec, _render_scaling_big,
        ),
        Experiment(
            "scaling-smoke",
            "small 8-CMP mesh sweep (CI determinism gate)",
            _scaling_smoke_spec, _render_scaling_smoke,
        ),
        Experiment(
            "scaling-telemetry",
            "8/16-CMP mesh sweep with time-series telemetry (saturation)",
            _scaling_telemetry_spec, _render_scaling_telemetry,
        ),
    )
}
