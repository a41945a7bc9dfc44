"""Declarative experiment specifications.

A :class:`Cell` names everything one simulation run depends on — protocol
config, workload (by registry name + kwargs), system parameters, seed,
fault config and checker settings — *as data*, so a cell can be

* executed anywhere (pickled to a worker process),
* hashed for the content-addressed result cache, and
* compared: two equal cells are guaranteed to produce equal results,
  because every run is a deterministic function of its cell.

An :class:`ExperimentSpec` is an ordered tuple of cells; the grid helper
covers the common ``protocol x workload x seed`` sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.system.config import ProtocolConfig, protocol as lookup_protocol

DEFAULT_MAX_EVENTS = 80_000_000


def _freeze_kwargs(kwargs) -> Tuple[Tuple[str, object], ...]:
    if isinstance(kwargs, dict):
        return tuple(sorted(kwargs.items()))
    return tuple(kwargs)


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent simulation run, described declaratively.

    ``workload`` is a :data:`repro.workloads.REGISTRY` name; anything
    else raises :class:`~repro.common.errors.ConfigError`.
    """

    protocol: Union[str, ProtocolConfig]
    workload: str
    workload_kwargs: Tuple[Tuple[str, object], ...] = ()
    seed: int = 1
    params: SystemParams = dataclasses.field(default_factory=SystemParams)
    max_events: Optional[int] = DEFAULT_MAX_EVENTS
    faults: Optional[object] = None  # repro.faults.injector.FaultConfig
    crash: Optional[object] = None  # repro.faults.crash.CrashSpec
    watchdog_budget_ns: Optional[float] = None
    watchdog_check_every: Optional[int] = None
    invariant_check_every: Optional[int] = None
    check_invariants: bool = False
    # repro.obs.telemetry.TelemetryConfig; sampling is observational but
    # the result carries the telemetry document, so it is part of the key.
    telemetry: Optional[object] = None
    # Free-form grouping tag (e.g. a lock count or chip count); not part
    # of the cache key because it cannot affect the simulation.
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str):
            raise ConfigError(
                f"Cell workload must be a registry name, got {self.workload!r}"
            )
        if isinstance(self.protocol, str):
            object.__setattr__(self, "protocol", lookup_protocol(self.protocol))
        object.__setattr__(
            self, "workload_kwargs", _freeze_kwargs(self.workload_kwargs)
        )

    # ------------------------------------------------------------------
    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.workload_kwargs)

    @property
    def protocol_name(self) -> str:
        return self.protocol.name

    @property
    def workload_name(self) -> str:
        return self.workload

    @property
    def machine(self) -> "MachineSpec":
        """The cell's machine construction recipe (the run-side half).

        ``run_cell`` builds the machine via ``cell.machine.build()``; the
        remaining cell fields describe the workload and the checkers that
        ride on top of the built machine.
        """
        from repro.system.spec import MachineSpec

        return MachineSpec(
            params=self.params,
            protocol=self.protocol,
            seed=self.seed,
            faults=self.faults,
            crash=self.crash,
        )

    # ------------------------------------------------------------------
    def key_material(self) -> dict:
        """Everything the simulation outcome depends on, JSON-ready.

        The protocol is expanded to its full config so *any* change to a
        code-relevant knob (e.g. ``max_transient``) changes the key.
        """
        material = {
            "protocol": dataclasses.asdict(self.protocol),
            "workload": self.workload,
            "workload_kwargs": dict(self.workload_kwargs),
            "params": dataclasses.asdict(self.params),
            "seed": self.seed,
            "max_events": self.max_events,
            "faults": dataclasses.asdict(self.faults) if self.faults else None,
            "watchdog_budget_ns": self.watchdog_budget_ns,
            "watchdog_check_every": self.watchdog_check_every,
            "invariant_check_every": self.invariant_check_every,
            "check_invariants": self.check_invariants,
        }
        # Added conditionally so cells without a crash keep the key (and
        # any cached result) they had before the field existed.
        if self.crash is not None:
            material["crash"] = dataclasses.asdict(self.crash)
        if self.telemetry is not None:
            material["telemetry"] = dataclasses.asdict(self.telemetry)
        return material


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """An ordered collection of cells, executed by a Runner."""

    name: str
    cells: Tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @classmethod
    def grid(
        cls,
        name: str,
        protocols: Sequence[Union[str, ProtocolConfig]],
        workloads: Union[str, Iterable],
        seeds: Sequence[int] = (1,),
        params: Optional[SystemParams] = None,
        **common,
    ) -> "ExperimentSpec":
        """The common sweep: every ``workload x protocol x seed`` cell.

        ``workloads`` accepts a registry name, a ``(name, kwargs)`` pair,
        or a list of either; ``common`` (max_events, faults, ...) is
        applied to every cell.
        """
        if isinstance(workloads, (str, tuple)) and (
            isinstance(workloads, str) or isinstance(workloads[0], str)
        ):
            workloads = [workloads]
        params = params or SystemParams()
        cells = []
        for wl in workloads:
            wl_name, wl_kwargs = (wl, {}) if isinstance(wl, str) else wl
            for proto in protocols:
                for seed in seeds:
                    cells.append(
                        Cell(
                            protocol=proto,
                            workload=wl_name,
                            workload_kwargs=wl_kwargs,
                            seed=seed,
                            params=params,
                            **common,
                        )
                    )
        return cls(name=name, cells=tuple(cells))
