"""Regenerate ``expected.json``, the outputs the benchmark checks against.

    python3 perfbench/record.py

Records the sha256 of the canonical ``CellResult.to_json()`` of every cell
of the three simulation workloads for seeds ``RECORDED_SEEDS``, and the
(states, transitions) counts of every model of the ``verify`` workload.
Rerun it only for a change that is meant to alter simulated results or
model-checker state counts; a change that claims only a speed-up must
leave this file as it is.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

RECORDED_SEEDS = range(1, 11)


def main() -> int:
    from repro.exp.runner import run_cell
    from repro.verification.checker import check

    digests = {}
    for seed in RECORDED_SEEDS:
        for workload in run.SIM_PROTOCOL:
            for cell in run.sim_cells(workload, seed):
                result = run_cell(cell)
                digests[run.cell_key(cell)] = hashlib.sha256(
                    result.to_json().encode()).hexdigest()
                print(f"{run.cell_key(cell)} {digests[run.cell_key(cell)]}",
                      file=sys.stderr)
    models = {}
    for factory, liveness in run.model_specs():
        result = check(factory(), max_states=run.MAX_STATES,
                       check_liveness=liveness)
        models[f"model/{result.model}"] = [result.states, result.transitions]
    doc = {"digests": digests, "models": models}
    run.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
