"""Steadiness mode: run one workload N times, each in a fresh process.

    python3 perfbench/steady.py --workload fig6-token --runs 10

Run ``i`` (counting from 1) uses seed ``i``, one of the seeds
``expected.json`` records, and measures for ``run_seconds`` from
``BENCHMARK.json`` with tracing off.  For every end-to-end metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread -- the distance
between the quartiles as a share of the median -- and the metric's bound,
with whether the spread is within a third of it, the margin the bounds
were set with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values = {}
    units = {}
    failed = attempted = 0
    for seed in range(1, args.runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(config["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"run with seed {seed} exited with {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s, "
              f"correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    print(f"{args.workload}: {args.runs} runs, {failed}/{attempted} "
          f"operations failed")
    print(f"{'metric':34s} {'unit':>9s} {'median':>13s} {'q1':>13s} "
          f"{'q3':>13s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{name:34s} {units[name]:>9s} {med:13.6g} {q1:13.6g} "
              f"{q3:13.6g} {spread:8.4f} {bounds[name]:6.3f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
