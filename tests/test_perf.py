"""Unit tests for the performance suite harness (repro.perf).

The full suite runs in CI's perf-smoke job; here we test the harness
logic (deterministic projection, regression comparison) with synthetic
reports plus one tiny real microbenchmark run.
"""

from pathlib import Path

from repro.perf import (
    DETERMINISTIC_FIELDS,
    SCHEMA,
    bench_kernel_chain,
    compare,
    deterministic_stats,
    main,
    render,
)


def _report(quick=True, chain_rate=1000.0, events=100):
    return {
        "schema": SCHEMA,
        "quick": quick,
        "benchmarks": {
            "kernel_chain": {
                "events": events,
                "wall_s": events / chain_rate,
                "events_per_sec": chain_rate,
            },
        },
    }


def test_bench_kernel_chain_counts_every_event():
    result = bench_kernel_chain(n_events=2_000, chains=4, repeats=1)
    assert result["events"] == 2_000
    assert result["events_per_sec"] > 0


def test_deterministic_stats_strip_timing_fields():
    stats = deterministic_stats(_report())
    bench = stats["benchmarks"]["kernel_chain"]
    assert bench == {"events": 100}
    assert "wall_s" not in bench and "events_per_sec" not in bench


def test_deterministic_fields_cover_every_suite_benchmark():
    assert set(DETERMINISTIC_FIELDS) == {
        "kernel_chain", "kernel_cancel", "network_send", "network_send_mesh",
        "e2e_fig6_smoke",
    }


def test_compare_passes_within_tolerance():
    baseline = _report(chain_rate=1000.0)
    current = _report(chain_rate=750.0)  # 25% slower: inside 30%
    assert compare(current, baseline, tolerance=0.30) == []


def test_compare_flags_regression_beyond_tolerance():
    baseline = _report(chain_rate=1000.0)
    current = _report(chain_rate=500.0)  # 50% slower
    problems = compare(current, baseline, tolerance=0.30)
    assert len(problems) == 1
    assert "kernel_chain.events_per_sec" in problems[0]


def test_compare_flags_determinism_drift_at_same_sizes():
    baseline = _report(events=100)
    current = _report(events=101)
    problems = compare(current, baseline, tolerance=0.30)
    assert any("determinism" in p for p in problems)


def test_compare_skips_micro_determinism_across_sizes():
    # A --quick run uses smaller microbenchmark sizes than the committed
    # full-size baseline; event-count equality only applies like-for-like.
    baseline = _report(quick=False, events=1000)
    current = _report(quick=True, events=100)
    assert compare(current, baseline, tolerance=0.30) == []


def test_compare_flags_missing_benchmark():
    baseline = _report()
    current = {"schema": SCHEMA, "quick": True, "benchmarks": {}}
    problems = compare(current, baseline)
    assert problems == ["kernel_chain: missing from current run"]


def test_render_mentions_throughput_and_speedup():
    report = _report()
    report["speedup"] = {"kernel_chain": 1.52}
    text = render(report)
    assert "kernel_chain" in text
    assert "1.52x" in text


def test_gates_reject_a_wrong_schema_baseline_before_running(
        monkeypatch, capsys):
    # Both committed reports are valid JSON; swapping them must not pass
    # a gate silently (the suite itself never runs here).
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    assert main(["--quick", "--check", "BENCH_alloc.json"]) == 2
    err = capsys.readouterr().err
    assert err == ("perf: BENCH_alloc.json: schema is 'repro.bench_alloc/1', "
                   "want 'repro.bench_perf/1'\n")
    assert main(["--alloc-only", "--alloc-check", "BENCH_perf.json"]) == 2
    assert main(["--alloc-only", "--alloc-out", "BENCH_perf.json"]) == 2
    assert "want 'repro.bench_alloc/1'" in capsys.readouterr().err
