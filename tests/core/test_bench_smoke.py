"""Benchmark regression guard: ``System.access_many`` must stay fast.

Runs the headline throughput benchmark in smoke configuration (small op
count, hot/L1 scenarios only) and fails if any mode's best speedup of
the batched ``access_many`` over the per-op ``access`` loop drops below
the ``SPEEDUP_GATE`` (3x).

The benchmark itself asserts bit-identical ``RunMetrics`` between the
two timed machines, so this smoke run doubles as one more equivalence
pass.
"""

import importlib.util
import os

import pytest

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..",
    "benchmarks", "bench_core_throughput.py")


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_core_throughput", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench
def test_batch_speedup_stays_above_gate():
    bench = _load_bench()
    report = bench.run_core_throughput(
        ops=30_000, repeat=1, scenarios=bench.SMOKE_SCENARIOS)
    assert report["gate_speedup"] == bench.SPEEDUP_GATE == 3.0
    slow = {mode: data["best_speedup"]
            for mode, data in report["modes"].items()
            if data["best_speedup"] < bench.SPEEDUP_GATE}
    assert not slow, (
        "access_many slipped below the %.1fx gate: %s (full report: %s)"
        % (bench.SPEEDUP_GATE, slow, report["summary"]))


@pytest.mark.bench
def test_committed_benchmark_report_is_fresh_and_passing():
    """The committed BENCH_core_throughput.json must itself clear the
    gate — a stale or failing report in the tree is a lie."""
    import json

    bench = _load_bench()
    path = os.path.join(os.path.dirname(BENCH_PATH), "..",
                        "BENCH_core_throughput.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    # Schema-2 harness envelope: provenance + gates around the result.
    assert report["schema"] == 2
    assert report["benchmark"] == "core_throughput"
    assert report["quick"] is False
    for key in ("host", "python", "git_sha", "generated_at"):
        assert key in report["provenance"]
    gated = {gate["metric"] for gate in report["gates"]}
    assert "summary.geomean_speedup" in gated

    result = report["result"]
    assert set(result["modes"]) == {"native", "nested", "shadow", "agile"}
    for mode, data in result["modes"].items():
        assert data["best_speedup"] >= result["gate_speedup"], mode
        for cell in data["scenarios"]:
            # Every cell records the misses that left the inline loop.
            assert "tlb_misses" in cell, (mode, cell["scenario"])
    assert result["summary"]["min_best_speedup"] >= result["gate_speedup"]
    assert result["gate_speedup"] == bench.SPEEDUP_GATE
