"""Headline core-throughput benchmark: batched vs per-op access.

Times identical access streams through two identical reference machines
— one driven op by op through ``System.access``, one through the batched
``System.access_many`` whose inline TLB-hit loop the experiments' access
paths (``Workload.region_access``/``warm_region``, the consolidation
tenants, trace replay) run — across all four paging modes and several
stream shapes, asserting bit-identical ``RunMetrics`` along the way (a
benchmark whose two sides drift apart would be measuring two different
machines). Each cell also records the stream's TLB misses: every miss
leaves the inline loop for the per-op path, which is what the ``mixed``
scenario's lower speedup comes from.

Registered with the ``repro.bench`` harness; regenerate the repo-root
report with::

    PYTHONPATH=src python -m repro bench core_throughput

(running this file directly still works and delegates to the harness).
The tier-1 smoke gate lives in ``tests/core/test_bench_smoke.py``:
it runs :func:`run_core_throughput` in smoke mode and fails if any
mode's best speedup drops below ``SPEEDUP_GATE``.
"""

import math
import os
import random
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.bench import BenchContext, Gate, bench_target  # noqa: E402
from repro.common.config import ALL_MODES, sandy_bridge_config  # noqa: E402
from repro.core.machine import System  # noqa: E402

# The tier-1 gate, enforced in CI smoke mode.
SPEEDUP_GATE = 3.0

# Stream shapes: (name, working-set pages, hot pages, hot fraction).
# "hot" models a tight loop (TLB-MRU residency), "l1" an L1-resident
# working set, "l2" an L2-resident one with regular L1 refills.
SCENARIOS = (
    ("hot", 64, 8, 1.0),
    ("l1", 64, 48, 1.0),
    ("l2", 512, 480, 1.0),
    ("mixed", 1024, 480, 0.95),
)
SMOKE_SCENARIOS = ("hot", "l1")


def _build(mode, pages):
    system = System(sandy_bridge_config(mode))
    proc = system.kernel.create_process()
    base = system.kernel.mmap(proc, size=pages * 4096)
    return system, base


def _stream(base, pages, hot, hot_fraction, ops, seed):
    rng = random.Random(seed)
    vas = []
    append = vas.append
    for _ in range(ops):
        if hot_fraction >= 1.0 or rng.random() < hot_fraction:
            append(base + 4096 * rng.randrange(hot))
        else:
            append(base + 4096 * rng.randrange(pages))
    return vas


def _time_pair(mode, scenario, ops, repeat, seed):
    """Best-of-``repeat`` timings for one (mode, scenario) cell."""
    name, pages, hot, hot_fraction = scenario
    best_loop = best_batch = math.inf
    for attempt in range(repeat):
        looped, base = _build(mode, pages)
        batched, batched_base = _build(mode, pages)
        assert base == batched_base
        vas = _stream(base, pages, hot, hot_fraction, ops, seed + attempt)
        warm = vas[: max(1000, ops // 20)]
        for va in warm:
            looped.access(va)
        batched.access_many(warm)
        start = time.perf_counter()
        access = looped.access
        for va in vas:
            access(va)
        loop_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        batched.access_many(vas)
        batch_elapsed = time.perf_counter() - start
        loop_metrics = looped.collect_metrics().to_dict()
        batch_metrics = batched.collect_metrics().to_dict()
        if loop_metrics != batch_metrics:
            diverged = sorted(k for k in loop_metrics
                              if loop_metrics[k] != batch_metrics[k])
            raise AssertionError(
                "access_many diverged from the per-op loop on %s/%s: %s"
                % (mode, name, diverged))
        best_loop = min(best_loop, loop_elapsed)
        best_batch = min(best_batch, batch_elapsed)
    return {
        "scenario": name,
        "ops": ops,
        "tlb_misses": batch_metrics["tlb_misses"],
        "per_op_ops_per_sec": round(ops / best_loop),
        "batched_ops_per_sec": round(ops / best_batch),
        "speedup": round(best_loop / best_batch, 2),
    }


def run_core_throughput(ops=200_000, repeat=2, seed=11, modes=ALL_MODES,
                        scenarios=None):
    """Run the full grid; returns the JSON-ready result dict."""
    wanted = scenarios
    grid = [s for s in SCENARIOS if wanted is None or s[0] in wanted]
    results = {}
    for mode in modes:
        cells = [_time_pair(mode, scenario, ops, repeat, seed)
                 for scenario in grid]
        best = max(cell["speedup"] for cell in cells)
        results[mode] = {"scenarios": cells, "best_speedup": best}
    speedups = [cell["speedup"]
                for mode in results for cell in results[mode]["scenarios"]]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "ops_per_cell": ops,
        "repeat": repeat,
        "gate_speedup": SPEEDUP_GATE,
        "modes": results,
        "summary": {
            "geomean_speedup": round(geomean, 2),
            "min_best_speedup": min(results[m]["best_speedup"]
                                    for m in results),
            "max_speedup": max(speedups),
        },
    }


@bench_target("core_throughput", output="BENCH_core_throughput.json",
              gates=(Gate("summary.geomean_speedup", "higher", 0.2),
                     Gate("summary.min_best_speedup", "higher", 0.2)))
def bench(ctx):
    """Harness entry point: full grid, or hot+l1 smoke grid in --quick."""
    ops = ctx.ops(200_000, quick=30_000)
    repeat = ctx.repeat if ctx.repeat is not None else 2
    return run_core_throughput(
        ops=ops, repeat=repeat,
        scenarios=SMOKE_SCENARIOS if ctx.quick else None)


def main(argv=None):
    from repro.bench import run_target

    ctx = BenchContext(quick="--smoke" in (argv or sys.argv[1:]))
    target = bench.__bench_target__
    if ctx.quick:
        # Smoke runs must not clobber the committed full report.
        import tempfile

        out_dir = tempfile.mkdtemp(prefix="bench-smoke-")
    else:
        out_dir = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..")
    report, path = run_target(target, ctx, out_dir=out_dir)
    result = report["result"]
    for mode, data in result["modes"].items():
        for cell in data["scenarios"]:
            print("%-7s %-6s per-op %8d ops/s   batched %8d ops/s   %5.2fx"
                  % (mode, cell["scenario"], cell["per_op_ops_per_sec"],
                     cell["batched_ops_per_sec"], cell["speedup"]))
    print("geomean %.2fx, best %.2fx (gate %.1fx)"
          % (result["summary"]["geomean_speedup"],
             result["summary"]["max_speedup"], SPEEDUP_GATE))
    print("report written to %s" % os.path.normpath(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
