"""Self-test of the benchmark. Run from the repository root with::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.bench import END_TO_END, PER_LAYER, Bench, report  # noqa: E402
from perfbench.checks import load_digests  # noqa: E402
from perfbench.spans import TARGETS, layer_of  # noqa: E402
from perfbench.units import (  # noqa: E402
    UNITS,
    Composite,
    Consolidated4to1,
    Fig5Cold,
    FuzzPtWrites,
    SteadyHits,
)
from repro.lint.flow.layers import LAYERS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: Measures the benchmark's own tracer, not a simulator layer.
TRACER_METRIC = "trace.overhead_frac"

#: Small units of every workload, for the checks that run them.
SMALL_UNITS = (
    Composite("fig5_steady", Fig5Cold(ops=500, workload_names=("astar",)),
              SteadyHits(ops=1_000)),
    Composite("fuzz_consolidated", FuzzPtWrites(cases=2, ops=60),
              Consolidated4to1(hosts=1, ops=600)),
)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _unit in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(UNITS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER)


def test_per_layer_prefixes_are_architecture_layers():
    for name, _unit in PER_LAYER:
        if name != TRACER_METRIC:
            assert layer_of(name) in LAYERS, name
    for _module, _owner, _attrs, span, _kind in TARGETS:
        assert layer_of(span) in LAYERS, span


def test_committed_digests_cover_the_held_out_seed():
    committed = load_digests()
    assert sorted(committed) == sorted(run.WORKLOADS)
    for per_seed in committed.values():
        assert str(run.HELD_OUT_SEED) in per_seed
        for seed, value in per_seed.items():
            assert int(seed) >= 0
            assert re.fullmatch(r"[0-9a-f]{64}", value)


def test_workloads_are_composites_of_the_four_units():
    parts = [part.name for unit in UNITS.values() for part in unit.parts]
    assert parts == ["fig5_cold", "steady_hits", "fuzz_pt_writes",
                     "consolidated_4to1"]
    for small in SMALL_UNITS:
        assert [p.name for p in small.parts] == [
            p.name for p in UNITS[small.name].parts]


def test_tracing_does_not_perturb_the_simulation():
    for unit in SMALL_UNITS:
        bench = Bench(unit, seed=3)
        plain = bench.run_unit(traced=False)
        traced = bench.run_unit(traced=True)
        assert bench.failures == [], (unit.name, bench.failures)
        assert plain["digest"] == traced["digest"], unit.name
        recorder = traced["recorder"]
        balance = recorder.export()
        # Layer self times plus the unattributed remainder add up to the
        # traced wall time.
        assert abs(balance["self_s_sum"] - balance["wall_s"]) <= (
            1e-6 * balance["wall_s"])
        assert balance["self_s_by_layer"]["unattributed"] >= 0.0


def test_every_metric_prints_with_its_unit():
    bench = Bench(Consolidated4to1(hosts=1, ops=600), seed=2)
    bench.measure(seconds=0, trace=True)
    for table, metrics in ((END_TO_END, bench.end_to_end([0.1], [0.01])),
                           (PER_LAYER, bench.per_layer())):
        lines = report(bench, table, metrics, "status")
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        for name, unit in table:
            assert result["metrics"][name]["unit"] == unit
            assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                       for line in lines[:-1]), name
    layers = bench.per_layer()
    assert layers["host.balloon.frames"] > 0
    assert layers["host.world_switch.calls"] > 0
    assert 0.0 < layers["hw.tlb.hit_ratio"] <= 1.0


def test_exits_nonzero_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
