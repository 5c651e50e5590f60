"""One benchmark run: repeated units, their checks, and the report.

Imported by ``run.py`` once the simulator sources are on the path.

The end-to-end host times are CPU seconds of this process. The simulator
runs on one thread and does no I/O while a unit runs, so its CPU time is
its wall time minus the time the host ran something else: another
process, or another virtual machine on a shared host (steal time).
"""

import json
import os
import resource
import statistics
import time
from contextlib import nullcontext

from perfbench.checks import accounting_errors, digest
from perfbench.probe import MachineProbe, SetupReached, stop_at_first_access
from perfbench.spans import Instrumentation, SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: (name, unit) of every end-to-end metric, reported with --trace 0.
END_TO_END = (
    ("cpu_s", "s"),
    ("sim_ops_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("warm_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_op", "cycles/op"),
    ("agile_vs_best", "ratio"),
)

#: (name, unit) of every per-layer metric, reported with --trace 1.
PER_LAYER = (
    ("core.access.calls", "count"),
    ("core.access.self_s", "s"),
    ("core.retry_ratio", "ratio"),
    ("hw.translate.self_s", "s"),
    ("hw.tlb.lookup_s", "s"),
    ("hw.tlb.hit_ratio", "ratio"),
    ("hw.walk.calls", "count"),
    ("hw.walk.self_s", "s"),
    ("hw.walk.refs_per_walk", "refs/walk"),
    ("hw.pwc.hit_ratio", "ratio"),
    ("mem.pt_write.calls", "count"),
    ("mem.pt_write.self_s", "s"),
    ("vmm.trap.calls", "count"),
    ("vmm.trap.self_s", "s"),
    ("vmm.policy.self_s", "s"),
    ("vmm.invariants.self_s", "s"),
    ("guest.fault.calls", "count"),
    ("guest.fault.self_s", "s"),
    ("guest.syscall.self_s", "s"),
    ("host.world_switch.calls", "count"),
    ("host.world_switch.self_s", "s"),
    ("host.balloon.frames", "frames"),
    ("host.balloon.self_s", "s"),
    ("workloads.self_s", "s"),
    ("fuzz.oracle.self_s", "s"),
    ("runner.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)



def _no_span(name):
    return nullcontext()


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder):
    """The per-layer metrics of one traced unit."""
    self_s = recorder.self_by_span()
    calls = recorder.calls_by_span()
    layers = recorder.self_by_layer()
    counts = recorder.counts
    return {
        "core.access.calls": calls.get("core.access", 0),
        "core.access.self_s": self_s.get("core.access", 0.0),
        "core.retry_ratio": _ratio(
            recorder.calls_under("hw.translate", "core.access"),
            calls.get("core.access", 0)),
        "hw.translate.self_s": self_s.get("hw.translate", 0.0),
        "hw.tlb.lookup_s": recorder.total_by_span().get("hw.tlb.lookup", 0.0),
        "hw.tlb.hit_ratio": _ratio(counts.get("hw.tlb.lookup.hits", 0),
                                   counts.get("hw.tlb.lookup.probes", 0)),
        "hw.walk.calls": calls.get("hw.walk", 0),
        "hw.walk.self_s": self_s.get("hw.walk", 0.0),
        "hw.walk.refs_per_walk": _ratio(counts.get("hw.walk.refs", 0),
                                        counts.get("hw.walk.completed", 0)),
        "hw.pwc.hit_ratio": _ratio(counts.get("hw.pwc.lookup.hits", 0),
                                   counts.get("hw.pwc.lookup.probes", 0)),
        "mem.pt_write.calls": calls.get("mem.pt_write", 0),
        "mem.pt_write.self_s": self_s.get("mem.pt_write", 0.0),
        "vmm.trap.calls": calls.get("vmm.trap", 0),
        "vmm.trap.self_s": self_s.get("vmm.trap", 0.0),
        "vmm.policy.self_s": self_s.get("vmm.policy", 0.0),
        "vmm.invariants.self_s": self_s.get("vmm.invariants", 0.0),
        "guest.fault.calls": calls.get("guest.fault", 0),
        "guest.fault.self_s": self_s.get("guest.fault", 0.0),
        "guest.syscall.self_s": self_s.get("guest.syscall", 0.0),
        "host.world_switch.calls": calls.get("host.world_switch", 0),
        "host.world_switch.self_s": self_s.get("host.world_switch", 0.0),
        "host.balloon.frames": counts.get("host.balloon.frames", 0),
        "host.balloon.self_s": self_s.get("host.balloon", 0.0),
        "workloads.self_s": layers.get("workloads", 0.0),
        "fuzz.oracle.self_s": self_s.get("fuzz.oracle", 0.0),
        "runner.self_s": layers.get("runner", 0.0),
    }


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, unit, seed):
        self.unit = unit
        self.seed = seed
        self.runs = []        # one dict per unit run, traced or not
        self.failures = []
        self.attempted = 0

    def setup_probe(self):
        """CPU seconds from the entry point's call to its first access."""
        started = time.process_time()
        try:
            with MachineProbe() as probe, stop_at_first_access():
                self.unit.run(self.seed, _no_span, probe)
        except SetupReached:
            return time.process_time() - started
        raise RuntimeError("%s made no simulated access" % self.unit.name)

    def run_unit(self, traced):
        recorder = SpanRecorder() if traced else None
        with MachineProbe() as probe:
            cpu_started = time.process_time()
            if traced:
                with Instrumentation(recorder):
                    recorder.begin()
                    raw = self.unit.run(self.seed, recorder.span, probe)
                    recorder.end()
                wall = recorder.wall_s
            else:
                started = time.perf_counter()
                raw = self.unit.run(self.seed, _no_span, probe)
                wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            probe.release_unmeasured()
        outcome = self.unit.outcome(raw)
        failures = outcome.failures + accounting_errors(outcome.metrics)
        self.attempted += outcome.attempted
        self.failures.extend(failures)
        record = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "warm_cpu_s": probe.warm_s(),
            "sim_ops": probe.warm_ops + outcome.counted_ops,
            "sim_cycles": sum(m.total_cycles for m, _ in outcome.metrics),
            "counted_ops": outcome.counted_ops,
            "agile_vs_best": outcome.agile_vs_best,
            "digest": digest(outcome.records),
            "recorder": recorder,
        }
        self.runs.append(record)
        return record

    def measure(self, seconds, trace):
        """Repeat units (alternating untraced/traced with ``trace``)
        while a whole round still fits in ``seconds`` of wall time."""
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            self.run_unit(traced=False)
            if trace:
                self.run_unit(traced=True)
            now = time.perf_counter()
            if now - started + (now - round_start) > seconds:
                return

    def check_digests(self, committed):
        """Every unit must give the same results, and the committed
        digest of this workload and seed when there is one. Returns a
        one-line status."""
        digests = sorted({record["digest"] for record in self.runs})
        if len(digests) != 1:
            self.failures.append(
                "results differ between repeated units (traced and "
                "untraced included): %s" % digests)
        expected = committed.get(self.unit.name, {}).get(str(self.seed))
        if expected is None:
            return "no committed digest for this seed"
        if digests != [expected]:
            self.failures.append("digest %s != committed %s"
                                 % (digests, expected))
            return "DIFFERS from the committed digest"
        return "matches the committed digest"

    def end_to_end(self, imports, setups):
        """The end-to-end metrics of the untraced units.

        ``setup_s`` is the median import time of a fresh interpreter
        plus the median time from the entry point's call to its first
        simulated access; the S-metrics come from the first unit (every
        unit gives the same results).
        """
        plain = [r for r in self.runs if not r["traced"]]
        first = plain[0]
        return {
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "sim_ops_per_cpu_s": statistics.median(
                r["sim_ops"] / r["cpu_s"] for r in plain),
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "warm_cpu_s": statistics.median(r["warm_cpu_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_cycles_per_op": _ratio(first["sim_cycles"],
                                        first["counted_ops"]),
            "agile_vs_best": first["agile_vs_best"],
        }

    def per_layer(self):
        plain = [r for r in self.runs if not r["traced"]]
        traced = [r for r in self.runs if r["traced"]]
        per_unit = [layer_metrics(r["recorder"]) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_unit)
                   for name in per_unit[0]}
        untraced_cpu = statistics.median(r["cpu_s"] for r in plain)
        traced_cpu = statistics.median(r["cpu_s"] for r in traced)
        metrics["trace.overhead_frac"] = (
            (traced_cpu - untraced_cpu) / untraced_cpu)
        return metrics

    def export_trace(self):
        """Write the first traced unit's spans; check their balance."""
        recorder = next(r["recorder"] for r in self.runs if r["traced"])
        payload = recorder.export()
        payload.update(workload=self.unit.name, seed=self.seed)
        gap = payload["self_s_sum"] - payload["wall_s"]
        if abs(gap) > 1e-6 * payload["wall_s"]:
            self.failures.append("layer self times sum to %.9f s, traced "
                                 "wall is %.9f s" % (payload["self_s_sum"],
                                                     payload["wall_s"]))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                            % (self.unit.name, self.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        return path, payload


def trace_lines(path, payload):
    """Where the spans went, and how host time splits across layers."""
    lines = ["trace: %s" % os.path.relpath(path, ROOT)]
    for layer, seconds in sorted(payload["self_s_by_layer"].items()):
        lines.append("  self %-12s %10.4f s" % (layer, seconds))
    lines.append("  sum               %10.4f s (traced wall %.4f s)"
                 % (payload["self_s_sum"], payload["wall_s"]))
    return lines


def report(bench, table, metrics, status):
    """Every metric of ``table`` by name with its unit; the last line is
    the JSON result."""
    failed = min(len(bench.failures), bench.attempted)
    lines = ["FAILED: %s" % failure for failure in bench.failures]
    lines.append("workload %s seed %d: %d units, digest %s (%s)"
                 % (bench.unit.name, bench.seed, len(bench.runs),
                    bench.runs[0]["digest"], status))
    lines.append("units, cpu/wall s: %s" % " ".join(
        "%.3f/%.3f%s" % (r["cpu_s"], r["wall_s"],
                         "(traced)" if r["traced"] else "")
        for r in bench.runs))
    lines.append("failed_frac %.6f (%d of %d)"
                 % (_ratio(failed, bench.attempted), failed, bench.attempted))
    lines.extend("%-26s %16.6f %s" % (name, metrics[name], unit)
                 for name, unit in table)
    lines.append(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table},
    }))
    return lines
