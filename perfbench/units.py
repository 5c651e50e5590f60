"""The benchmark's workloads, each one repeatable unit of work.

A unit builds its inputs from the seed, drives one public entry point of
the simulator, and returns what the entry point returned. ``run`` is the
timed part; ``outcome`` (untimed) turns the returned values into the
records that are digested and checked.

Each unit is made of many pieces (cells, runs, cases, hosts), so that
its host time and simulated results vary little from one seed to the
next. Every unit runs in this process, on one thread, with no result
cache. Constructor arguments size a unit; the benchmark uses the
defaults, and the self-test builds smaller units.
"""

import dataclasses
import math

from repro.analysis.experiments import (
    consolidation_claims,
    figure5_cells,
    headline_claims,
)
from repro.common.config import HostConfig, sandy_bridge_config
from repro.common.params import FOUR_KB
from repro.core.hostsys import run_consolidated
from repro.core.simulator import run_workload
from repro.fuzz.campaign import execute_fuzz_case, specs_for
from repro.runner import SweepRunner
from repro.vmm.traps import BALLOON_REVOKE
from repro.workloads.consolidation import (
    ContextSwitchStorm,
    PackedHog,
    ReclaimThrasher,
)
from repro.workloads.suite import AstarLike, CannealLike, McfLike


@dataclasses.dataclass
class Outcome:
    """What one unit produced, in checkable form."""

    records: list          # JSON-safe results, digested in order
    metrics: list          # (RunMetrics, cycle adjustment) to check
    attempted: int         # cells, cases or consolidated runs attempted
    failures: list         # one line per failed cell, case or run
    agile_vs_best: float   # > 1: agile beats the best; 0 if a piece failed
    counted_ops: int       # simulated accesses the returned metrics count


def _speedup(best, agile):
    """Execution-time ratio of the best constituent over agile."""
    return (1.0 + best) / (1.0 + agile)


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _overhead(metrics):
    return metrics.page_walk_overhead + metrics.vmm_overhead


class Fig5Cold:
    """The Figure 5 grid (8 workloads x 4 modes, 4 KB), cold and serial.

    Each cell's warm phase touches its whole footprint with the TLB
    cold, so the measured phase is kept short.
    """

    name = "fig5_cold"

    def __init__(self, ops=10_000, workload_names=None):
        self.ops = ops
        self.workload_names = workload_names

    def run(self, seed, span, probe):
        cells = [dataclasses.replace(cell, seed=seed) for cell in
                 figure5_cells(ops=self.ops, page_sizes=(FOUR_KB,),
                               workload_names=self.workload_names)]
        return cells, SweepRunner(workers=1).run(cells)

    def outcome(self, raw):
        cells, sweep = raw
        records, metrics, failures = [], [], []
        grid = {}
        for cell in cells:
            result = sweep[cell]
            if not result.succeeded:
                failures.append("%s: %s" % (cell.describe(),
                                            (result.error or "").strip()))
                continue
            records.append({"cell": cell.describe(),
                            "metrics": result.metrics.to_dict()})
            metrics.append((result.metrics, 0))
            grid.setdefault(cell.workload, {})[
                (cell.page_size, cell.mode)] = result.metrics
        ratio = (headline_claims(grid)[1]["geomean_speedup_vs_best"]
                 if not failures else 0.0)
        return Outcome(records, metrics, len(cells), failures, ratio,
                       sum(m.ops for m, _ in metrics))


class SteadyHits:
    """canneal/astar/mcf under nested and agile, long measured phase.

    The measured phase is long enough that the TLB-hit path, not the
    warm phase, takes most of the host time.
    """

    name = "steady_hits"
    modes = ("nested", "agile")

    def __init__(self, ops=400_000,
                 workloads=(CannealLike, AstarLike, McfLike)):
        self.ops = ops
        self.workloads = workloads

    def run(self, seed, span, probe):
        results = []
        for cls in self.workloads:
            for mode in self.modes:
                with span("core.run_workload"):
                    results.append(run_workload(cls, seed=seed, ops=self.ops,
                                                mode=mode))
        return results

    def outcome(self, raw):
        by_label = {}
        for m in raw:
            by_label.setdefault(m.label, {})[m.mode] = m
        # Only nested runs beside agile here, so it is the best constituent.
        ratio = _geomean([_speedup(_overhead(modes["nested"]),
                                   _overhead(modes["agile"]))
                          for modes in by_label.values()])
        return Outcome([m.to_dict() for m in raw], [(m, 0) for m in raw],
                       len(raw), [], ratio, sum(m.ops for m in raw))


def _settle_interval(system):
    """Cycles one ``settle_policies`` interval idles the machine's clock
    (0 without a VMM: the call returns at once)."""
    if system.vmm is None:
        return 0
    policy = system.config.policy
    return max(policy.revert_interval, policy.write_interval)


class FuzzPtWrites:
    """A block of default-profile lockstep fuzz cases, paranoid on."""

    name = "fuzz_pt_writes"

    def __init__(self, cases=64, ops=300):
        self.cases = cases
        self.ops = ops

    def run(self, seed, span, probe):
        first = seed * self.cases
        cases = []
        for spec in specs_for(range(first, first + self.cases), self.ops):
            with span("fuzz.case"):
                result = execute_fuzz_case(spec)
            # The oracle builds its machines internally and never starts
            # measuring on them; collect their metrics to check their
            # accounting, and let the machines go.
            runs = [(system.collect_metrics(label=spec.describe()),
                     _settle_interval(system))
                    for system in probe.release_unmeasured()]
            cases.append((spec, result, runs))
        return cases

    def outcome(self, raw):
        records, metrics, failures, ratios = [], [], [], []
        for spec, result, runs in raw:
            records.append(result.to_dict())
            if not result.ok:
                failures.append("%s: %s" % (spec.describe(), result.verdict))
            settles = sum(max(1, op["intervals"])
                          for op in spec.build_scenario().ops
                          if op["op"] == "settle")
            by_mode = {}
            for run, interval in runs:
                records.append(run.to_dict())
                # settle_policies idles the clock into a declared warm-up
                # sink that no counter records.
                metrics.append((run, settles * interval))
                by_mode[run.mode] = run
            if sorted(by_mode) != sorted(spec.modes):
                failures.append("%s: machines for %s, modes %s"
                                % (spec.describe(), sorted(by_mode),
                                   sorted(spec.modes)))
                continue
            ratios.append(_speedup(min(_overhead(by_mode["nested"]),
                                       _overhead(by_mode["shadow"])),
                                   _overhead(by_mode["agile"])))
        ratio = _geomean(ratios) if ratios else 0.0
        return Outcome(records, metrics, len(raw), failures, ratio,
                       sum(run.ops for run, _ in metrics))


class Consolidated4to1:
    """Mixed tenants, 4 per overcommitted host, per virtualized mode.

    Each host has 4 tenants (hog, storm, thrasher, hog) on 1536 host
    frames with 2048-frame reservations, so the commit ledger
    overcommits and the balloon driver reclaims. The unit runs several
    hosts with distinct tenant seeds.
    """

    name = "consolidated_4to1"
    modes = ("nested", "shadow", "agile")
    vms = 4
    host_frames = 1536
    vm_frames = 2048

    def __init__(self, hosts=6, ops=4_000):
        self.hosts = hosts
        self.ops = ops

    def tenants(self, seed):
        """hog, storm, thrasher, hog: the consolidation family, seeded."""
        return [
            PackedHog(ops=self.ops, seed=seed, npages=1024, hot_pages=96),
            ContextSwitchStorm(ops=self.ops, seed=seed + 1),
            ReclaimThrasher(ops=self.ops, seed=seed + 2),
            PackedHog(ops=self.ops, seed=seed + 3, npages=1024,
                      hot_pages=96),
        ]

    def run(self, seed, span, probe):
        host_config = HostConfig(vms=self.vms, host_frames=self.host_frames,
                                 vm_frames=self.vm_frames)
        results = []
        for host in range(self.hosts):
            tenant_seed = (seed * self.hosts + host) * self.vms
            for mode in self.modes:
                with span("core.run_consolidated"):
                    per_vm, report = run_consolidated(
                        self.tenants(tenant_seed), host_config=host_config,
                        machine_config=sandy_bridge_config(mode=mode))
                results.append((host, mode, per_vm, report))
        return results

    def outcome(self, raw):
        records, metrics, failures, ratios = [], [], [], []
        curves = {}
        for host, mode, per_vm, report in raw:
            records.append({"host": host, "mode": mode,
                            "per_vm": [m.to_dict() for m in per_vm],
                            "report": report})
            # A balloon revocation is charged to the victim's VMM while
            # the victim is descheduled, so it is off the victim's vCPU
            # time (total_cycles) but inside its vmm_cycles.
            metrics.extend((m, -m.trap_cycles.get(BALLOON_REVOKE, 0))
                           for m in per_vm)
            if report["balloon_frames"] <= 0:
                failures.append("host %d/%s: RAM overcommitted but the "
                                "balloon reclaimed nothing" % (host, mode))
            overheads = [_overhead(m) for m in per_vm]
            curves.setdefault(host, {})[(mode, self.vms)] = {
                "per_vm_overhead": sum(overheads) / len(overheads)}
        for curve in curves.values():
            claims = consolidation_claims(curve, ratio=self.vms)
            ratios.append(_speedup(claims["best_constituent_overhead"],
                                   claims["agile_per_vm_overhead"]))
        return Outcome(records, metrics, len(raw), failures,
                       _geomean(ratios),
                       sum(m.ops for _, _, per_vm, _ in raw for m in per_vm))


class Composite:
    """Several units run back to back as one unit.

    The parts keep their own inputs, records and checks; the composite
    concatenates them. ``agile_vs_best`` is the geomean of the parts'
    ratios, and 0 if any part failed.
    """

    def __init__(self, name, *parts):
        self.name = name
        self.parts = parts

    def run(self, seed, span, probe):
        return [part.run(seed, span, probe) for part in self.parts]

    def outcome(self, raw):
        outcomes = [part.outcome(part_raw)
                    for part, part_raw in zip(self.parts, raw)]
        ratios = [o.agile_vs_best for o in outcomes]
        return Outcome(
            [{"part": part.name, "records": o.records}
             for part, o in zip(self.parts, outcomes)],
            [pair for o in outcomes for pair in o.metrics],
            sum(o.attempted for o in outcomes),
            [failure for o in outcomes for failure in o.failures],
            _geomean(ratios) if all(ratios) else 0.0,
            sum(o.counted_ops for o in outcomes))


#: The three suite workloads of Figure 5 with the smallest footprints.
FIG5_WORKLOADS = ("astar", "gcc", "dedup")

#: Every workload by name, in the order BENCHMARK.json lists them. Each
#: pairs two of the units above, sized so that a run of ``run_seconds``
#: repeats its unit four to seven times (8 to 13 s a unit on a 2-vCPU
#: machine).
UNITS = {unit.name: unit for unit in (
    Composite("fig5_steady",
              Fig5Cold(ops=2_000, workload_names=FIG5_WORKLOADS),
              SteadyHits(ops=150_000, workloads=(CannealLike, AstarLike))),
    Composite("fuzz_consolidated",
              FuzzPtWrites(cases=16),
              Consolidated4to1(hosts=2)),
)}
