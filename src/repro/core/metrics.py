"""Run metrics: the simulator's answer to `perf` + the Table IV model.

``RunMetrics`` carries raw counts plus the derived quantities the paper
reports: execution-time overheads split into page-walk and VMM
components (Figure 5), the degree-of-nesting mix and average memory
references per TLB miss (Table VI).
"""

from repro.hw.walkstats import NESTED_FULL
from repro.vmm import traps as T

# Table VI column order: full shadow, switch after 3/2/1/0 shadow levels,
# full nested. Keys into MMUCounters.walks_by_depth.
TABLE6_COLUMNS = (
    ("Shadow", 0),
    ("L4", 1),
    ("L3", 2),
    ("L2", 3),
    ("L1", 4),
    ("Nested", NESTED_FULL),
)


#: Version of the ``to_dict`` wire format. Bump on any change to its
#: keys or value encodings; ``from_dict`` refuses payloads from other
#: versions so a stale result cache or mixed-version worker pool fails
#: loudly instead of silently misreading counters.
METRICS_SCHEMA_VERSION = 1


class RunMetrics:
    """Everything measured during one simulated run."""

    def __init__(self, label, mode, page_size):
        self.label = label
        self.mode = mode
        self.page_size = page_size
        # Operation stream.
        self.ops = 0
        self.reads = 0
        self.writes = 0
        # Cycles by component.
        self.total_cycles = 0
        self.ideal_cycles = 0
        self.walk_cycles = 0
        self.tlb_l2_cycles = 0
        self.vmm_cycles = 0
        self.guest_fault_cycles = 0
        # Hardware counter snapshot.
        self.tlb_hits_l1 = 0
        self.tlb_hits_l2 = 0
        self.tlb_misses = 0
        self.walk_refs = 0
        self.fault_refs = 0
        self.walks_by_depth = {}
        # VMM counter snapshot.
        self.trap_counts = {}
        self.trap_cycles = {}
        self.guest_faults = 0
        self.cow_faults = 0

    # -- derived quantities (the paper's reporting) --------------------------

    @property
    def vmtraps(self):
        return sum(self.trap_counts.get(k, 0) for k in T.ALL_TRAP_KINDS)

    @property
    def page_walk_overhead(self):
        """Figure 5 bottom bar: page-walk cycles / ideal cycles.

        L2-TLB hit latency is excluded, matching the paper's use of the
        WALK_DURATION performance counters (STLB hits are part of the
        memory-system baseline, not of walk overhead).
        """
        if not self.ideal_cycles:
            return 0.0
        return self.walk_cycles / self.ideal_cycles

    @property
    def vmm_overhead(self):
        """Figure 5 top bar: VMM intervention cycles / ideal cycles."""
        if not self.ideal_cycles:
            return 0.0
        return self.vmm_cycles / self.ideal_cycles

    @property
    def total_overhead(self):
        if not self.ideal_cycles:
            return 0.0
        return (self.total_cycles - self.ideal_cycles) / self.ideal_cycles

    @property
    def avg_refs_per_miss(self):
        """Table VI right column: average memory accesses per TLB miss."""
        if not self.tlb_misses:
            return 0.0
        return self.walk_refs / self.tlb_misses

    @property
    def miss_rate_per_kop(self):
        if not self.ops:
            return 0.0
        return 1000.0 * self.tlb_misses / self.ops

    def mode_mix(self):
        """Fraction of TLB misses served at each degree of nesting.

        Only meaningful for agile-mode runs (Table VI); other modes
        return an empty dict.
        """
        total = sum(self.walks_by_depth.values())
        if not total:
            return {}
        return {
            name: self.walks_by_depth.get(key, 0) / total
            for name, key in TABLE6_COLUMNS
        }

    # -- serialization (result cache / pool workers) --------------------------

    def to_dict(self):
        """Full-fidelity, JSON-safe form: every raw counter, no rounding.

        ``from_dict(to_dict(m))`` reproduces ``m`` exactly (ints and
        floats bit-identical), which is what lets the sweep runner treat
        cached, serial, and pool-worker results interchangeably.
        ``walks_by_depth`` is stored as sorted pairs because its keys mix
        ints with the :data:`NESTED_FULL` sentinel string.
        """
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "label": self.label,
            "mode": self.mode,
            "page_size": str(self.page_size),
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "total_cycles": self.total_cycles,
            "ideal_cycles": self.ideal_cycles,
            "walk_cycles": self.walk_cycles,
            "tlb_l2_cycles": self.tlb_l2_cycles,
            "vmm_cycles": self.vmm_cycles,
            "guest_fault_cycles": self.guest_fault_cycles,
            "tlb_hits_l1": self.tlb_hits_l1,
            "tlb_hits_l2": self.tlb_hits_l2,
            "tlb_misses": self.tlb_misses,
            "walk_refs": self.walk_refs,
            "fault_refs": self.fault_refs,
            "walks_by_depth": sorted(
                ([key, count] for key, count in self.walks_by_depth.items()),
                key=lambda pair: str(pair[0])),
            "trap_counts": dict(self.trap_counts),
            "trap_cycles": dict(self.trap_cycles),
            "guest_faults": self.guest_faults,
            "cow_faults": self.cow_faults,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a :class:`RunMetrics` from its :meth:`to_dict` form.

        Raises ``ValueError`` on an unknown ``schema_version`` — payloads
        written before versioning (no key) are version 1.
        """
        from repro.common.params import PAGE_SIZES

        version = data.get("schema_version", 1)
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                "RunMetrics payload has schema_version %r but this build "
                "reads version %d; clear the result cache (or regenerate "
                "the payload) and retry" % (version, METRICS_SCHEMA_VERSION))

        metrics = cls(data["label"], data["mode"], PAGE_SIZES[data["page_size"]])
        for name in (
                "ops", "reads", "writes", "total_cycles", "ideal_cycles",
                "walk_cycles", "tlb_l2_cycles", "vmm_cycles",
                "guest_fault_cycles", "tlb_hits_l1", "tlb_hits_l2",
                "tlb_misses", "walk_refs", "fault_refs", "guest_faults",
                "cow_faults"):
            setattr(metrics, name, data[name])
        metrics.walks_by_depth = {key: count
                                  for key, count in data["walks_by_depth"]}
        metrics.trap_counts = dict(data["trap_counts"])
        metrics.trap_cycles = dict(data["trap_cycles"])
        return metrics

    def check(self):
        """Raise ``ValueError`` unless the accounting identities hold:
        cycle conservation (``total = ideal + walk + tlb_l2 + vmm +
        guest_fault``), ``sum(trap_cycles) == vmm_cycles`` and
        ``ops == reads + writes``.

        ``from_dict`` checks only the wire format; this is what a
        consumer of stored results calls to reject an entry that is
        well formed but wrong.
        """
        parts = (self.ideal_cycles + self.walk_cycles + self.tlb_l2_cycles
                 + self.vmm_cycles + self.guest_fault_cycles)
        if self.total_cycles != parts:
            raise ValueError("total_cycles %d != ideal + walk + tlb_l2 + vmm "
                             "+ guest_fault = %d" % (self.total_cycles, parts))
        traps = sum(self.trap_cycles.values())
        if traps != self.vmm_cycles:
            raise ValueError("sum(trap_cycles) %d != vmm_cycles %d"
                             % (traps, self.vmm_cycles))
        if self.ops != self.reads + self.writes:
            raise ValueError("ops %d != reads %d + writes %d"
                             % (self.ops, self.reads, self.writes))

    def summary(self):
        """A compact dict for reports and benchmarks."""
        return {
            "label": self.label,
            "mode": self.mode,
            "page_size": str(self.page_size),
            "ops": self.ops,
            "tlb_misses": self.tlb_misses,
            "avg_refs_per_miss": round(self.avg_refs_per_miss, 2),
            "vmtraps": self.vmtraps,
            "page_walk_overhead": round(self.page_walk_overhead, 4),
            "vmm_overhead": round(self.vmm_overhead, 4),
            "total_overhead": round(self.total_overhead, 4),
        }

    def __repr__(self):
        return "RunMetrics(%r)" % (self.summary(),)
