"""Host-time spans recorded from outside the simulator.

The simulator's own code carries no timers. This module wraps the public
callables of each layer at class level for the duration of one traced
unit, and restores them afterwards, so the simulated results cannot
depend on whether tracing was on (the benchmark checks the digests).

Each span has a name ``<layer>.<what>`` whose first component is a key
of ``repro.lint.flow.layers.LAYERS``. Boundaries that fire per access
are aggregated in memory as count, total and self time per
(span, parent) pair; coarse boundaries (entry points, machine builds)
are also kept one record each, with start, end and parent.
"""

import importlib
import time
from contextlib import contextmanager

ROOT = "unattributed"

# (module, class, methods, span, kind)
# kind: "agg" aggregates only; "detail" also keeps one record per call;
# "hit", "refs" and "frames" also count a property of the result (a hit,
# the walk's memory references, the frames reclaimed); "gen" makes each
# step of the returned generator a span.
TARGETS = (
    ("repro.runner.sweep", "SweepRunner", ("run",), "runner.run", "detail"),
    ("repro.core.machine", "System", ("__init__",), "core.build", "detail"),
    ("repro.core.machine", "System", ("access",), "core.access", "agg"),
    ("repro.core.machine", "System", ("settle_policies",), "core.settle", "agg"),
    ("repro.core.machine", "System", ("collect_metrics",), "core.collect", "detail"),
    ("repro.hw.mmu", "MMU", ("translate",), "hw.translate", "agg"),
    ("repro.hw.tlbhierarchy", "MultiSizeTLB", ("lookup",), "hw.tlb.lookup", "hit"),
    ("repro.hw.walker", "PageWalker", ("walk",), "hw.walk", "refs"),
    ("repro.hw.pwc", "PageWalkCache", ("lookup",), "hw.pwc.lookup", "hit"),
    ("repro.mem.pagetable", "PageTable",
     ("map", "unmap", "set_flags", "clear_subtree", "destroy"),
     "mem.pt_write", "agg"),
    ("repro.vmm.vmm", "VMM",
     ("handle_host_fault", "handle_shadow_fault", "handle_shadow_protection",
      "context_switch"),
     "vmm.trap", "agg"),
    ("repro.vmm.vmm", "VMM", ("policy_tick",), "vmm.policy", "agg"),
    ("repro.vmm.vmm", "VMM", ("balloon_revoke",), "vmm.balloon_revoke", "agg"),
    ("repro.vmm.vmm", "GuestPTObserver",
     ("node_allocated", "pte_written", "node_freed"), "vmm.gpt_sync", "agg"),
    ("repro.vmm.invariants", "InvariantChecker",
     ("check_all", "after_trap", "after_mode_switch"),
     "vmm.invariants", "agg"),
    ("repro.guest.kernel", "GuestKernel", ("handle_page_fault",),
     "guest.fault", "agg"),
    ("repro.guest.kernel", "GuestKernel",
     ("create_process", "destroy_process", "context_switch", "mmap",
      "munmap", "mprotect", "fork", "dedup_region", "reclaim"),
     "guest.syscall", "agg"),
    ("repro.host.host", "Host", ("__init__",), "host.build", "detail"),
    ("repro.host.host", "Host", ("run",), "host.run", "detail"),
    ("repro.host.scheduler", "VCpuScheduler", ("world_switch",),
     "host.world_switch", "agg"),
    ("repro.host.balloon", "BalloonDriver", ("reclaim",), "host.balloon",
     "frames"),
    ("repro.workloads.suite", "SuiteWorkload", ("execute",),
     "workloads.execute", "detail"),
    ("repro.workloads.consolidation", "PackedHog", ("program",),
     "workloads.program", "gen"),
    ("repro.workloads.consolidation", "ContextSwitchStorm", ("program",),
     "workloads.program", "gen"),
    ("repro.workloads.consolidation", "ReclaimThrasher", ("program",),
     "workloads.program", "gen"),
    ("repro.fuzz.scenario", "ScenarioGenerator", ("generate",),
     "fuzz.generate", "agg"),
    ("repro.fuzz.oracle", "ScenarioRunner", ("apply",), "fuzz.replay", "agg"),
    ("repro.fuzz.oracle", "DifferentialOracle",
     ("_sweep_invariants", "_compare_counters", "_compare_snapshots",
      "_check_trap_relations", "_probe"),
     "fuzz.oracle", "agg"),
)


def layer_of(span_name):
    """The layer a span belongs to: its first dotted component."""
    return span_name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store for one traced unit.

    ``agg`` maps (span, parent span) to ``[calls, total_s, self_s]``;
    ``counts`` holds result counters (``hw.tlb.lookup.hits``, ...);
    ``records`` holds the per-call spans of coarse boundaries as
    ``(id, name, parent_id, start, end)``. Self time is a span's duration
    minus the time its child spans cover, so the self times of all spans
    plus the root's add up to the root's duration.
    """

    def __init__(self):
        self.agg = {}
        self.counts = {}
        self.records = []
        # A frame is [name, child_s, record_id]; record_id is that of the
        # nearest detailed span at or above it (0 = the root).
        self.stack = [[ROOT, 0.0, 0]]
        self.started = time.perf_counter()
        self.wall_s = None

    def begin(self):
        """Start the root span; the stack is reset in place, because
        installed wrappers hold a reference to it."""
        del self.stack[1:]
        self.stack[0][1] = 0.0
        self.started = time.perf_counter()

    def end(self):
        self.wall_s = time.perf_counter() - self.started
        root = self.stack[0]
        self.agg[(ROOT, "")] = [1, self.wall_s, self.wall_s - root[1]]

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _push(self, name, detail):
        parent = self.stack[-1]
        if detail:
            self.records.append(None)
            record_id = len(self.records)
        else:
            record_id = parent[2]
        frame = [name, 0.0, record_id]
        self.stack.append(frame)
        return parent, frame

    def _pop(self, parent, frame, detail, start, end):
        self.stack.pop()
        elapsed = end - start
        parent[1] += elapsed
        entry = self.agg.get((frame[0], parent[0]))
        if entry is None:
            entry = self.agg[(frame[0], parent[0])] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if detail:
            self.records[frame[2] - 1] = (frame[2], frame[0], parent[2],
                                          start - self.started,
                                          end - self.started)

    def wrap(self, name, fn, kind):
        """A wrapper of ``fn`` recording one span per call."""
        perf = time.perf_counter
        if kind == "detail":
            push, pop = self._push, self._pop

            def detailed(*args, **kwargs):
                parent, frame = push(name, True)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop(parent, frame, True, start, perf())
            return detailed

        # The per-access path: the same bookkeeping as _push/_pop, inlined,
        # with this span's aggregate entries cached by parent name.
        stack = self.stack
        agg = self.agg
        entries = {}
        note = self._noter(name, kind) if kind != "agg" else None

        def aggregated(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                entry = entries.get(parent[0])
                if entry is None:
                    entry = agg.setdefault((name, parent[0]), [0, 0.0, 0.0])
                    entries[parent[0]] = entry
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if note is not None:
                note(result)
            return result
        return aggregated

    def _noter(self, name, kind):
        """Counts one property of a span's result, by ``kind``."""
        counts = self.counts
        probes, hits = name + ".probes", name + ".hits"
        completed, refs = name + ".completed", name + ".refs"
        frames = name + ".frames"

        def note_hit(result):
            # A TLB lookup returns (entry, level); a PWC lookup a tuple
            # or None.
            hit = result is not None and result[0] is not None
            counts[probes] = counts.get(probes, 0) + 1
            if hit:
                counts[hits] = counts.get(hits, 0) + 1

        def note_refs(result):
            counts[completed] = counts.get(completed, 0) + 1
            counts[refs] = counts.get(refs, 0) + result.refs

        def note_frames(result):
            counts[frames] = counts.get(frames, 0) + result

        return {"hit": note_hit, "refs": note_refs,
                "frames": note_frames}[kind]

    def wrap_generator_factory(self, name, factory):
        """Wrap ``factory(...) -> generator`` so each step is a span."""
        step = self.wrap(name, next, "agg")

        def wrapper(*args, **kwargs):
            generator = factory(*args, **kwargs)

            def traced():
                while True:
                    try:
                        value = step(generator)
                    except StopIteration:
                        return
                    yield value
            return traced()
        return wrapper

    @contextmanager
    def span(self, name):
        """A detailed span around a block of the benchmark's own code."""
        parent, frame = self._push(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._pop(parent, frame, True, start, time.perf_counter())

    # -- derived views ---------------------------------------------------

    def self_by_span(self):
        totals = {}
        for (name, _parent), (_calls, _total, self_s) in self.agg.items():
            totals[name] = totals.get(name, 0.0) + self_s
        return totals

    def total_by_span(self):
        totals = {}
        for (name, _parent), (_calls, total, _self) in self.agg.items():
            totals[name] = totals.get(name, 0.0) + total
        return totals

    def calls_by_span(self):
        totals = {}
        for (name, _parent), (calls, _total, _self) in self.agg.items():
            totals[name] = totals.get(name, 0) + calls
        return totals

    def self_by_layer(self):
        totals = {}
        for name, self_s in self.self_by_span().items():
            layer = ROOT if name == ROOT else layer_of(name)
            totals[layer] = totals.get(layer, 0.0) + self_s
        return totals

    def calls_under(self, name, parent):
        entry = self.agg.get((name, parent))
        return entry[0] if entry else 0

    def export(self):
        """JSON-safe dump: records, aggregates, and the layer balance."""
        layers = self.self_by_layer()
        return {
            "wall_s": self.wall_s,
            "self_s_by_layer": layers,
            "self_s_sum": sum(layers.values()),
            "spans": [
                dict(zip(("id", "name", "parent", "start_s", "end_s"), record))
                for record in self.records if record is not None],
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (name, parent), (calls, total, self_s)
                in sorted(self.agg.items())],
            "counts": dict(sorted(self.counts.items())),
        }


class Instrumentation:
    """Installs a recorder's wrappers on every target; undoes on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        for module_name, owner_name, attrs, span, kind in TARGETS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            for attr in attrs:
                original = owner.__dict__[attr]
                if kind == "gen":
                    replacement = self.recorder.wrap_generator_factory(
                        span, original)
                else:
                    replacement = self.recorder.wrap(span, original, kind)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False
