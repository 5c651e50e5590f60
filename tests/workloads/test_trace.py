"""Tests for trace recording and replay."""

import pytest

from repro.common.config import sandy_bridge_config
from repro.core.machine import System
from repro.core.simulator import MachineAPI
from repro.workloads.consolidation import (
    ContextSwitchStorm,
    PackedHog,
    ReclaimThrasher,
)
from repro.workloads.suite import make_suite
from repro.workloads.trace import TraceRecorder, record, replay


def fresh_api(mode="native"):
    return MachineAPI(System(sandy_bridge_config(mode=mode)))


class TestRecorder:
    def test_records_accesses(self):
        api = fresh_api()
        recorder = TraceRecorder(api)
        recorder.spawn()
        base = recorder.mmap(4 << 12)
        recorder.write(base)
        recorder.read(base)
        kinds = [r[0] for r in recorder.records]
        assert kinds == ["P", "M", "A", "A"]

    def test_records_mmap_result(self):
        api = fresh_api()
        recorder = TraceRecorder(api)
        recorder.spawn()
        va = recorder.mmap(4 << 12)
        record_entry = recorder.records[-1]
        assert record_entry[0] == "M"
        assert record_entry[-1] == va


class TestReplay:
    def test_replay_reproduces_counts(self):
        workload = make_suite(ops=3_000, names={"gcc"})[0]
        source = System(sandy_bridge_config(mode="native"))
        records = record(workload, MachineAPI(source))

        target = System(sandy_bridge_config(mode="native"))
        replay(records, MachineAPI(target))
        assert target.ops == source.ops
        assert target.mmu.counters.tlb_misses == source.mmu.counters.tlb_misses

    def test_replay_across_modes(self):
        """The same trace runs under any paging mode (the paper's
        cross-mode comparison guarantee)."""
        workload = make_suite(ops=2_000, names={"dedup"})[0]
        source = System(sandy_bridge_config(mode="native"))
        records = record(workload, MachineAPI(source))
        for mode in ("nested", "shadow", "agile"):
            target = System(sandy_bridge_config(mode=mode))
            replay(records, MachineAPI(target))
            assert target.ops == source.ops

    @pytest.mark.parametrize("workload", [
        PackedHog(ops=800, seed=3, npages=256),
        ContextSwitchStorm(ops=800, seed=4),
        ReclaimThrasher(ops=800, seed=5, npages=300),
    ], ids=lambda workload: workload.name)
    def test_replay_reproduces_consolidation_tenants(self, workload):
        """Solo runs of the steppable tenants replay to identical
        metrics, switch-heavy and write-only streams included."""
        source = System(sandy_bridge_config(mode="agile"))
        records = record(workload, MachineAPI(source))
        target = System(sandy_bridge_config(mode="agile"))
        replay(records, MachineAPI(target))
        assert (target.collect_metrics().to_dict()
                == source.collect_metrics().to_dict())

    def test_replay_batches_each_run_of_accesses(self):
        """Consecutive ACCESS records go out as one access_many; any
        other record ends the run."""
        source = TraceRecorder(fresh_api())
        source.spawn()
        base = source.mmap(4 << 12)
        source.write(base)
        source.read(base + 4096)
        source.start_measurement()
        source.access(base + 8192, True)
        calls = []

        class CountingAPI(MachineAPI):
            def access(self, va, is_write):
                raise AssertionError("replay issued a per-op access")

            def access_many(self, vas, writes=None):
                calls.append((list(vas), list(writes)))
                super().access_many(vas, writes)

        replay(source.records, CountingAPI(System(sandy_bridge_config(
            mode="native"))))
        assert calls == [([base, base + 4096], [True, False]),
                         ([base + 8192], [True])]

    def test_replay_detects_divergence(self):
        api = fresh_api()
        recorder = TraceRecorder(api)
        recorder.spawn()
        recorder.mmap(4 << 12)
        records = list(recorder.records)
        # Corrupt the recorded mmap address.
        kind, size, writable, region_kind, populate, va = records[1]
        records[1] = (kind, size, writable, region_kind, populate, va + 0x1000)
        with pytest.raises(Exception):
            replay(records, fresh_api())


def _per_op_access_many(self, vas, writes=None):
    """Record-and-forward one op at a time (the per-op specification)."""
    for va, is_write in zip(vas, writes if writes is not None
                            else [False] * len(vas)):
        self.access(va, is_write)


class TestBatchedRecording:
    def test_access_many_records_one_entry_per_op(self):
        recorder = TraceRecorder(fresh_api())
        recorder.spawn()
        base = recorder.mmap(4 << 12)
        recorder.access_many([base, base + 4096], [True, False])
        recorder.access_many([base + 8192])
        assert recorder.records[2:] == [
            ("A", base, True), ("A", base + 4096, False),
            ("A", base + 8192, False)]

    @pytest.mark.parametrize("workload", make_suite(ops=1_500),
                             ids=lambda workload: workload.name)
    def test_suite_traces_match_per_op_recording(self, workload,
                                                 monkeypatch):
        """Batching is invisible in a trace: every suite workload records
        the entries per-op recording would, and the trace replays to the
        recorded machine's counts."""
        source = System(sandy_bridge_config(mode="agile"))
        records = record(workload, MachineAPI(source))
        with monkeypatch.context() as patch:
            patch.setattr(TraceRecorder, "access_many", _per_op_access_many)
            per_op_source = System(sandy_bridge_config(mode="agile"))
            per_op_records = record(workload, MachineAPI(per_op_source))
        assert records == per_op_records
        assert (source.collect_metrics().to_dict()
                == per_op_source.collect_metrics().to_dict())

        target = System(sandy_bridge_config(mode="agile"))
        replay(records, MachineAPI(target))
        assert (target.collect_metrics().to_dict()
                == source.collect_metrics().to_dict())
