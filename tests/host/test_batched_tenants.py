"""Batched consolidation tenants are indistinguishable from per-op ones.

Each tenant issues one ``access_many`` per program step (per burst for
the context-switch storm). Two properties make that invisible:

* the operation stream is unchanged — every RNG draw happens in the
  same order and shape, so a recorded trace equals the one the per-op
  program (kept here as the reference) records;
* ``access_many`` is equivalent to looping over ``access`` — per-VM
  metrics, the host report and the host clock match a run with
  ``MachineAPI.access_many`` monkeypatched into exactly that loop, at
  4:1 overcommit under every virtualized mode and solo.
"""

from itertools import repeat

import pytest

from repro.common.config import HostConfig, sandy_bridge_config
from repro.core.hostsys import HostSystem
from repro.core.machine import System
from repro.core.simulator import MachineAPI, run_workload
from repro.workloads.consolidation import (
    STEP_OPS,
    ContextSwitchStorm,
    PackedHog,
    ReclaimThrasher,
)
from repro.workloads.trace import record

OPS = 700


def _per_op_access_many(self, vas, writes=None):
    for va, is_write in zip(vas, writes if writes is not None
                            else repeat(False)):
        self.access(va, is_write)


# -- the per-op programs the batched ones replaced (the stream reference) --

class PerOpHog(PackedHog):
    def program(self, api):
        self.reset()
        granule = self.granule
        api.spawn()
        base = api.mmap(self.npages * granule, kind="heap")
        self.warm_region(api, base, self.npages, write=True)
        api.settle()
        api.start_measurement()
        done = 0
        while done < self.ops:
            n = min(STEP_OPS, self.ops - done)
            ranks = self.rng.zipf(1.2, size=n)
            cold = self.rng.random(n) < 0.05
            writes = self.rng.random(n) < self.write_fraction
            for i in range(n):
                if cold[i]:
                    page = int(self.rng.integers(self.npages))
                else:
                    page = int(min(ranks[i], self.hot_pages) - 1)
                api.access(base + page * granule, bool(writes[i]))
            done += n
            yield


class PerOpStorm(ContextSwitchStorm):
    def program(self, api):
        self.reset()
        granule = self.granule
        procs = []
        heaps = []
        for _ in range(self.procs):
            proc = api.spawn(code_pages=2)
            api.switch_to(proc)
            heap = api.mmap(self.proc_pages * granule, kind="heap")
            self.warm_region(api, heap, self.proc_pages, write=True)
            procs.append(proc)
            heaps.append(heap)
        api.settle()
        api.start_measurement()
        done = 0
        turn = 0
        while done < self.ops:
            n = min(STEP_OPS, self.ops - done)
            issued = 0
            while issued < n:
                turn += 1
                index = turn % self.procs
                api.switch_to(procs[index])
                burst = min(self.switch_every, n - issued)
                pages = self.rng.integers(self.proc_pages, size=burst)
                writes = self.rng.random(burst) < 0.25
                for i in range(burst):
                    api.access(heaps[index] + int(pages[i]) * granule,
                               bool(writes[i]))
                issued += burst
            done += n
            yield


class PerOpThrasher(ReclaimThrasher):
    def program(self, api):
        self.reset()
        granule = self.granule
        api.spawn()
        base = api.mmap(self.npages * granule, kind="heap")
        api.start_measurement()
        done = 0
        cursor = 0
        while done < self.ops:
            n = min(STEP_OPS, self.ops - done)
            jitter = self.rng.integers(4, size=n)
            for i in range(n):
                page = (cursor + int(jitter[i])) % self.npages
                cursor = (cursor + 1) % self.npages
                api.write(base + page * granule)
            done += n
            yield


TENANTS = {
    "hog": (PackedHog, PerOpHog, {"npages": 600, "hot_pages": 96}),
    "storm": (ContextSwitchStorm, PerOpStorm, {"proc_pages": 64}),
    "thrasher": (ReclaimThrasher, PerOpThrasher, {"npages": 700}),
}


def tenants(kind, reference=False, ops=OPS):
    batched, per_op, kwargs = TENANTS[kind]
    cls = per_op if reference else batched
    return [cls(ops=ops, seed=11 + 3 * vm, **kwargs) for vm in range(4)]


@pytest.mark.parametrize("kind", sorted(TENANTS))
def test_batched_stream_equals_per_op_stream(kind):
    """Same trace entries, so the same RNG draws in the same order."""
    for batched, per_op in zip(tenants(kind), tenants(kind, reference=True)):
        got = record(batched, MachineAPI(System(sandy_bridge_config(
            mode="agile"))))
        want = record(per_op, MachineAPI(System(sandy_bridge_config(
            mode="agile"))))
        assert got == want


def consolidated(kind, mode):
    host = HostSystem(HostConfig(vms=4, vm_frames=2048, host_frames=1536),
                      machine_config=sandy_bridge_config(mode=mode))
    per_vm = host.run(tenants(kind))
    return ([m.to_dict() for m in per_vm], host.host_report(),
            host.clock.now)


@pytest.mark.parametrize("mode", ("nested", "shadow", "agile"))
@pytest.mark.parametrize("kind", sorted(TENANTS))
def test_consolidated_batched_equals_per_op(kind, mode, monkeypatch):
    batched = consolidated(kind, mode)
    with monkeypatch.context() as patch:
        patch.setattr(MachineAPI, "access_many", _per_op_access_many)
        per_op = consolidated(kind, mode)
    assert batched == per_op
    report = batched[1]
    assert report["overcommit_ratio"] > 1.0
    assert report["balloon_frames"] > 0  # the host really reclaimed


@pytest.mark.parametrize("kind", sorted(TENANTS))
def test_solo_batched_equals_per_op(kind, monkeypatch):
    config = sandy_bridge_config(mode="agile")
    batched = [run_workload(t, config).to_dict() for t in tenants(kind)]
    with monkeypatch.context() as patch:
        patch.setattr(MachineAPI, "access_many", _per_op_access_many)
        per_op = [run_workload(t, config).to_dict() for t in tenants(kind)]
    assert batched == per_op
