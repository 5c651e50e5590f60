"""The consolidation workload family: guests built to be multiplexed.

Unlike the Table V suite (one long ``execute``), these workloads are
*steppable*: :meth:`SteppedWorkload.program` returns a generator that
yields at preemption-safe points, so the host vCPU scheduler
(:mod:`repro.host.scheduler`) can interleave N of them on the shared
clock. ``execute`` drains the same generator, so the identical workload
also runs solo under :func:`repro.core.simulator.run_workload` — which
is exactly how the cross-VM isolation oracle builds its baseline.

Three members, one per consolidation stress the paper's claims meet:

* :class:`PackedHog` — a memcached-shaped tenant (zipf hot set plus a
  cold tail) for plain 4:1 packing.
* :class:`ContextSwitchStorm` — many guest processes switching every
  few operations: the CR3-cache traffic generator (Section IV).
* :class:`ReclaimThrasher` — a cyclic writer whose footprint exceeds
  its fair share of host RAM, so consolidation with overcommit forces
  balloon revocations and re-backing host faults.
"""

import numpy as np

from repro.workloads.base import Workload

#: Guest operations issued between yields (one schedulable step). Each
#: step's accesses go to the machine as one ``access_many`` batch (per
#: burst for :class:`ContextSwitchStorm`, which switches between bursts).
STEP_OPS = 64


class SteppedWorkload(Workload):
    """Base: a generator program, drainable for solo runs."""

    name = "stepped"

    def execute(self, api):
        for _step in self.program(api):
            pass

    def program(self, api):
        """A generator issuing guest work, yielding between steps."""
        raise NotImplementedError


class PackedHog(SteppedWorkload):
    """A well-behaved tenant: zipf hot set, sparse writes, light churn."""

    name = "packed_hog"
    description = "zipf hot set + cold tail; the 4:1 packing tenant"

    def __init__(self, ops=20_000, seed=42, page_size=None, npages=512,
                 hot_pages=128, write_fraction=0.2, **kwargs):
        if page_size is not None:
            kwargs["page_size"] = page_size
        super().__init__(ops=ops, seed=seed, **kwargs)
        self.npages = npages
        self.hot_pages = min(hot_pages, npages)
        self.write_fraction = write_fraction

    def program(self, api):
        self.reset()
        granule = self.granule
        api.spawn()
        base = api.mmap(self.npages * granule, kind="heap")
        self.warm_region(api, base, self.npages, write=True)
        api.settle()
        api.start_measurement()
        # Zipf ranks over the hot set, a uniform cold tail.
        done = 0
        while done < self.ops:
            n = min(STEP_OPS, self.ops - done)
            ranks = self.rng.zipf(1.2, size=n)
            cold = self.rng.random(n) < 0.05
            writes = self.rng.random(n) < self.write_fraction
            vas = []
            for i in range(n):
                if cold[i]:
                    page = int(self.rng.integers(self.npages))
                else:
                    page = int(min(ranks[i], self.hot_pages) - 1)
                vas.append(base + page * granule)
            api.access_many(vas, writes.tolist())
            done += n
            yield


class ContextSwitchStorm(SteppedWorkload):
    """Process-switch-heavy guest: the CR3-cache stressor.

    Spawns ``procs`` processes, each with a small private heap, and
    switches between them every few accesses. Under shadow paging every
    switch is a CR3-write VMtrap; under agile paging the CR3 cache
    absorbs repeats (Section IV) — precisely the effect consolidation
    multiplies by N.
    """

    name = "cs_storm"
    description = "frequent guest context switches across many processes"

    def __init__(self, ops=20_000, seed=42, page_size=None, procs=8,
                 proc_pages=32, switch_every=8, **kwargs):
        if page_size is not None:
            kwargs["page_size"] = page_size
        super().__init__(ops=ops, seed=seed, **kwargs)
        self.procs = procs
        self.proc_pages = proc_pages
        self.switch_every = switch_every

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
                api.access_many((pages * granule + heaps[index]).tolist(),
                                writes.tolist())
                issued += burst
            done += n
            yield


class ReclaimThrasher(SteppedWorkload):
    """A cyclic writer sized past its fair share of host RAM.

    Solo (or at 1:1 reservation) it simply streams over its footprint.
    Consolidated with overcommit, every VM's sweep pushes the commit
    ledger past the physical limit, ballooning revokes the coldest
    frames, and the next sweep re-faults them — the reclaim-thrash
    pattern HMM-V-style overcommit studies measure.
    """

    name = "reclaim_thrasher"
    description = "cyclic writes over a footprint exceeding the fair share"

    def __init__(self, ops=20_000, seed=42, page_size=None, npages=1024,
                 **kwargs):
        if page_size is not None:
            kwargs["page_size"] = page_size
        super().__init__(ops=ops, seed=seed, **kwargs)
        self.npages = npages

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
            pages = (cursor + np.arange(n) + jitter) % self.npages
            cursor = (cursor + n) % self.npages
            api.access_many((pages * granule + base).tolist(), [True] * n)
            done += n
            yield


CONSOLIDATION_FAMILY = (PackedHog, ContextSwitchStorm, ReclaimThrasher)
