"""``System.access_many`` is observably the per-op ``access`` loop.

Each test drives one access stream through two identical machines — one
batched through ``access_many``, one looped through ``access`` — and
demands identical observable state: the ``RunMetrics`` dict, every TLB
and walk-cache structure's stats and LRU contents, the clock, and the
composed final translation state of every process. The cases cover the
inline loop's clean L1/L2 hits and each of its fallbacks: misses, write
upgrades, policy epochs inside a batch, context switches between
batches, an attached tracer, a multi-granule config, and VMs on a
consolidated host's ``VirtualClock``.
"""

import random
from itertools import repeat

import pytest

from repro.common.config import EXTENDED_MODES, HostConfig, sandy_bridge_config
from repro.common.errors import SimulationError
from repro.common.params import FOUR_KB, LEVEL_SHIFTS, TWO_MB
from repro.core.hostsys import HostSystem
from repro.core.machine import POLICY_EPOCH_OPS, System
from repro.obs.tracer import Tracer
from repro.workloads.consolidation import ContextSwitchStorm, PackedHog

PAGES = 96  # beyond the L1's 64 entries, within the L2's reach
BATCH = 512


def looped(system, vas, writes=None):
    """The specification: one ``access`` per op."""
    for va, is_write in zip(vas, writes if writes is not None else repeat(False)):
        system.access(va, is_write)


def batched(system, vas, writes=None):
    system.access_many(vas, writes)


def build(mode, page_size=FOUR_KB, pages=PAGES, **overrides):
    system = System(sandy_bridge_config(mode, page_size, **overrides))
    proc = system.kernel.create_process()
    base = system.kernel.mmap(proc, size=pages * page_size.bytes)
    return system, base


def stream(seed, base, pages, ops, write_fraction=0.3, granule=4096):
    """Mixed locality: a hot eighth of the pages plus a uniform tail."""
    rng = random.Random(seed)
    hot = max(4, pages // 8)
    vas, writes = [], []
    for _ in range(ops):
        page = rng.randrange(hot) if rng.random() < 0.7 else rng.randrange(pages)
        vas.append(base + page * granule + rng.randrange(granule))
        writes.append(rng.random() < write_fraction)
    return vas, writes


def drive(system, drive_fn, vas, writes, batch=BATCH):
    for i in range(0, len(vas), batch):
        drive_fn(system, vas[i:i + batch], writes[i:i + batch])


def final_translation_state(system):
    """Every live process's translations, one entry per 4 KB page:
    ``{(asid, vpn): (frame, page_shift, writable, dirty)}``.

    Virtualized modes compose each present guest leaf through the VMM's
    host table (gVA -> gPA -> hPA; ``frame`` is None where the gfn is not
    backed yet); native records VA -> PA directly.
    """
    hostpt = system.vmm.hostpt if system.vmm is not None else None
    state = {}
    for proc in system.kernel.processes.values():
        for va, pte, level in proc.page_table.iter_leaves():
            if not pte.present:
                continue
            shift = LEVEL_SHIFTS[level]
            for index in range(1 << (shift - 12)):
                gfn = pte.frame + index
                frame = gfn if hostpt is None else hostpt.translate(gfn)
                state[(proc.asid, (va >> 12) + index)] = (
                    frame, shift, pte.writable, pte.dirty)
    return state


def _stats(stats):
    return {name: getattr(stats, name) for name in type(stats).__slots__}


def structure_state(system):
    """Stats and LRU-ordered contents of every TLB and walk cache."""
    mmu = system.mmu
    state = {"counters": _stats(mmu.counters)}
    for shift, hierarchy in mmu.hierarchy.hierarchies.items():
        for name in ("l1d", "l1i", "l2"):
            tlb = getattr(hierarchy, name)
            if tlb is not None:
                state["tlb%d.%s" % (shift, name)] = (
                    _stats(tlb.stats),
                    [[(key, entry.frame, entry.writable, entry.dirty)
                      for key, entry in entries.items()]
                     for entries in tlb._sets])
    for name in ("pwc", "host_pwc"):
        pwc = getattr(mmu, name)
        if pwc is not None:
            state[name] = (_stats(pwc.stats),
                           {depth: list(table.items())
                            for depth, table in pwc._tables.items()})
    if mmu.nested_tlb is not None:
        state["nested_tlb"] = (_stats(mmu.nested_tlb.stats),
                               list(mmu.nested_tlb._entries.items()))
    return state


def observable(system, structures=True):
    state = {
        "metrics": system.collect_metrics().to_dict(),
        "clock": system.clock.now,
        "translations": final_translation_state(system),
    }
    if structures:
        state["structures"] = structure_state(system)
    return state


def assert_same(loop_system, batch_system, structures=True):
    want = observable(loop_system, structures)
    got = observable(batch_system, structures)
    assert len(want["translations"]) > 0
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("mode", EXTENDED_MODES)
def test_batches_match_the_per_op_loop(mode):
    loop_system, base = build(mode)
    batch_system, batch_base = build(mode)
    assert batch_base == base
    vas, writes = stream(7, base, PAGES, 6000)
    drive(loop_system, looped, vas, writes)
    drive(batch_system, batched, vas, writes)
    assert_same(loop_system, batch_system)
    counters = batch_system.mmu.counters
    assert counters.tlb_hits_l1 and counters.tlb_hits_l2 and counters.tlb_misses


@pytest.mark.parametrize("mode", EXTENDED_MODES)
def test_all_reads_default(mode):
    loop_system, base = build(mode)
    batch_system, _ = build(mode)
    vas, _writes = stream(8, base, PAGES, 3000)
    looped(loop_system, vas)
    batched(batch_system, vas)
    assert_same(loop_system, batch_system)
    assert batch_system.writes == 0


@pytest.mark.parametrize("mode", ("native", "nested", "shadow", "agile"))
def test_write_upgrades_inside_a_batch(mode):
    """Reads fill clean TLB entries; the writes that follow in the same
    batch must each re-walk (a write upgrade) exactly as per-op."""
    loop_system, base = build(mode)
    batch_system, _ = build(mode)
    pages = list(range(0, 48, 3))
    vas = [base + page * 4096 for page in pages] * 2
    writes = [False] * len(pages) + [True] * len(pages)
    looped(loop_system, vas, writes)
    batched(batch_system, vas, writes)
    assert_same(loop_system, batch_system)
    assert batch_system.mmu.counters.write_upgrades >= len(pages)


@pytest.mark.parametrize("mode", ("nested", "shadow", "agile", "shsp"))
def test_policy_epochs_inside_a_batch(mode):
    """Epochs fall at the same op counts when a batch straddles them."""
    systems = []
    for drive_fn in (looped, batched):
        system, base = build(mode)
        epochs = []
        policy_epoch = system._policy_epoch

        def record(system=system, epochs=epochs, policy_epoch=policy_epoch):
            epochs.append(system.ops)
            policy_epoch()

        system._policy_epoch = record
        # Offset the epoch phase, then a batch crossing several epochs
        # of mostly clean hits.
        looped(system, [base + (i % 32) * 4096 for i in range(100)])
        vas, writes = stream(9, base, 32, 3 * POLICY_EPOCH_OPS + 57,
                             write_fraction=0.05)
        drive_fn(system, vas, writes)
        systems.append((system, epochs))
    (loop_system, loop_epochs), (batch_system, batch_epochs) = systems
    assert len(loop_epochs) >= 3
    assert batch_epochs == loop_epochs
    assert_same(loop_system, batch_system)


@pytest.mark.parametrize("mode", EXTENDED_MODES)
def test_context_switch_between_batches(mode):
    systems = []
    for drive_fn in (looped, batched):
        system, base_a = build(mode)
        first = system.kernel.current
        second = system.kernel.create_process()
        base_b = system.kernel.mmap(second, size=PAGES * 4096)
        for turn in range(8):
            proc, base = ((first, base_a) if turn % 2 == 0
                          else (second, base_b))
            system.kernel.context_switch(proc.pid)
            vas, writes = stream(10 + turn, base, PAGES, 400)
            drive_fn(system, vas, writes)
        systems.append(system)
    assert_same(*systems)


@pytest.mark.parametrize("mode", ("native", "agile"))
def test_tracer_attached_takes_the_per_op_path(mode):
    traced = []
    for drive_fn in (looped, batched):
        system, base = build(mode)
        tracer = Tracer()
        system.attach_observability(tracer=tracer)
        vas, writes = stream(11, base, PAGES, 2000)
        drive(system, drive_fn, vas, writes)
        traced.append((system, tracer))
    (loop_system, loop_tracer), (batch_system, batch_tracer) = traced
    assert_same(loop_system, batch_system)
    events = [[(e.kind, e.ts, e.dur, e.data) for e in tracer]
              for tracer in (loop_tracer, batch_tracer)]
    assert events[0] == events[1]
    assert any(kind == "tlb_hit" for kind, _ts, _dur, _data in events[1])


@pytest.mark.parametrize("mode", ("nested", "shadow", "agile"))
def test_large_guest_pages_on_small_host_pages(mode):
    """A 2 MB guest on a 4 KB host granule has two TLB granules, so the
    whole batch takes the per-op path."""
    systems = []
    for drive_fn in (looped, batched):
        system, base = build(mode, TWO_MB, pages=4, host_page_size=FOUR_KB)
        assert len(system.mmu.hierarchy.hierarchies) == 2
        vas, writes = stream(12, base, 4 * 512, 2000)
        drive(system, drive_fn, vas, writes)
        systems.append(system)
    assert_same(*systems)


def test_empty_batch_and_no_process():
    system = System(sandy_bridge_config("agile"))
    system.access_many([])
    assert system.ops == 0
    with pytest.raises(SimulationError, match="no runnable process"):
        system.access_many([0x1000])


def _looped_method(self, vas, writes=None):
    looped(self, vas, writes)


@pytest.mark.parametrize("mode", ("nested", "shadow", "agile"))
def test_virtual_clock_vms_in_a_consolidated_host(mode, monkeypatch):
    """Tenants warm through ``access_many`` on their VirtualClock views;
    the host's schedule, clocks and every VM's state must not change."""

    def run():
        host = HostSystem(HostConfig(vms=2, vm_frames=4096),
                          sandy_bridge_config(mode, host_mem_frames=4096))
        per_vm = host.run([PackedHog(ops=1500, seed=21, npages=300),
                           ContextSwitchStorm(ops=1500, seed=22)])
        return host, per_vm

    host, per_vm = run()
    with monkeypatch.context() as patch:
        patch.setattr(System, "access_many", _looped_method)
        loop_host, loop_per_vm = run()
    assert [m.to_dict() for m in per_vm] == [m.to_dict() for m in loop_per_vm]
    assert host.host_report() == loop_host.host_report()
    assert host.clock.now == loop_host.clock.now
    for vm, loop_vm in zip(host.vms, loop_host.vms):
        assert vm.system.clock.now == loop_vm.system.clock.now
        assert structure_state(vm.system) == structure_state(loop_vm.system)
        assert (final_translation_state(vm.system)
                == final_translation_state(loop_vm.system))
