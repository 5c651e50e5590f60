"""Paranoid-mode invariant checker: clean runs pass, corruption raises.

Each corruption test injects one precise defect into an otherwise
healthy simulated machine and asserts the checker names the violated
invariant and carries enough walk context to debug it.
"""

import pytest

from repro.common.config import sandy_bridge_config
from repro.common.params import (
    FOUR_KB,
    LEAF_LEVEL,
    ROOT_LEVEL,
    TWO_MB,
    pt_index,
)
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.hw.tlb import TLBEntry
from repro.vmm.invariants import (
    NESTED_SUBTREES,
    SHADOW_COHERENCE,
    SWITCHING_BITS,
    TLB_COHERENCE,
    InvariantViolation,
)
from repro.vmm.shadowmgr import NODE_NESTED, NODE_SHADOW
from repro.vmm.shsp import TECH_NESTED, TECH_SHADOW
from repro.workloads.suite import DedupLike


def run_agile(ops=10_000):
    system = System(sandy_bridge_config(mode="agile", paranoid=True))
    Simulator(system).run(DedupLike(ops=ops))
    return system


def shadowed_state(system):
    """A live process with actual shadow leaves to corrupt."""
    for state in system.vmm.states.values():
        if state.manager is None or state.manager.fully_nested:
            continue
        if list(state.manager.spt.iter_leaves()):
            return state
    raise AssertionError("no process with shadow coverage")


class TestCleanRuns:
    def test_agile_run_is_coherent_and_checked(self):
        system = run_agile()
        inv = system.vmm.invariants
        assert inv.checks > 100
        assert inv.full_checks > 0
        system.check_invariants()  # explicit final sweep also passes

    @pytest.mark.parametrize("mode", ("nested", "shadow", "shsp"))
    def test_other_modes_are_coherent(self, mode):
        system = System(sandy_bridge_config(mode=mode, paranoid=True))
        Simulator(system).run(DedupLike(ops=6_000))
        assert system.vmm.invariants.checks > 0

    def test_paranoid_off_means_no_checker(self):
        system = System(sandy_bridge_config(mode="agile"))
        assert system.vmm.invariants is None
        system.check_invariants()  # no-op, no crash


class TestShadowCoherence:
    def test_corrupted_shadow_frame_is_detected_with_context(self):
        system = run_agile()
        state = shadowed_state(system)
        va, spte, _level = list(state.manager.spt.iter_leaves())[0]
        spte.frame += 1
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        violation = excinfo.value
        assert violation.invariant == SHADOW_COHERENCE
        assert violation.context["pid"] == state.pid
        assert violation.context["va"] == va
        assert violation.context["actual"] == spte.frame
        assert "shadow_path" in violation.context
        assert "guest_path" in violation.context
        assert "0x" in str(violation)  # VAs render in hex

    def test_stale_shadow_leaf_over_unmapped_page_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        va, _spte, _level = list(manager.spt.iter_leaves())[0]
        # Rip the mapping out of the guest table behind the VMM's back
        # (bypassing the observer, as a simulator bug would).
        gnode = manager._guest_node(manager.root_gfn)
        from repro.common.params import LEAF_LEVEL, ROOT_LEVEL, pt_index

        for level in range(ROOT_LEVEL, LEAF_LEVEL, -1):
            gpte = gnode.get(pt_index(va, level))
            if gpte.huge:
                break
            gnode = manager._guest_node(gpte.frame)
        gnode.clear(pt_index(va, LEAF_LEVEL))
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant in (SHADOW_COHERENCE, TLB_COHERENCE)

    def test_overbroad_write_permission_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        for va, spte, _level in manager.spt.iter_leaves():
            if not spte.writable:
                spte.writable = True
                spte.dirty = True
                break
        else:
            pytest.skip("no read-only shadow leaf in this run")
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == SHADOW_COHERENCE


class TestSwitchingBits:
    def test_switch_entry_to_shadow_mode_node_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        target = None
        for gfn, meta in manager.node_meta.items():
            if (meta.mode == NODE_SHADOW and meta.prefix is not None
                    and gfn != manager.root_gfn and meta.level >= 1):
                target = (gfn, meta)
                break
        assert target is not None
        gfn, meta = target
        manager._install_switch(meta.prefix, meta.level + 1, gfn)
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == SWITCHING_BITS
        assert "shadow-mode node" in excinfo.value.message


class TestNestedSubtrees:
    def test_mode_inheritance_violation_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        # A shadow-mode node whose parent we flip to nested: mode
        # switches must move whole subtrees, so this state is corrupt.
        for gfn, meta in manager.node_meta.items():
            parent_meta = manager.node_meta.get(meta.parent_gfn or -1)
            if (meta.mode == NODE_SHADOW and parent_meta is not None
                    and meta.parent_gfn != manager.root_gfn
                    and parent_meta.mode == NODE_SHADOW):
                parent_meta.mode = NODE_NESTED
                break
        else:
            raise AssertionError("no interior node to corrupt")
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == NESTED_SUBTREES


class TestMixedGranules:
    @pytest.mark.parametrize("mode", ("shadow", "agile"))
    @pytest.mark.parametrize("guest,host", ((TWO_MB, FOUR_KB),
                                            (FOUR_KB, TWO_MB)),
                             ids=("guest2M-host4K", "guest4K-host2M"))
    def test_clean_run_passes_and_huge_offsets_are_checked(self, mode,
                                                           guest, host):
        """Shadow leaves and TLB entries inside a huge page (guest or
        host side) derive their frame from the covering leaf plus the
        page's offset in it; a clean run must agree with that, and an
        entry off by one frame must not."""
        system = System(sandy_bridge_config(mode=mode, page_size=guest,
                                            host_page_size=host,
                                            paranoid=True))
        Simulator(system).run(DedupLike(ops=3_000, page_size=guest))
        proc = system.kernel.current
        state = system.vmm.states[proc.pid]
        # Touch 4K pieces off the start of a (guest or host) 2M page.
        va = next(va for va, _pte, _level in proc.page_table.iter_leaves())
        for piece in (5, 7):
            system.access((va & ~(TWO_MB.bytes - 1)) + piece * 4096)
        system.check_invariants()
        entry = next(entry for entry in system.mmu.hierarchy.iter_entries()
                     if entry.asid == proc.asid and entry.page_shift == 12
                     and entry.vpn % 512 == 7)
        entry.frame += 1
        with pytest.raises(InvariantViolation) as excinfo:
            system.vmm.invariants._check_tlb_va(
                state, entry.vpn << entry.page_shift)
        assert excinfo.value.invariant == TLB_COHERENCE
        assert "diverges" in excinfo.value.message


class TestTLBCoherence:
    def test_every_cached_copy_of_a_page_is_compared(self):
        """A full sweep composes each page's translation once, but checks
        every array's copy against it: a stale L2 copy behind a good L1
        copy of the same page is still caught."""
        system = run_agile()
        state = shadowed_state(system)
        tlbs = system.mmu.hierarchy.hierarchies[12]
        good = next(entry for entry in tlbs.l1d.iter_entries()
                    if entry.asid == state.proc.asid)
        stale = TLBEntry(asid=good.asid, vpn=good.vpn, frame=good.frame + 1,
                         page_shift=good.page_shift, writable=False)
        tlbs.l2.insert(stale)
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == TLB_COHERENCE
        assert excinfo.value.context["actual"] == stale.frame
        assert excinfo.value.context["expected"] == good.frame

    def test_write_enabled_entry_over_read_only_guest_page(self):
        system = run_agile()
        state = shadowed_state(system)
        proc = state.proc
        va, gpte, _level = next(leaf for leaf in proc.page_table.iter_leaves()
                                if leaf[1].writable)
        entry = TLBEntry(asid=proc.asid, vpn=va >> 12,
                         frame=system.vmm.hostpt.translate(gpte.frame),
                         page_shift=12, writable=True)
        system.mmu.hierarchy.hierarchies[12].l1d.insert(entry)
        system.vmm.invariants._check_tlb_va(state, va)  # coherent so far
        gpte.writable = False
        with pytest.raises(InvariantViolation) as excinfo:
            system.vmm.invariants._check_tlb_va(state, va)
        assert excinfo.value.invariant == TLB_COHERENCE
        assert "write-enabled TLB entry" in excinfo.value.message

    def test_stale_tlb_frame_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        proc = state.proc
        va = next(va for va, _pte, _level in proc.page_table.iter_leaves())
        bogus = TLBEntry(asid=proc.asid, vpn=va >> 12, frame=999_999,
                         page_shift=12, writable=False)
        system.mmu.hierarchy.hierarchies[12].l1d.insert(bogus)
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == TLB_COHERENCE
        assert excinfo.value.context["pid"] == state.pid


class TestSHSPRebuildRegression:
    def test_enable_shadow_coverage_drops_stale_leaves(self):
        """Guest unmaps during SHSP's nested phase must not survive in
        the shadow table after the switch back to shadow paging."""
        system = System(sandy_bridge_config(mode="shsp", paranoid=True))
        kernel = system.kernel
        proc = kernel.create_process()
        state = system.vmm.states[proc.pid]
        manager = state.manager
        page = system.config.page_size.bytes
        base = kernel.mmap(proc, 8 * page, populate=True)
        for i in range(8):
            system.access(base + i * page)  # shadow phase: fill the sPT
        assert any(va == base for va, _p, _l in manager.spt.iter_leaves())
        # Nested phase: guest PT updates go direct, no shadow sync.
        state.shsp.technique = TECH_NESTED
        manager.fully_nested = True
        kernel.munmap(proc, base, 4 * page)
        # Back to shadow: the rebuild must start from a clean table.
        state.shsp.technique = TECH_SHADOW
        manager.enable_shadow_coverage()
        manager.rebuild_full(proc.page_table)
        shadow_vas = {va for va, _p, _l in manager.spt.iter_leaves()}
        assert base not in shadow_vas
        system.check_invariants()


def eager_shadow_path(manager, va, level):
    """The shadow steps an eager checker formatted walking to (level, va)."""
    node = manager.spt.root
    path = []
    for current in range(ROOT_LEVEL, level - 1, -1):
        index = pt_index(va, current)
        spte = node.get(index)
        path.append("sPT L%d[%d]=%r" % (current, index, spte))
        if current > level:
            node = manager.spt.node_at(spte.frame)
    return path


def eager_guest_path(manager, va):
    """The guest steps an eager checker formatted walking ``va``."""
    gnode = manager._guest_node(manager.root_gfn)
    path = []
    for level in range(ROOT_LEVEL, LEAF_LEVEL - 1, -1):
        index = pt_index(va, level)
        gpte = gnode.get(index)
        path.append("gPT L%d[%d]=%r" % (level, index, gpte))
        if gpte is None or not gpte.present or gpte.huge:
            break
        if level > LEAF_LEVEL:
            gnode = manager._guest_node(gpte.frame)
    return path


def assert_renders_eagerly(violation, **paths):
    """``violation`` reads exactly as one built from eagerly formatted
    path strings, and keeps reading so after the state changes."""
    for key, path in paths.items():
        assert violation.context[key] == path
    eager = InvariantViolation(violation.invariant, violation.message,
                               **dict(violation.context, **paths))
    assert str(violation) == str(eager)
    assert violation.to_dict() == eager.to_dict()
    for key, path in paths.items():
        assert "%s = %s" % (key, " -> ".join(path)) in str(violation)
    return str(violation), violation.to_dict()


class TestLazyPathRendering:
    """Walk paths are rendered only when a violation is raised, and are
    frozen there: the text equals the eager format, and mutating the
    offending PTE afterwards changes nothing."""

    def test_corrupted_shadow_leaf(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        va, spte, level = list(manager.spt.iter_leaves())[0]
        spte.frame += 1
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        violation = excinfo.value
        assert violation.invariant == SHADOW_COHERENCE
        assert "diverges" in violation.message
        text, payload = assert_renders_eagerly(
            violation,
            shadow_path=eager_shadow_path(manager, va, level),
            guest_path=eager_guest_path(manager, va))
        spte.frame += 5
        spte.writable = not spte.writable
        assert violation.to_dict() == payload
        assert str(violation) == text

    def test_stale_guest_mapping(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        va, spte, level = list(manager.spt.iter_leaves())[0]
        assert level == LEAF_LEVEL
        gnode = manager._guest_node(manager.root_gfn)
        interior = []
        for glevel in range(ROOT_LEVEL, LEAF_LEVEL, -1):
            gpte = gnode.get(pt_index(va, glevel))
            interior.append(gpte)
            gnode = manager._guest_node(gpte.frame)
        gnode.clear(pt_index(va, LEAF_LEVEL))
        with pytest.raises(InvariantViolation) as excinfo:
            system.vmm.invariants.check_va(state, va)
        violation = excinfo.value
        assert violation.invariant == SHADOW_COHERENCE
        assert "no mapping here" in violation.message
        guest_path = eager_guest_path(manager, va)
        assert guest_path[-1].endswith("=None")
        text, payload = assert_renders_eagerly(
            violation,
            shadow_path=eager_shadow_path(manager, va, level),
            guest_path=guest_path)
        spte.frame += 3
        interior[-1].accessed = not interior[-1].accessed
        assert violation.to_dict() == payload
        assert str(violation) == text

    def test_switch_entry_to_shadow_mode_node(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        gfn, meta = next(
            (gfn, meta) for gfn, meta in manager.node_meta.items()
            if meta.mode == NODE_SHADOW and meta.prefix is not None
            and gfn != manager.root_gfn)
        manager._install_switch(meta.prefix, meta.level + 1, gfn)
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        violation = excinfo.value
        assert violation.invariant == SWITCHING_BITS
        assert "shadow-mode node" in violation.message
        shadow_path = eager_shadow_path(manager, meta.prefix, meta.level + 1)
        assert "S" in shadow_path[-1].split(", ")[-1]  # the switching bit
        text, payload = assert_renders_eagerly(violation,
                                               shadow_path=shadow_path)
        node = manager._descend(meta.level + 1, meta.prefix)
        switch = node.get(pt_index(meta.prefix, meta.level + 1))
        switch.frame += 1
        switch.guest_node = False
        assert violation.to_dict() == payload
        assert str(violation) == text
