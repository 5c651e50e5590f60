"""Unit tests for the hardware page-walk state machines.

These pin down the paper's reference-count arithmetic (Table II) and the
fault behaviour of each walk. Setups are built by hand via
``tests.helpers`` so every count is fully controlled.
"""

import pytest

from helpers import TwoLevelSetup, make_native_setup, native_ctx
from repro.common.errors import (
    GuestPageFault,
    HostPageFault,
    ShadowNotPresentFault,
    ShadowProtectionFault,
)
from repro.common.params import TWO_MB
from repro.hw.walker import PageWalker
from repro.hw.walkstats import NESTED_FULL

GVA = (3 << 39) | (7 << 30) | (11 << 21) | (13 << 12)


@pytest.fixture
def setup():
    two = TwoLevelSetup()
    two.map_guest(GVA)
    return two


def walker_for(setup):
    return PageWalker(setup.host_mem, setup.guest_mem)


class TestNativeWalk:
    def test_4k_walk_costs_4_refs(self):
        mem, table = make_native_setup()
        frame = mem.alloc_data_page()
        table.map(GVA, frame)
        walker = PageWalker(mem)
        result = walker.native_walk(GVA, native_ctx(table))
        assert result.refs == 4
        assert result.frame == frame
        assert result.nested_levels == 0

    def test_2m_walk_costs_3_refs(self):
        mem, table = make_native_setup()
        base = mem.alloc_contiguous(512)
        table.map(0, base, TWO_MB)
        walker = PageWalker(mem)
        result = walker.native_walk(5 << 12, native_ctx(table))
        assert result.refs == 3
        assert result.page_shift == 21
        assert result.frame == base

    def test_unmapped_raises_guest_fault(self):
        mem, table = make_native_setup()
        walker = PageWalker(mem)
        with pytest.raises(GuestPageFault) as exc:
            walker.native_walk(GVA, native_ctx(table))
        assert exc.value.refs == 1  # root entry read, then fault
        assert exc.value.level == 4

    def test_leaf_fault_costs_partial_walk(self):
        mem, table = make_native_setup()
        frame = mem.alloc_data_page()
        table.map(GVA, frame)
        table.unmap(GVA)
        walker = PageWalker(mem)
        with pytest.raises(GuestPageFault) as exc:
            walker.native_walk(GVA, native_ctx(table))
        assert exc.value.refs == 4
        assert exc.value.level == 1

    def test_write_protection_fault(self):
        mem, table = make_native_setup()
        frame = mem.alloc_data_page()
        table.map(GVA, frame, writable=False)
        walker = PageWalker(mem)
        walker.native_walk(GVA, native_ctx(table), is_write=False)
        with pytest.raises(GuestPageFault) as exc:
            walker.native_walk(GVA, native_ctx(table), is_write=True)
        assert exc.value.protection

    def test_walk_sets_accessed_and_dirty(self):
        mem, table = make_native_setup()
        frame = mem.alloc_data_page()
        table.map(GVA, frame)
        walker = PageWalker(mem)
        walker.native_walk(GVA, native_ctx(table), is_write=True)
        pte, _ = table.lookup(GVA)
        assert pte.accessed
        assert pte.dirty


class TestNestedWalk:
    def test_4k_walk_costs_24_refs(self, setup):
        result = walker_for(setup).nested_walk(GVA, setup.nested_ctx())
        assert result.refs == 24
        assert result.nested_levels is NESTED_FULL
        assert result.mode == "nested"

    def test_result_frame_is_host_frame(self, setup):
        result = walker_for(setup).nested_walk(GVA, setup.nested_ctx())
        gfn = setup.gpt.translate(GVA)[0]
        assert result.frame == setup.gfn_to_hfn(gfn)

    def test_guest_hole_faults_to_guest(self, setup):
        with pytest.raises(GuestPageFault):
            walker_for(setup).nested_walk(GVA + (1 << 21), setup.nested_ctx())

    def test_host_hole_exits_to_vmm(self, setup):
        gfn = setup.gpt.translate(GVA)[0]
        setup.hpt.unmap(gfn << 12)
        with pytest.raises(HostPageFault) as exc:
            walker_for(setup).nested_walk(GVA, setup.nested_ctx())
        assert exc.value.gpa == gfn << 12

    def test_host_fault_message_reports_the_whole_walk(self, setup):
        """A host fault at the data page's gPA unwinds through the nested
        walk, which adds the guest-side references; the printed count
        must be the one the fault carries (charged by the machine)."""
        gfn = setup.gpt.translate(GVA)[0]
        setup.hpt.unmap(gfn << 12)
        with pytest.raises(HostPageFault) as exc:
            walker_for(setup).nested_walk(GVA, setup.nested_ctx())
        # Root gPA host walk (4), three guest levels at 1 + 4 each, the
        # guest leaf read (1), and the faulting host walk (4).
        assert exc.value.refs == 24
        assert "refs=24" in str(exc.value)

    def test_guest_readonly_write_faults_to_guest(self, setup):
        setup.gpt.set_flags(GVA, writable=False)
        with pytest.raises(GuestPageFault) as exc:
            walker_for(setup).nested_walk(GVA, setup.nested_ctx(), is_write=True)
        assert exc.value.protection

    def test_host_readonly_write_exits_to_vmm(self, setup):
        gfn = setup.gpt.translate(GVA)[0]
        setup.hpt.set_flags(gfn << 12, writable=False)
        with pytest.raises(HostPageFault) as exc:
            walker_for(setup).nested_walk(GVA, setup.nested_ctx(), is_write=True)
        assert exc.value.is_write

    def test_walk_sets_guest_ad_bits_in_hardware(self, setup):
        walker_for(setup).nested_walk(GVA, setup.nested_ctx(), is_write=True)
        gpte, _ = setup.gpt.lookup(GVA)
        assert gpte.accessed
        assert gpte.dirty

    def test_journal_matches_figure_1b(self, setup):
        walker = walker_for(setup)
        walker.journal = []
        walker.nested_walk(GVA, setup.nested_ctx())
        # 4 hPT refs for gptr, then per guest level: 1 gPT + 4 hPT.
        assert walker.journal[0:4] == [("hPT", 4), ("hPT", 3), ("hPT", 2), ("hPT", 1)]
        assert walker.journal[4] == ("gPT", 4)
        assert walker.journal[5:9] == [("hPT", 4), ("hPT", 3), ("hPT", 2), ("hPT", 1)]
        assert len(walker.journal) == 24
        assert walker.journal[-5] == ("gPT", 1)


class TestShadowWalk:
    def test_4k_walk_costs_4_refs(self, setup):
        setup.build_full_shadow()
        result = walker_for(setup).shadow_walk(GVA, setup.shadow_ctx())
        assert result.refs == 4
        assert result.nested_levels == 0
        assert result.mode == "shadow"

    def test_translates_to_host_frame(self, setup):
        setup.build_full_shadow()
        result = walker_for(setup).shadow_walk(GVA, setup.shadow_ctx())
        gfn = setup.gpt.translate(GVA)[0]
        assert result.frame == setup.gfn_to_hfn(gfn)

    def test_missing_entry_raises_shadow_fault(self, setup):
        setup.build_full_shadow()
        with pytest.raises(ShadowNotPresentFault):
            walker_for(setup).shadow_walk(GVA + (1 << 30), setup.shadow_ctx())

    def test_readonly_write_raises_protection_fault(self, setup):
        setup.build_full_shadow(writable_from_guest=False)
        with pytest.raises(ShadowProtectionFault):
            walker_for(setup).shadow_walk(GVA, setup.shadow_ctx(), is_write=True)


class TestAgileWalk:
    """The Table II / Figure 3 arithmetic: refs = 4 + 4d, or 24 full."""

    def test_full_shadow_is_4_refs(self, setup):
        setup.build_full_shadow()
        result = walker_for(setup).agile_walk(GVA, setup.agile_ctx())
        assert result.refs == 4
        assert result.nested_levels == 0
        assert result.mode == "agile"

    @pytest.mark.parametrize(
        "switch_below_level,expected_refs,expected_d",
        [
            (2, 8, 1),  # Figure 3(b): switched at 4th step, leaf nested
            (3, 12, 2),  # Figure 3(c)
            (4, 16, 3),  # Figure 3(d)
        ],
    )
    def test_switching_levels(self, setup, switch_below_level, expected_refs, expected_d):
        setup.build_full_shadow()
        setup.set_switching(GVA, switch_below_level)
        result = walker_for(setup).agile_walk(GVA, setup.agile_ctx())
        assert result.refs == expected_refs
        assert result.nested_levels == expected_d
        assert result.mode == "agile"

    def test_root_switch_is_20_refs(self, setup):
        setup.build_full_shadow()
        result = walker_for(setup).agile_walk(GVA, setup.agile_ctx(root_switch=True))
        assert result.refs == 20
        assert result.nested_levels == 4

    def test_fully_nested_is_24_refs(self, setup):
        setup.build_full_shadow()
        result = walker_for(setup).agile_walk(GVA, setup.agile_ctx(fully_nested=True))
        assert result.refs == 24
        assert result.nested_levels is NESTED_FULL

    def test_switched_walk_reaches_same_frame(self, setup):
        setup.build_full_shadow()
        shadow_result = walker_for(setup).agile_walk(GVA, setup.agile_ctx())
        setup.set_switching(GVA, 3)
        switched_result = walker_for(setup).agile_walk(GVA, setup.agile_ctx())
        assert switched_result.frame == shadow_result.frame

    def test_journal_matches_figure_3b(self, setup):
        setup.build_full_shadow()
        setup.set_switching(GVA, 2)
        walker = walker_for(setup)
        walker.journal = []
        walker.agile_walk(GVA, setup.agile_ctx())
        assert walker.journal == [
            ("sPT", 4), ("sPT", 3), ("sPT", 2),
            ("gPT", 1),
            ("hPT", 4), ("hPT", 3), ("hPT", 2), ("hPT", 1),
        ]

    def test_unswitched_addresses_stay_shadow(self, setup):
        other = GVA + (1 << 21)  # different L2 subtree
        setup.map_guest(other)
        setup.build_full_shadow()
        setup.set_switching(GVA, 2)
        walker = walker_for(setup)
        assert walker.agile_walk(GVA, setup.agile_ctx()).refs == 8
        assert walker.agile_walk(other, setup.agile_ctx()).refs == 4

    def test_guest_fault_through_switched_path(self, setup):
        setup.build_full_shadow()
        setup.set_switching(GVA, 2)
        setup.gpt.unmap(GVA)
        with pytest.raises(GuestPageFault) as exc:
            walker_for(setup).agile_walk(GVA, setup.agile_ctx())
        # 3 shadow refs + 1 guest PTE read, then the fault.
        assert exc.value.refs == 4


class TestWalkDispatch:
    def test_dispatch_by_mode(self, setup):
        setup.build_full_shadow()
        walker = walker_for(setup)
        assert walker.walk(GVA, setup.nested_ctx()).refs == 24
        assert walker.walk(GVA, setup.shadow_ctx()).refs == 4
        assert walker.walk(GVA, setup.agile_ctx()).refs == 4

    def test_unknown_mode_raises(self, setup):
        ctx = setup.nested_ctx()
        ctx.mode = "bogus"
        with pytest.raises(Exception):
            walker_for(setup).walk(GVA, ctx)
