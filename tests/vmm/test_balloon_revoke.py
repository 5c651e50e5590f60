"""Balloon victim selection against the two-pass reference.

``VMM.balloon_revoke`` reads (gfn, dirty) for every backed mapping in
one pass over the host table and rotates past the balloon hand with a
bisect. The reference below is the selection it replaced: sort the
backed gfns, step past the hand one by one, then take clean pages
before dirty ones, asking the host table for each page's dirty bit.
"""

import pytest

from repro.common.config import sandy_bridge_config
from repro.common.params import FOUR_KB, TWO_MB
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.workloads.suite import DedupLike


def two_pass_victims(hostpt, hand):
    mapped = sorted(va >> 12 for va, _pte, _level in hostpt.table.iter_leaves())
    start = 0
    while start < len(mapped) and mapped[start] <= hand:
        start += 1
    order = mapped[start:] + mapped[:start]
    return ([gfn for gfn in order if not hostpt.is_dirty(gfn)]
            + [gfn for gfn in order if hostpt.is_dirty(gfn)])


def backed_gfns(hostpt):
    return [va >> 12 for va, _pte, _level in hostpt.table.iter_leaves()]


def ballooned_system(host_page_size):
    """An agile VM with live shadow state, extra host backing spread over
    the gfn space, and every third backed mapping dirty."""
    system = System(sandy_bridge_config(mode="agile",
                                        host_page_size=host_page_size))
    Simulator(system).run(DedupLike(ops=2_000))
    hostpt = system.vmm.hostpt
    span = hostpt._frames_per_page
    for block in range(8, 40, 3):
        hostpt.ensure_mapped(block * 4 * span + 1)
    for i, gfn in enumerate(backed_gfns(hostpt)):
        hostpt.leaf_for_gfn(gfn).dirty = i % 3 == 0
    return system


def hand_for(hostpt, where):
    """A balloon hand position; a re-backed gfn may sit under the hand,
    so the hand can name a backed page, clean or dirty."""
    gfns = backed_gfns(hostpt)
    middle = len(gfns) // 2
    clean = next(gfn for gfn in gfns[middle:] if not hostpt.is_dirty(gfn))
    dirty = next(gfn for gfn in gfns[middle:] if hostpt.is_dirty(gfn))
    return {
        "before": -1,
        "clean": clean,                   # start just past a backed gfn
        "dirty": dirty,
        "gap": gfns[middle] + 1,          # between two backed gfns
        "after": gfns[-1] + 1,            # past the end: wrap to the start
    }[where]


@pytest.mark.parametrize("where", ("before", "clean", "dirty", "gap",
                                   "after"))
@pytest.mark.parametrize("host_page_size", (FOUR_KB, TWO_MB),
                         ids=("host4K", "host2M"))
def test_victims_match_two_pass_reference(host_page_size, where,
                                          monkeypatch):
    system = ballooned_system(host_page_size)
    vmm = system.vmm
    hostpt = vmm.hostpt
    span = hostpt._frames_per_page
    gfns = backed_gfns(hostpt)
    assert gfns == sorted(gfns) and len(gfns) >= 12
    dirty = [gfn for gfn in gfns if hostpt.is_dirty(gfn)]
    assert 0 < len(dirty) < len(gfns)

    unmapped = []
    unmap = hostpt.unmap

    def recording_unmap(gfn):
        unmapped.append(gfn)
        return unmap(gfn)

    monkeypatch.setattr(hostpt, "unmap", recording_unmap)
    vmm._balloon_hand = hand_for(hostpt, where)
    # Two episodes: the second starts from the hand the first left, and
    # together they reach past every clean page into the dirty ones.
    revoked = []
    for pages in (len(gfns) // 3, len(gfns) // 2):
        expected = two_pass_victims(hostpt, vmm._balloon_hand)
        unmapped.clear()
        freed = vmm.balloon_revoke(pages * span)
        assert unmapped == expected[:pages]
        assert freed == pages * span
        assert vmm._balloon_hand == unmapped[-1]
        revoked += unmapped
        assert backed_gfns(hostpt) == [gfn for gfn in gfns
                                       if gfn not in revoked]
    assert any(gfn in dirty for gfn in revoked)


def test_revoking_more_than_is_backed_takes_everything_once():
    system = ballooned_system(FOUR_KB)
    vmm = system.vmm
    gfns = backed_gfns(vmm.hostpt)
    vmm._balloon_hand = hand_for(vmm.hostpt, "dirty")
    expected = two_pass_victims(vmm.hostpt, vmm._balloon_hand)
    assert vmm.balloon_revoke(10 * len(gfns)) == len(gfns)
    assert backed_gfns(vmm.hostpt) == []
    assert vmm._balloon_hand == expected[-1]
    assert vmm.balloon_revoke(8) == 0  # nothing left to revoke
