"""Fault and exit taxonomy for the simulated machine.

Three distinct parties handle faults, exactly as in the paper:

* the **guest OS** handles :class:`GuestPageFault` (demand paging, COW),
* the **VMM** handles everything derived from :class:`VMExit` — host
  page-table faults under nested mode, shadow page-table misses and
  protection (dirty-tracking) faults under shadow/agile mode, mediated
  guest page-table writes, and context-switch traps,
* plain :class:`SimulationError` signals a bug or misuse of the simulator
  itself and is never "handled" by simulated software.
"""


class SimulationError(Exception):
    """An internal inconsistency in the simulator (not a simulated fault)."""


class TranslationFault(Exception):
    """Base class for faults raised mid-walk by the hardware walker.

    ``refs`` carries the memory references already performed by the walk
    so the cost model can charge partial walks that end in a fault. The
    walkers add to it as a fault unwinds through the outer stages of a
    walk, and most faults are handled without ever being printed, so the
    message is formatted only when asked for, from the final ``refs``.
    """

    def __init__(self, va, refs=0, level=None, message=""):
        super().__init__(va)
        self.va = va
        self.refs = refs
        self.level = level
        self.message = message

    def __str__(self):
        detail = self.message or self.__class__.__name__
        return "%s at va=%#x (level=%r, refs=%d)" % (
            detail, self.va, self.level, self.refs)


class GuestPageFault(TranslationFault):
    """A not-present or protection fault in the *guest* page table.

    Delivered to the guest OS; with nested paging this never exits to the
    VMM, matching the paper's "fast direct updates" property.
    """

    def __init__(self, va, refs=0, level=None, is_write=False, protection=False):
        self.is_write = is_write
        self.protection = protection
        super().__init__(va, refs, level)


class VMExit(TranslationFault):
    """Base class for faults that transfer control to the VMM (a VMtrap)."""


class HostPageFault(VMExit):
    """A not-present fault in the host (nested) page table: gPA with no hPA."""

    def __init__(self, va, gpa, refs=0, level=None, is_write=False):
        self.gpa = gpa
        self.is_write = is_write
        super().__init__(va, refs, level)


class ShadowNotPresentFault(VMExit):
    """The shadow page table lacks an entry; the VMM must merge one in."""

    def __init__(self, va, refs=0, level=None, is_write=False):
        self.is_write = is_write
        super().__init__(va, refs, level)


class ShadowProtectionFault(VMExit):
    """A write hit a read-only shadow PTE whose guest PTE permits writes.

    This is the dirty-bit tracking trap of Section III-B: the VMM sets the
    dirty bit in guest and shadow PTEs and enables the write.
    """

    def __init__(self, va, refs=0, level=None):
        super().__init__(va, refs, level)
