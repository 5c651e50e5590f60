"""Runtime invariant checking for the VMM — "paranoid mode".

The whole point of agile paging is that the shadow page table is
*exactly* coherent with the guest ⊕ host composition, up to the
per-entry switching bit (Sections III-A/III-B). A silent divergence
anywhere in the shadow machinery corrupts every reproduced number, so
this module re-derives the expected state from first principles and
compares, raising a structured :class:`InvariantViolation` carrying the
full walk context when anything disagrees.

Invariants checked (names appear in violations):

* ``shadow-coherence`` — every present, non-switching shadow leaf
  translates its VA exactly as the composed guest ⊕ host tables do, and
  its permissions never exceed them (including the Section III-B
  accessed/dirty protocol: no write-enable before the guest dirty bit,
  unless the Section IV hardware assist maintains A/D bits).
* ``switching-bits`` — a switching entry appears at most once per walk
  path and always names a *nested-mode* guest page-table node at the
  next-lower level (``guest_node`` flag set); the root switching bit
  agrees with the root node's mode.
* ``nested-subtrees`` — nested mode is inherited downward (a shadow-mode
  node never hangs under a nested parent) and no stale shadow coverage
  exists over a nested subtree.
* ``tlb-coherence`` — every cached translation for the process agrees
  with the current composed mapping (no stale frames, no write-enabled
  entries the guest tables forbid).

Enable with ``MachineConfig(paranoid=True)`` (CLI: ``--paranoid``). The
VMM then runs a *scoped* check of the affected walk path after every
VMtrap and a *full-process* sweep after every policy mode switch; the
System runs one final sweep when metrics are collected.
"""

from repro.common.errors import SimulationError
from repro.common.params import INDEX_MASK, LEAF_LEVEL, LEVEL_SHIFTS, ROOT_LEVEL
from repro.vmm.shadowmgr import NODE_NESTED, NODE_SHADOW

SHADOW_COHERENCE = "shadow-coherence"
SWITCHING_BITS = "switching-bits"
NESTED_SUBTREES = "nested-subtrees"
TLB_COHERENCE = "tlb-coherence"


class WalkStep(tuple):
    """One visited entry of a checked walk path, rendered on demand.

    A ``(table, level, index, pte)`` tuple. The checker records a step
    per table entry it visits but reads the text only when it raises, so
    a passing check never formats a PTE.
    """

    __slots__ = ()

    def __str__(self):
        return "%s L%d[%d]=%r" % self


def _frozen(value):
    """``value`` with any walk steps in it rendered to their text."""
    if isinstance(value, list):
        return [str(item) if isinstance(item, WalkStep) else item
                for item in value]
    return value


class InvariantViolation(SimulationError):
    """A paranoid-mode check failed; carries the full walk context.

    ``invariant`` is one of the module-level invariant names;
    ``context`` maps descriptive keys (pid, va, shadow_path, expected,
    actual, ...) to values. VAs/prefixes are rendered in hex. Walk paths
    are frozen to their strings here, so the violation keeps describing
    the state it caught even if a PTE on the path changes afterwards.
    """

    def __init__(self, invariant, message, **context):
        self.invariant = invariant
        self.message = message
        self.context = {key: _frozen(value) for key, value in context.items()}
        lines = ["[%s] %s" % (invariant, message)]
        for key in sorted(self.context):
            lines.append("    %s = %s" % (key, self._render(key, self.context[key])))
        super().__init__("\n".join(lines))

    @staticmethod
    def _render(key, value):
        if isinstance(value, int) and ("va" in key or "prefix" in key):
            return hex(value)
        if isinstance(value, (list, tuple)):
            return " -> ".join(str(item) for item in value)
        return repr(value)

    def to_dict(self):
        """JSON-safe form, for fuzz reproducers and trace payloads."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "context": {key: self._render(key, value)
                        for key, value in sorted(self.context.items())},
        }


class InvariantChecker:
    """Validates one VMM's shadow/guest/host/TLB state on demand.

    ``checks``/``full_checks`` count scoped and full-sweep runs so tests
    can assert paranoid mode actually exercised the machinery.
    """

    def __init__(self, vmm):
        self.vmm = vmm
        self.checks = 0
        self.full_checks = 0

    # -- entry points the VMM calls ------------------------------------------

    def after_trap(self, pid, va=None):
        """Scoped check of the walk path for ``va`` after one VMtrap."""
        state = self.vmm.states.get(pid)
        if state is None:
            return
        self.checks += 1
        if (va is not None and state.manager is not None
                and not state.manager.fully_nested):
            self.check_va(state, va)
        if va is not None:
            self._check_tlb_va(state, va)

    def after_mode_switch(self, pid):
        """Full-process sweep after a shadow<=>nested transition."""
        state = self.vmm.states.get(pid)
        if state is not None:
            self.check_process(state)

    def check_all(self):
        """Sweep every live process (end of run / after policy epochs)."""
        for state in list(self.vmm.states.values()):
            self.check_process(state)

    def check_process(self, state):
        """All four invariants for one process, whole address space."""
        self.full_checks += 1
        manager = state.manager
        if manager is not None and manager.root_gfn is not None:
            if manager.fully_nested:
                pass  # sPT is detached from hardware (ctx.sptr is None)
            else:
                self._check_root_switch(state)
                self._sweep_shadow(state)
                self._check_node_modes(state)
        self._check_tlb(state)

    # -- shadow table sweep ----------------------------------------------------

    def _sweep_shadow(self, state):
        manager = state.manager

        def recurse(node, prefix, path):
            shift = LEVEL_SHIFTS[node.level]
            for index, spte in sorted(node.entries.items()):
                va = prefix | (index << shift)
                here = path + [WalkStep(("sPT", node.level, index, spte))]
                if not spte.present:
                    continue
                if spte.switching:
                    self._check_switch_entry(state, spte, node.level, va, here)
                    continue  # the walk leaves the shadow table here
                if spte.huge or node.level == LEAF_LEVEL:
                    self._check_leaf(state, spte, node.level, va, here)
                    continue
                child = self._shadow_child(state, spte, va, here)
                recurse(child, va, here)

        recurse(manager.spt.root, 0, [])

    def _shadow_child(self, state, spte, va, path):
        try:
            return state.manager.spt.node_at(spte.frame)
        except SimulationError as error:
            raise InvariantViolation(
                SWITCHING_BITS,
                "shadow interior entry does not reference a shadow node "
                "(a switching bit lost, or a frame corrupted): %s" % error,
                pid=state.pid, va=va, shadow_path=path) from error

    def _check_root_switch(self, state):
        manager = state.manager
        root_meta = manager.node_meta.get(manager.root_gfn)
        if root_meta is None:
            raise InvariantViolation(
                NESTED_SUBTREES, "guest root node is untracked",
                pid=state.pid, root_gfn=manager.root_gfn)
        root_nested = root_meta.mode == NODE_NESTED
        if root_nested != manager.root_switched:
            raise InvariantViolation(
                SWITCHING_BITS,
                "root switching bit disagrees with the root node's mode",
                pid=state.pid, root_mode=root_meta.mode,
                root_switched=manager.root_switched)
        if manager.root_switched and manager.spt.root.entries:
            raise InvariantViolation(
                NESTED_SUBTREES,
                "stale shadow entries survive under a switched root "
                "(the whole walk is nested; they must be dropped)",
                pid=state.pid,
                stale_indices=sorted(manager.spt.root.entries))

    # -- single-entry checks --------------------------------------------------

    def _check_switch_entry(self, state, spte, entry_level, va, path):
        manager = state.manager
        if not spte.guest_node:
            raise InvariantViolation(
                SWITCHING_BITS,
                "switching entry does not carry the guest_node flag; its "
                "frame would be walked as host-physical",
                pid=state.pid, va=va, level=entry_level, shadow_path=path)
        meta = manager.node_meta.get(spte.frame)
        if meta is None:
            raise InvariantViolation(
                SWITCHING_BITS,
                "switching entry names an untracked guest PT node",
                pid=state.pid, va=va, level=entry_level, frame=spte.frame,
                shadow_path=path)
        if meta.mode != NODE_NESTED:
            raise InvariantViolation(
                SWITCHING_BITS,
                "switching entry points at a shadow-mode node: the walk "
                "would carry a second switching boundary (at most one per "
                "walk path)",
                pid=state.pid, va=va, level=entry_level, node_mode=meta.mode,
                shadow_path=path)
        if meta.level != entry_level - 1:
            raise InvariantViolation(
                SWITCHING_BITS,
                "switching entry at level %d must name a level-%d guest "
                "node" % (entry_level, entry_level - 1),
                pid=state.pid, va=va, level=entry_level,
                target_level=meta.level, shadow_path=path)

    def _check_leaf(self, state, spte, leaf_level, va, path):
        """One shadow leaf against the composed guest ⊕ host translation."""
        manager = state.manager
        gpte, guest_level, guest_path = self._guest_walk(state, va, path)
        expected_gfn, expected_level = manager._leaf_backing_gfn(
            va, guest_level, gpte)
        if leaf_level != expected_level:
            raise InvariantViolation(
                SHADOW_COHERENCE,
                "shadow leaf granule disagrees with guest/host granules",
                pid=state.pid, va=va, shadow_level=leaf_level,
                expected_level=expected_level, shadow_path=path,
                guest_path=guest_path)
        expected_hfn, host_pte = manager.hostpt.backing(expected_gfn)
        if expected_hfn is None:
            raise InvariantViolation(
                SHADOW_COHERENCE,
                "shadow leaf maps a guest frame the host table does not back",
                pid=state.pid, va=va, gfn=expected_gfn, shadow_path=path,
                guest_path=guest_path)
        if spte.frame != expected_hfn:
            raise InvariantViolation(
                SHADOW_COHERENCE,
                "shadow leaf frame diverges from the guest ⊕ host composition",
                pid=state.pid, va=va, actual=spte.frame, expected=expected_hfn,
                gfn=expected_gfn, shadow_path=path, guest_path=guest_path)
        if spte.writable and not (gpte.writable and host_pte.writable):
            raise InvariantViolation(
                SHADOW_COHERENCE,
                "shadow leaf is write-enabled beyond the composed permissions",
                pid=state.pid, va=va, guest_writable=gpte.writable,
                host_writable=host_pte.writable, shadow_path=path,
                guest_path=guest_path)
        if spte.writable and not manager.ad_assist and not gpte.dirty:
            raise InvariantViolation(
                SHADOW_COHERENCE,
                "accessed/dirty protocol violated: shadow leaf write-enabled "
                "before the guest dirty bit is set (Section III-B)",
                pid=state.pid, va=va, shadow_path=path, guest_path=guest_path)
        if spte.dirty and not manager.ad_assist and not gpte.dirty:
            # With the Section IV assist the walker sets shadow dirty bits
            # directly, so the guest bit may legitimately lag behind.
            raise InvariantViolation(
                SHADOW_COHERENCE,
                "shadow leaf dirty bit set but the guest leaf is clean",
                pid=state.pid, va=va, shadow_path=path, guest_path=guest_path)

    def _guest_walk(self, state, va, shadow_path):
        """Software-walk the guest table for ``va``; every node on the
        path must be shadow-mode (else the shadow entry is stale
        coverage of a nested subtree). Returns (gpte, level, path)."""
        manager = state.manager
        gnode = manager._guest_node(manager.root_gfn)
        guest_path = []
        for glevel in range(ROOT_LEVEL, LEAF_LEVEL - 1, -1):
            meta = manager.node_meta.get(gnode.frame)
            if meta is None:
                raise InvariantViolation(
                    NESTED_SUBTREES, "guest PT node on a shadowed path is "
                    "untracked", pid=state.pid, va=va, frame=gnode.frame,
                    shadow_path=shadow_path, guest_path=guest_path)
            if meta.mode != NODE_SHADOW:
                raise InvariantViolation(
                    NESTED_SUBTREES,
                    "stale shadow coverage: a shadow entry resolves a VA "
                    "whose guest walk crosses a nested-mode node (the walk "
                    "should divert through a switching bit instead)",
                    pid=state.pid, va=va, node_level=meta.level,
                    node_mode=meta.mode, shadow_path=shadow_path,
                    guest_path=guest_path)
            index = (va >> LEVEL_SHIFTS[glevel]) & INDEX_MASK
            gpte = gnode.entries.get(index)
            guest_path.append(WalkStep(("gPT", glevel, index, gpte)))
            if gpte is None or not gpte.present:
                raise InvariantViolation(
                    SHADOW_COHERENCE,
                    "stale shadow entry: the guest table has no mapping here",
                    pid=state.pid, va=va, miss_level=glevel,
                    shadow_path=shadow_path, guest_path=guest_path)
            if gpte.huge or glevel == LEAF_LEVEL:
                return gpte, glevel, guest_path
            gnode = manager._guest_node(gpte.frame)
        raise SimulationError("guest walk fell off the table")  # pragma: no cover

    # -- scoped single-VA check ------------------------------------------------

    def check_va(self, state, va):
        """Validate the shadow walk path covering one VA (post-trap)."""
        manager = state.manager
        node = manager.spt.root
        path = []
        for level in range(ROOT_LEVEL, LEAF_LEVEL - 1, -1):
            index = (va >> LEVEL_SHIFTS[level]) & INDEX_MASK
            spte = node.entries.get(index)
            path.append(WalkStep(("sPT", level, index, spte)))
            if spte is None or not spte.present:
                return  # lazy shadow miss: nothing cached, nothing to check
            if spte.switching:
                self._check_switch_entry(state, spte, level, va, path)
                return
            if spte.huge or level == LEAF_LEVEL:
                base = va & ~(level_span_mask(level))
                self._check_leaf(state, spte, level, base, path)
                return
            node = self._shadow_child(state, spte, va, path)

    # -- node-mode map checks ---------------------------------------------------

    def _check_node_modes(self, state):
        """Mode inheritance + no stale shadow coverage of nested nodes."""
        manager = state.manager
        for gfn, meta in manager.node_meta.items():
            if gfn == manager.root_gfn or meta.parent_gfn is None:
                continue
            parent_meta = manager.node_meta.get(meta.parent_gfn)
            if parent_meta is None:
                continue  # parent freed; node is unreachable
            if parent_meta.mode == NODE_NESTED and meta.mode == NODE_SHADOW:
                raise InvariantViolation(
                    NESTED_SUBTREES,
                    "a shadow-mode node hangs under a nested parent; mode "
                    "switches move whole subtrees (Section III-C)",
                    pid=state.pid, node_gfn=gfn, node_level=meta.level,
                    parent_gfn=meta.parent_gfn)
            if (meta.mode == NODE_NESTED and parent_meta.mode == NODE_SHADOW
                    and meta.prefix is not None):
                entry = self._shadow_entry_at(manager, meta.level + 1,
                                              meta.prefix)
                if entry is not None and entry.present and not entry.switching:
                    raise InvariantViolation(
                        NESTED_SUBTREES,
                        "the shadow boundary entry over a nested node is a "
                        "regular entry, not a switching bit",
                        pid=state.pid, node_gfn=gfn, prefix=meta.prefix,
                        boundary_level=meta.level + 1)
                if (entry is not None and entry.present and entry.switching
                        and entry.frame != gfn):
                    raise InvariantViolation(
                        SWITCHING_BITS,
                        "the switching bit over a nested node names a "
                        "different guest node",
                        pid=state.pid, node_gfn=gfn, entry_frame=entry.frame,
                        prefix=meta.prefix)

    @staticmethod
    def _shadow_entry_at(manager, level, va):
        node = manager._descend(level, va)
        if node is None:
            return None
        return node.entries.get((va >> LEVEL_SHIFTS[level]) & INDEX_MASK)

    # -- TLB coherence -----------------------------------------------------------

    def _check_tlb(self, state):
        if state.proc is None:
            return
        asid = state.proc.asid
        # A page cached in several arrays (L1 and L2) has one composed
        # translation: walk for it once per sweep.
        composed = {}
        for entry in self.vmm.mmu.hierarchy.iter_entries():
            if entry.asid == asid:
                self._check_tlb_entry(state, entry, composed)

    def _check_tlb_va(self, state, va):
        if state.proc is None:
            return
        for entry in self.vmm.mmu.hierarchy.peek_entries(state.proc.asid, va):
            self._check_tlb_entry(state, entry, {})

    def _check_tlb_entry(self, state, entry, composed):
        """One cached entry against the composed guest ⊕ host mapping of
        its page; ``composed`` memoizes (gpte, gfn, hfn) by VA."""
        va = entry.vpn << entry.page_shift
        known = composed.get(va)
        if known is None:
            # One guest walk yields both the frame and the write bit.
            gpte, level = state.proc.page_table.lookup(va)
            if gpte is None:
                raise InvariantViolation(
                    TLB_COHERENCE,
                    "stale TLB entry: the guest table no longer maps this "
                    "page", pid=state.pid, va=va, entry=repr(entry))
            gfn = gpte.frame + ((va & level_span_mask(level)) >> 12)
            hfn = self.vmm.hostpt.translate(gfn)
            if hfn is None:
                raise InvariantViolation(
                    TLB_COHERENCE,
                    "stale TLB entry: the host table no longer backs this "
                    "frame", pid=state.pid, va=va, gfn=gfn, entry=repr(entry))
            known = composed[va] = (gpte, gfn, hfn)
        gpte, gfn, hfn = known
        if entry.frame != hfn:
            raise InvariantViolation(
                TLB_COHERENCE,
                "TLB entry frame diverges from the composed translation",
                pid=state.pid, va=va, actual=entry.frame, expected=hfn,
                gfn=gfn, entry=repr(entry))
        if entry.writable and not gpte.writable:
            raise InvariantViolation(
                TLB_COHERENCE,
                "write-enabled TLB entry over a read-only (or absent) "
                "guest mapping",
                pid=state.pid, va=va, entry=repr(entry))


def level_span_mask(level):
    """Mask of the VA bits below ``level``'s entry span."""
    return (1 << LEVEL_SHIFTS[level]) - 1
