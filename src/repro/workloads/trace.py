"""Operation-trace recording and replay.

Wrapping a :class:`~repro.core.simulator.MachineAPI` in a
:class:`TraceRecorder` captures the exact operation stream a workload
issued; :func:`replay` re-executes it against any other machine. Because
the guest kernel is deterministic, replay reproduces identical virtual
addresses — giving a hard guarantee that two configurations saw exactly
the same work, the property the paper's cross-mode comparisons and
two-step methodology depend on.
"""

from repro.common.errors import SimulationError

ACCESS = "A"
SPAWN = "P"
EXIT = "X"
MMAP = "M"
MUNMAP = "U"
FORK = "F"
SWITCH = "S"
DEDUP = "D"
RECLAIM = "R"
MEASURE = "T"
SETTLE = "Z"


class TraceRecorder:
    """Records every MachineAPI call while forwarding it."""

    def __init__(self, api):
        self._api = api
        self.records = []

    # Processes are referred to by spawn order, not pid, so a replay on
    # a fresh machine resolves them independently.
    def _proc_index(self, proc):
        return self._procs.index(proc)

    @property
    def _procs(self):
        if not hasattr(self, "_proc_list"):
            self._proc_list = []
        return self._proc_list

    @property
    def current(self):
        return self._api.current

    def read(self, va):
        self.records.append((ACCESS, va, False))
        return self._api.read(va)

    def write(self, va):
        self.records.append((ACCESS, va, True))
        return self._api.write(va)

    def access(self, va, is_write):
        self.records.append((ACCESS, va, bool(is_write)))
        return self._api.access(va, is_write)

    def access_many(self, vas, writes=None):
        """Record one ACCESS entry per op, exactly as per-op calls would."""
        vas = list(vas)
        writes = [False] * len(vas) if writes is None else list(writes)
        self.records.extend((ACCESS, va, bool(w)) for va, w in zip(vas, writes))
        self._api.access_many(vas, writes)

    def spawn(self, code_pages=None):
        proc = self._api.spawn(code_pages=code_pages)
        self._procs.append(proc)
        self.records.append((SPAWN, code_pages))
        return proc

    def exit(self, proc):
        self.records.append((EXIT, self._proc_index(proc)))
        return self._api.exit(proc)

    def mmap(self, size, writable=True, kind="anon", populate=False, proc=None):
        va = self._api.mmap(size, writable=writable, kind=kind,
                            populate=populate, proc=proc)
        self.records.append((MMAP, size, writable, kind, populate, va))
        return va

    def munmap(self, va, size, proc=None):
        self.records.append((MUNMAP, va, size))
        return self._api.munmap(va, size, proc=proc)

    def fork(self, proc=None):
        child = self._api.fork(proc=proc)
        self._procs.append(child)
        self.records.append((FORK,))
        return child

    def switch_to(self, proc):
        self.records.append((SWITCH, self._proc_index(proc)))
        return self._api.switch_to(proc)

    def dedup(self, va, size, group=2, proc=None):
        self.records.append((DEDUP, va, size, group))
        return self._api.dedup(va, size, group=group, proc=proc)

    def reclaim(self, pages, proc=None):
        self.records.append((RECLAIM, pages))
        return self._api.reclaim(pages, proc=proc)

    def settle(self, intervals=2):
        self.records.append((SETTLE, intervals))
        self._api.settle(intervals)

    def start_measurement(self):
        self.records.append((MEASURE,))
        self._api.start_measurement()


def record(workload, api):
    """Run ``workload`` against ``api``, returning its operation trace."""
    recorder = TraceRecorder(api)
    workload.execute(recorder)
    return recorder.records


def replay(records, api):
    """Re-execute a recorded trace on a fresh machine.

    Verifies determinism: replayed mmaps must land at the recorded
    addresses (they do, because the guest kernel is deterministic).
    Each run of consecutive ACCESS records is issued as one
    ``access_many`` batch.
    """
    procs = []
    vas = []
    writes = []
    for entry in records:
        kind = entry[0]
        if kind == ACCESS:
            vas.append(entry[1])
            writes.append(entry[2])
            continue
        if vas:
            api.access_many(vas, writes)
            vas = []
            writes = []
        if kind == SPAWN:
            procs.append(api.spawn(code_pages=entry[1]))
        elif kind == EXIT:
            api.exit(procs[entry[1]])
        elif kind == MMAP:
            _k, size, writable, region_kind, populate, recorded_va = entry
            va = api.mmap(size, writable=writable, kind=region_kind,
                          populate=populate)
            if va != recorded_va:
                raise SimulationError(
                    "replay divergence: mmap returned %#x, trace had %#x"
                    % (va, recorded_va)
                )
        elif kind == MUNMAP:
            api.munmap(entry[1], entry[2])
        elif kind == FORK:
            procs.append(api.fork())
        elif kind == SWITCH:
            api.switch_to(procs[entry[1]])
        elif kind == DEDUP:
            api.dedup(entry[1], entry[2], group=entry[3])
        elif kind == RECLAIM:
            api.reclaim(entry[1])
        elif kind == MEASURE:
            api.start_measurement()
        elif kind == SETTLE:
            api.settle(entry[1])
        else:
            raise SimulationError("unknown trace record %r" % (entry,))
    if vas:
        api.access_many(vas, writes)
