"""Output checks made from outside the simulator.

Every unit's returned results are digested, and every ``RunMetrics`` is
checked against the simulator's accounting identities:

* cycle conservation: ``total = ideal + walk + tlb_l2 + vmm + guest_fault``,
  plus a known adjustment: the cycles a fuzz machine idles in
  ``settle_policies`` (a declared warm-up sink, counted by no counter,
  because those machines never start measuring), minus the balloon
  revocations a consolidated VM is charged while descheduled;
* ``sum(trap_cycles) == vmm_cycles``;
* ``ops == reads + writes``.
"""

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def digest(records):
    """SHA-256 of the canonical JSON of a unit's results."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def accounting_errors(metrics):
    """One line per identity a ``(RunMetrics, adjust_cycles)`` pair breaks."""
    errors = []
    for run, adjust in metrics:
        parts = (run.ideal_cycles + run.walk_cycles + run.tlb_l2_cycles
                 + run.vmm_cycles + run.guest_fault_cycles + adjust)
        where = "%s/%s" % (run.label, run.mode)
        if run.total_cycles != parts:
            errors.append("%s: total_cycles %d != components %d"
                          % (where, run.total_cycles, parts))
        traps = sum(run.trap_cycles.values())
        if traps != run.vmm_cycles:
            errors.append("%s: sum(trap_cycles) %d != vmm_cycles %d"
                          % (where, traps, run.vmm_cycles))
        if run.ops != run.reads + run.writes:
            errors.append("%s: ops %d != reads %d + writes %d"
                          % (where, run.ops, run.reads, run.writes))
    return errors


def load_digests(path=DIGESTS_PATH):
    """Committed digests: ``{workload: {str(seed): hex}}``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
