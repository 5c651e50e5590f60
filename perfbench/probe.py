"""Light hooks that stay on in untraced runs.

They fire a few times per simulated machine (construction and
``start_measurement``), never per access, so they leave the measured
path as users run it. They give the end-to-end metrics that need a
boundary inside an entry point: the warm/settle phase, the number of
warm accesses, and the set-up time before the first simulated access.
"""

import time
from contextlib import contextmanager

from repro.core.machine import System


class SetupReached(BaseException):
    """Raised at the first simulated access of a set-up probe.

    A ``BaseException`` so that the runner's and the oracle's
    ``except Exception`` failure handling lets it through.
    """


class MachineProbe:
    """Tracks every :class:`System` built while installed.

    ``warm_intervals`` holds one CPU-time interval per machine, from its
    construction to its ``start_measurement``; a machine that never
    starts measuring (a fuzz oracle machine) is warm until the entry
    point that built it returns. ``warm_ops`` counts the accesses each
    machine made before its counters were reset.
    """

    def __init__(self):
        self.warm_intervals = []
        self.warm_ops = 0
        self._born = {}
        self._saved = None

    def __enter__(self):
        init = System.__dict__["__init__"]
        reset = System.__dict__["reset_counters"]

        def tracked_init(system, *args, **kwargs):
            started = time.process_time()
            init(system, *args, **kwargs)
            self._born[id(system)] = (started, system)

        def tracked_reset(system):
            entry = self._born.pop(id(system), None)
            if entry is not None:
                self.warm_intervals.append((entry[0], time.process_time()))
            self.warm_ops += system.ops
            reset(system)

        self._saved = (init, reset)
        System.__init__ = tracked_init
        System.reset_counters = tracked_reset
        return self

    def __exit__(self, *exc):
        System.__init__, System.reset_counters = self._saved
        return False

    def release_unmeasured(self):
        """Close the warm interval of every machine that never started
        measuring, and hand those machines back for checking."""
        now = time.process_time()
        machines = []
        for started, system in self._born.values():
            self.warm_intervals.append((started, now))
            machines.append(system)
        self._born.clear()
        return machines

    def warm_s(self):
        """CPU seconds covered by the union of the warm intervals."""
        total = 0.0
        reach = None
        for start, end in sorted(self.warm_intervals):
            if reach is None or start > reach:
                total += end - start
                reach = end
            elif end > reach:
                total += end - reach
                reach = end
        return total


@contextmanager
def stop_at_first_access():
    """Make the next simulated access raise :class:`SetupReached`."""
    access = System.__dict__["access"]

    def first_access(system, *args, **kwargs):
        raise SetupReached()

    System.access = first_access
    try:
        yield
    finally:
        System.access = access
