"""Workload base classes.

A workload is plain Python code programmed against the
:class:`repro.core.simulator.MachineAPI`: it spawns processes, maps
memory, and issues the access stream. All randomness comes from a seeded
generator, so the same workload object class produces an identical
operation stream on every configuration — the property the paper's
two-step methodology (and any fair cross-mode comparison) relies on.
"""

import numpy as np

from repro.common.params import FOUR_KB


class Workload:
    """Base workload: named, sized, deterministic.

    Randomness is injected: either pass a ``seed`` (the default; every
    :meth:`reset` rewinds to the identical stream) or pass an explicit
    pre-seeded ``rng`` with ``seed=None`` for a single-shot stream the
    caller controls (e.g., sharing one generator across workloads).
    Constructing an *unseeded* stream is impossible by design — the
    REPRO101 lint rule enforces the same property statically.
    """

    name = "workload"
    description = ""

    def __init__(self, ops=100_000, seed=42, page_size=FOUR_KB, rng=None):
        if seed is None and rng is None:
            raise ValueError(
                "workloads must be deterministic: pass a seed or a "
                "pre-seeded rng")
        self.ops = ops
        self.seed = seed
        self.page_size = page_size
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    @property
    def granule(self):
        return self.page_size.bytes

    def execute(self, api):
        raise NotImplementedError

    def reset(self):
        """Restore the deterministic starting state for a fresh run.

        With an injected ``rng`` (``seed=None``) the stream cannot be
        rewound, so the generator continues — the caller owns it.
        """
        if self.seed is not None:
            self.rng = np.random.default_rng(self.seed)

    # -- helpers shared by the suite ------------------------------------------

    def pages_for(self, size_bytes):
        return max(1, size_bytes // self.granule)

    def region_access(self, api, base, page_indices, write_mask=None):
        """Issue one access per page index; ``write_mask`` marks writes."""
        indices = np.asarray(page_indices, dtype=np.int64)
        vas = (indices * self.granule + base).tolist()
        writes = None
        if write_mask is not None:
            writes = np.asarray(write_mask, dtype=bool).tolist()
        api.access_many(vas, writes)

    def warm_region(self, api, base, npages, write=True):
        """Touch every page once (demand-fault the region in)."""
        granule = self.granule
        api.access_many(range(base, base + npages * granule, granule),
                        [write] * npages)

    def __repr__(self):
        return "%s(ops=%d, seed=%r)" % (type(self).__name__, self.ops, self.seed)
