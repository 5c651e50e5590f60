"""Content-addressed on-disk cache of cell results.

Layout::

    <cache_dir>/<fingerprint[:16]>/<cell_key>.json

where ``fingerprint`` is the :mod:`repro.runner.fingerprint` hash of the
simulator source and ``cell_key`` is :meth:`CellSpec.cell_key`. An entry
stores the spec, the fingerprint, and the full-fidelity
:meth:`RunMetrics.to_dict` payload, so a hit reconstructs metrics
bit-identical to a fresh simulation.

Invalidation rules (see docs/runner.md):

* change any override, seed, ops, mode, page size, or workload → new
  cell key → miss;
* change any ``*.py`` under ``src/repro`` → new fingerprint → the whole
  old generation is dead (``prune()`` deletes it);
* a corrupted or unreadable entry is deleted and treated as a miss —
  the cell is recomputed, never trusted.

Writes are atomic (temp file + rename) so a killed worker can't leave a
half-written entry that later parses as valid JSON.
"""

import json
import os
import shutil
import tempfile

from repro.core.metrics import RunMetrics
from repro.runner.fingerprint import code_fingerprint

ENTRY_VERSION = 1


class ResultCache:
    """On-disk cell-result cache keyed by (source fingerprint, cell key)."""

    def __init__(self, path, fingerprint=None):
        self.path = os.path.abspath(path)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0

    # -- paths ----------------------------------------------------------------

    @property
    def generation_dir(self):
        return os.path.join(self.path, self.fingerprint[:16])

    def entry_path(self, spec):
        return os.path.join(self.generation_dir, spec.cell_key() + ".json")

    # -- lookup/store ---------------------------------------------------------

    def get(self, spec):
        """The cached :class:`RunMetrics` for ``spec``, or None on miss.

        Any defect in the entry — unreadable file, bad JSON, wrong
        fingerprint or key, malformed metrics, metrics that break an
        accounting identity (:meth:`RunMetrics.check`) — deletes it and
        reports a miss, so corruption degrades to recomputation, never
        to a crash or a stale result.
        """
        path = self.entry_path(spec)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry["version"] != ENTRY_VERSION:
                raise ValueError("entry version %r" % (entry["version"],))
            if entry["fingerprint"] != self.fingerprint:
                raise ValueError("fingerprint mismatch")
            if entry["cell_key"] != spec.cell_key():
                raise ValueError("cell key mismatch")
            metrics = RunMetrics.from_dict(entry["metrics"])
            metrics.check()
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.corrupt += 1
            self.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return metrics

    def put(self, spec, metrics):
        """Store one result atomically."""
        entry = {
            "version": ENTRY_VERSION,
            "fingerprint": self.fingerprint,
            "cell_key": spec.cell_key(),
            "spec": spec.as_dict(),
            "metrics": metrics.to_dict(),
        }
        os.makedirs(self.generation_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.generation_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_path, self.entry_path(spec))
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, spec=None):
        """Drop one entry (or, with ``spec=None``, the whole cache dir)."""
        if spec is not None:
            try:
                os.remove(self.entry_path(spec))
            except OSError:
                pass
            return
        shutil.rmtree(self.path, ignore_errors=True)

    def prune(self):
        """Delete generations whose source fingerprint is no longer current."""
        keep = os.path.basename(self.generation_dir)
        try:
            generations = os.listdir(self.path)
        except OSError:
            return 0
        removed = 0
        for name in generations:
            candidate = os.path.join(self.path, name)
            if name != keep and os.path.isdir(candidate):
                shutil.rmtree(candidate, ignore_errors=True)
                removed += 1
        return removed

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
        }

    def __repr__(self):
        return "ResultCache(%r, generation=%s, %r)" % (
            self.path, self.fingerprint[:16], self.stats())
