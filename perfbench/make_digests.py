"""Recompute the committed output digests of the benchmark.

Run from the repository root after a change that is meant to alter
simulated results (never to make a failing check pass)::

    python3 perfbench/make_digests.py                 # every workload
    python3 perfbench/make_digests.py fig5_steady ... # some workloads

Each workload's unit runs once per seed in ``SEEDS`` (the held-out seed
included); a digest is written only when every check of that unit
passed.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.bench import Bench  # noqa: E402
from perfbench.checks import DIGESTS_PATH, load_digests  # noqa: E402
from perfbench.run import HELD_OUT_SEED  # noqa: E402
from perfbench.units import UNITS  # noqa: E402

SEEDS = tuple(range(16)) + (HELD_OUT_SEED,)


def main(argv):
    names = argv or list(UNITS)
    fresh = {}
    for name in names:
        per_seed = fresh[name] = {}
        for seed in SEEDS:
            bench = Bench(UNITS[name], seed)
            record = bench.run_unit(traced=False)
            if bench.failures:
                print("%s seed %d FAILED:\n  %s"
                      % (name, seed, "\n  ".join(bench.failures)))
                return 1
            per_seed[str(seed)] = record["digest"]
            print("%s seed %d: %s" % (name, seed, record["digest"]),
                  flush=True)
    committed = {name: per_seed for name, per_seed in load_digests().items()
                 if name in UNITS}
    committed.update(fresh)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(committed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
