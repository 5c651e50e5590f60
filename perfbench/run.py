"""End-to-end and per-layer benchmark of the agile-paging simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_steady --seed 1 --seconds 55 --trace 0

A run repeats one workload's unit (see ``units.py``) while whole units
fit in ``--seconds`` (at least one), checks every unit's results, and
prints each metric with its unit, then one JSON line. ``--trace 0``
reports the end-to-end metrics of untraced units. ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
of the traced ones, and writes the traced spans to
``.perfbench_out/``. Exit status: 0 when every check passed, 1 when a
check failed, 2 when the simulator sources are missing.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig5_steady", "fuzz_consolidated")
#: A seed not used while tuning; later performance claims must hold on
#: it as well as on the seeds they were developed with.
HELD_OUT_SEED = 977
#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 5
#: What a fresh interpreter imports before it can run a unit.
IMPORTS = ("import sys, time; sys.path[:0] = %r; "
           "start = time.process_time(); "
           "import perfbench.bench, perfbench.units; "
           "print(time.process_time() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed (held-out seed: %d)" % HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole units while they fit in this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(paths):
    """CPU seconds a fresh interpreter spends importing the simulator."""
    done = subprocess.run([sys.executable, "-c", IMPORTS % (paths,)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no simulator sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    paths = [os.path.join(ROOT, "src"), ROOT]
    sys.path[:0] = paths

    from perfbench.bench import (
        END_TO_END,
        PER_LAYER,
        Bench,
        report,
        trace_lines,
    )
    from perfbench.checks import load_digests
    from perfbench.units import UNITS

    bench = Bench(UNITS[args.workload], args.seed)
    imports = [import_seconds(paths) for _ in range(SETUP_PROBES)]
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    bench.measure(args.seconds, args.trace)
    status = bench.check_digests(load_digests())

    if args.trace:
        metrics, table = bench.per_layer(), PER_LAYER
        lines = trace_lines(*bench.export_trace())
    else:
        metrics, table = bench.end_to_end(imports, setups), END_TO_END
        lines = []
    print("\n".join(lines + report(bench, table, metrics, status)))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
