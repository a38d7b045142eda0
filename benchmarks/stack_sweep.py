"""Entry-depth sweep of the ``tcl_compute`` workload.

CPython 3.11 keeps Python frames on a per-thread data stack made of
16 KB chunks.  A Tcl interpreter that recurses in Python can oscillate
across a chunk boundary, and then maps and unmaps a chunk on every
crossing, so its op time depends on the Python stack depth it was
entered at, not only on the code.  This script runs ``tcl_compute``
ops (``perfbench/workloads.py``, imported as is) under 0, 5, ..., 195
extra Python frames and prints, for each depth, the median wall ms of
an op and the minor page faults per op (``getrusage(RUSAGE_SELF)``),
then the mean of both over all depths.  A VM whose Python stack stays
flat reads the same at every depth.

Usage, from the root of a checkout::

    python3 benchmarks/stack_sweep.py [--ops N] [--quick]

``--quick`` runs 2 depths x 2 ops, as a smoke test.  Times are raw
wall time on the host that runs the script; compare trees by running
them alternately on the same host.
"""

import argparse
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import WORKLOADS  # noqa: E402

DEPTHS = tuple(range(0, 200, 5))


def at_depth(depth: int, fn):
    """Call ``fn`` under ``depth`` extra Python frames."""
    if depth == 0:
        return fn()
    return at_depth(depth - 1, fn)


def sweep(depths, ops: int, seed: int = 1):
    """``(depth, median op ms, minor faults per op)`` for each depth."""
    workload = WORKLOADS["tcl_compute"](seed, ROOT)
    workload.setup()
    for index in range(workload.warmup):
        workload.op(index)
    rows = []
    index = 0
    for depth in depths:
        times = []
        faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(ops):
            def one(index=index):
                started = time.perf_counter_ns()
                workload.op(index)
                elapsed = time.perf_counter_ns() - started
                if not workload.check(index):
                    raise SystemExit("tcl_compute op %d gave %r"
                                     % (index, workload.result))
                return elapsed
            times.append(at_depth(depth, one) / 1e6)
            index += 1
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt \
            - faults_before
        rows.append((depth, statistics.median(times), faults / ops))
    workload.teardown()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=9,
                        help="ops per depth (default 9)")
    parser.add_argument("--quick", action="store_true",
                        help="2 depths x 2 ops")
    args = parser.parse_args(argv)
    depths, ops = (DEPTHS[:2], 2) if args.quick else (DEPTHS, args.ops)
    rows = sweep(depths, ops)
    print("%5s %10s %14s" % ("depth", "op_ms.p50", "minflt_per_op"))
    for depth, ms, faults in rows:
        print("%5d %10.3f %14.1f" % (depth, ms, faults))
    print("mean  %10.3f %14.1f" % (
        statistics.mean(row[1] for row in rows),
        statistics.mean(row[2] for row in rows)))
    fault_values = [row[2] for row in rows]
    print("fault spread (max - min) %.1f" % (max(fault_values)
                                              - min(fault_values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
