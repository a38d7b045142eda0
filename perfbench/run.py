"""The repository benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload button_churn --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (see
``perfbench/tracing.py``), plus the tracing overhead against an
untraced phase of the same run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed / attempted`` is the error rate: an op fails
when it raises or its check fails.

End-to-end metrics: ``op_ms.p50``/``op_ms.p95`` are ms per op,
``ops_per_s`` counts ops per second of the timed phase, ``send_ms.p50``
is the ms of one ``send`` (Table II row 2), ``setup_s`` is the time a
fresh interpreter takes to import the program plus the median of
several set-ups (build and warm-up ops), and ``peak_rss_mb`` is the peak
resident memory of the process.
Every time is wall time scaled to a reference host speed (see
:class:`HostSpeed`, and :func:`import_seconds` for the import); the
lines starting with ``#`` also give the unscaled medians.  Every thread
runs on one CPU, and automatic garbage collection stays on, with
everything set up before the timed phase frozen out of it.

``--plant`` adds a fixed busy-wait to one layer; it exists only for the
benchmark's own self-test (``perfbench/tests``), which requires the
comparison in ``perfbench/compare.py`` to flag it.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the end-to-end metrics (untraced run) and their units
END_TO_END = (("op_ms.p50", "ms"), ("op_ms.p95", "ms"),
              ("ops_per_s", "1/s"), ("send_ms.p50", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: per-op counts (traced run), over each workload's counted ops
COUNT_METRICS = (
    ("x11.xserver.requests_per_op", "count", "requests"),
    ("x11.xserver.round_trips_per_op", "count", "round_trips"),
    ("x11.wire.bytes_out_per_op", "B", "bytes_out"),
    ("x11.wire.bytes_in_per_op", "B", "bytes_in"),
    ("tk.events_per_op", "count", "events"),
    ("obs.journal.entries_per_op", "count", "journal_entries"),
)

#: set-up (build + warm-up) is repeated and its median reported
SETUP_REPEATS = 7
#: pairs of fresh interpreters timing an import (see import_seconds)
IMPORT_PAIRS = 9
#: what each of them runs, with its search path and modules
IMPORT_PROBE = """
import sys, time
sys.path[:0] = %r
started = time.perf_counter()
import %s
print(time.perf_counter() - started)
"""
#: what this script imports of the program
PROGRAM_MODULES = "tracing, workloads"
#: pure-Python standard modules the program does not import
REFERENCE_MODULES = ("logging, email.parser, http.client, xml.dom.minidom, "
                     "difflib, configparser, argparse, calendar, unittest")
#: seconds the reference modules take to import on the reference host
REFERENCE_IMPORT_S = 0.04
#: at least this many timed ops, so ten or more samples lie above p95
MIN_OPS = 220
#: share of a traced run spent untraced, as the overhead reference
UNTRACED_SHARE = 0.3
#: seconds between bursts of the send probe (workloads.SendProbe)
PROBE_EVERY = 0.5
#: traced ops whose raw spans are written out at the end
DUMP_OPS = 3
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: --plant name -> (module, class or None, attribute, busy-wait ns)
PLANTS = {
    "frame_size": ("repro.x11.wire", None, "frame_size", 10000),
    "journal_record": ("repro.obs.journal", "Journal", "record", 20000),
}


class HostSpeed:
    """How fast the host runs right now, against a fixed reference.

    The CPUs of a shared host are shared with other machines: for up to
    a minute at a time the same code runs up to 1.7 times slower, on
    every CPU at once, and raw medians of 20-second runs spread by half
    between runs.  So between ops (at most every :attr:`EVERY_NS`) the
    benchmark times a fixed loop of its own, with garbage collection
    off, and scales every time it reports by
    ``REFERENCE_NS / loop time``: times read as if the host always ran
    the loop in :attr:`REFERENCE_NS`.  The loop time is the median of
    the timings of the last :attr:`WINDOW_NS`, so one interrupted timing
    does not skew the ops around it, yet the factor follows a change of
    speed within that window even when ops are long and timings sparse.
    The loop builds and sorts dicts, lists and strings, the interpreter
    work the program does, so it slows down in step with the program;
    it is not the program's code, so no change to the program moves it.
    """

    REFERENCE_NS = 100000
    EVERY_NS = 20000000
    WINDOW_NS = 100000000
    #: timings in a row that :meth:`refresh` takes
    REFRESH = 5

    def __init__(self):
        self.loops = deque()
        self.factors = []
        self.refresh()

    @staticmethod
    def _loop_ns() -> int:
        start = time.perf_counter_ns()
        table = {}
        for value in range(200):
            table["k%d" % value] = [value, str(value * 7)]
        order = sorted(table.items(), key=lambda item: item[1][1])
        "".join(key for key, _ in order)
        return time.perf_counter_ns() - start

    def measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            loop_ns = min(self._loop_ns(), self._loop_ns())
        finally:
            if enabled:
                gc.enable()
        now = self.measured_at = time.perf_counter_ns()
        self.loops.append((now, loop_ns))
        while now - self.loops[0][0] > self.WINDOW_NS:
            self.loops.popleft()
        self.factor = self.REFERENCE_NS / statistics.median(
            loop for _, loop in self.loops)
        self.factors.append(self.factor)

    def refresh(self) -> None:
        """Time the loop several times in a row, so the factor is of
        this moment."""
        for _ in range(self.REFRESH):
            self.measure()

    def due(self) -> bool:
        return time.perf_counter_ns() - self.measured_at >= self.EVERY_NS


class Tally:
    """Ops attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.reported < 3:
            self.reported += 1
            print("FAILED %s" % what, file=sys.stderr)


def run_op(workload, index: int, tally: Tally):
    """Run, time and check one op; returns ``(start, end, send_ns)``."""
    tally.attempted += 1
    end, send_ns, ok = None, None, False
    start = time.perf_counter_ns()
    try:
        send_ns = workload.op(index)
        end = time.perf_counter_ns()
        ok = workload.check(index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    if end is None:
        end = time.perf_counter_ns()
    if not ok:
        tally.fail("%s op %d" % (workload.name, index))
    return start, end, send_ns


def import_once(modules: str, path) -> float:
    """Seconds a fresh interpreter takes to import ``modules``; the
    child is waited for."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE % (path, modules)], cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True)
    return float(child.stdout.split()[-1])


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program, scaled
    to the reference host.

    Import time is file reads, unmarshalling and module bodies, and it
    follows the host's slow phases only in part, so :class:`HostSpeed`
    over-corrects it: one import per run, scaled by that loop, put the
    medians of two run sets half apart.  Instead each import of the
    program is paired with one of :data:`REFERENCE_MODULES` in the next
    fresh interpreter, which slows in step with it, and the median ratio
    of the pairs is scaled by :data:`REFERENCE_IMPORT_S`.
    """
    program = [os.path.join(ROOT, "src"), HERE]
    ratios = [import_once(PROGRAM_MODULES, program)
              / import_once(REFERENCE_MODULES, [])
              for _ in range(IMPORT_PAIRS)]
    return statistics.median(ratios) * REFERENCE_IMPORT_S


def build(cls, seed: int, tally: Tally, speed: HostSpeed):
    """Set up a workload and run its warm-up; returns it and the scaled
    seconds that took."""
    gc.collect()
    workloads.reset_process_state()
    speed.refresh()
    factor = speed.factor
    started = time.perf_counter()
    workload = cls(seed, ROOT)
    workload.setup()
    for index in range(workload.warmup):
        run_op(workload, index, tally)
    took = time.perf_counter() - started
    speed.refresh()
    return workload, took * (factor + speed.factor) / 2


def diff(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def timed(workload, seconds: float, min_ops: int, tally: Tally,
          speed: HostSpeed, on_op=None, probe=None):
    """The timed phase: ops until ``seconds`` have passed and at least
    ``min_ops`` ran (capped at three times ``seconds``), and never fewer
    than the counted ops.

    Returns ``(op ms list, send ms list, busy seconds, counts)``, all
    times scaled by ``speed``.  Busy seconds cover the ops and their
    checks, not the host-speed loops or the send ``probe``, which runs
    a burst every :data:`PROBE_EVERY` seconds.  The counts cover the
    first ``workload.counted`` ops and are read between ops, so no op
    time includes them.
    """
    gc.collect()
    gc.freeze()
    op_ms, send_ms = [], []
    index = workload.warmup
    counted_end = index + workload.counted
    before = workload.counts()
    counts = None
    busy = 0.0
    began = time.perf_counter()
    deadline, cap = began + seconds, began + 3 * seconds
    next_probe = began
    try:
        while True:
            now = time.perf_counter()
            if counts is not None and (
                    now >= cap or (now >= deadline and len(op_ms) >= min_ops)):
                break
            if probe is not None and now >= next_probe:
                for sample, ok in probe.burst():
                    send_ms.append(sample * speed.factor / 1e6)
                    tally.attempted += 1
                    if not ok:
                        tally.fail("send probe")
                next_probe = time.perf_counter() + PROBE_EVERY
            step = time.perf_counter()
            factor = speed.factor
            start, end, sent = run_op(workload, index, tally)
            took = time.perf_counter() - step
            if speed.due():
                speed.measure()
            # an op longer than EVERY_NS may span a change of speed
            factor = (factor + speed.factor) / 2
            busy += took * factor
            op_ms.append((end - start) * factor / 1e6)
            if sent is not None:
                send_ms.append(sent * factor / 1e6)
            if on_op is not None:
                on_op(start, end, factor)
            index += 1
            if index == counted_end:
                counts = diff(workload.counts(), before)
    finally:
        gc.unfreeze()
    return op_ms, send_ms, busy, counts


def p50(samples) -> float:
    return statistics.median(samples)


def p95(samples) -> float:
    return statistics.quantiles(samples, n=20)[18]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def install_plant(name: str) -> None:
    import importlib
    module_name, class_name, attribute, wait_ns = PLANTS[name]
    module = importlib.import_module(module_name)
    owner = module if class_name is None else getattr(module, class_name)
    original = getattr(owner, attribute)
    clock = time.perf_counter_ns

    def planted(*args, **kwargs):
        until = clock() + wait_ns
        while clock() < until:
            pass
        return original(*args, **kwargs)
    setattr(owner, attribute, planted)


def end_to_end(cls, seed: int, seconds: float, tally: Tally,
               speed: HostSpeed):
    """Untraced run: the metrics a user of the toolkit would see."""
    import_s = import_seconds()
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        workload, took = build(cls, seed, tally, speed)
        setups.append(took)
    probe = None if cls.reports_send else workloads.SendProbe()
    op_ms, send_ms, busy, counts = timed(workload, seconds, MIN_OPS, tally,
                                         speed, probe=probe)
    workload.teardown()
    if probe is not None:
        probe.close()
    tail_from = p95(op_ms)
    factor = p50(speed.factors)
    print("# %s seed=%d: %d timed ops (%d above p95), %d sends; host speed "
          "factor %.3f (%.3f-%.3f); unscaled op ms about p50 %.4f p95 %.4f; "
          "set-up s import %.4f + build %.4f (%.4f-%.4f); counts %s"
          % (cls.name, seed, len(op_ms),
             sum(1 for sample in op_ms if sample > tail_from), len(send_ms),
             factor, min(speed.factors), max(speed.factors),
             p50(op_ms) / factor, tail_from / factor, import_s,
             p50(setups), min(setups), max(setups), counts))
    values = {
        "op_ms.p50": p50(op_ms),
        "op_ms.p95": tail_from,
        "ops_per_s": len(op_ms) / busy,
        "send_ms.p50": p50(send_ms),
        "setup_s": import_s + p50(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


class LayerTotals:
    """Per-layer self time and calls, summed over traced ops."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.self_ns = [0.0] * len(tracing.LAYERS)
        self.calls = [0] * len(tracing.LAYERS)
        self.uncovered = 0.0
        self.wall = 0.0
        self.ops = 0
        self.dump = []

    def add(self, start: int, end: int, factor: float) -> None:
        spans = self.recorder.take()
        self_ns, calls, uncovered = tracing.self_times(
            spans, self.recorder.sites, (start, end))
        for layer, value in enumerate(self_ns):
            self.self_ns[layer] += value * factor
            self.calls[layer] += calls[layer]
        self.uncovered += uncovered * factor
        self.wall += (end - start) * factor
        self.ops += 1
        if len(self.dump) < DUMP_OPS:
            self.dump.append((start, end, spans))

    def write(self, path: str) -> None:
        sites = self.recorder.sites
        ops = [{"start_ns": start, "end_ns": end, "spans": [
            {"id": sid, "parent": parent,
             "layer": tracing.LAYERS[sites[site][0]],
             "name": sites[site][1], "start_ns": begin, "end_ns": finish,
             "thread": thread}
            for sid, parent, site, begin, finish, thread in spans]}
            for start, end, spans in self.dump]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"ops": ops}, out)


def per_layer(cls, seed: int, seconds: float, tally: Tally,
              speed: HostSpeed):
    """Traced run: where each op's time goes, layer by layer.

    An untraced phase runs first as the overhead reference; wrappers are
    installed only afterwards, and before the traced phase builds
    anything.  Both phases must produce the same counts.
    """
    workload, _ = build(cls, seed, tally, speed)
    plain_ms, _, _, plain_counts = timed(
        workload, seconds * UNTRACED_SHARE, workload.counted, tally, speed)
    workload.teardown()

    recorder = tracing.Recorder().install()
    try:
        workload, _ = build(cls, seed, tally, speed)
        totals = LayerTotals(recorder)
        recorder.take()
        traced_ms, _, _, counts = timed(
            workload, seconds * (1 - UNTRACED_SHARE), workload.counted,
            tally, speed, on_op=totals.add)
        workload.teardown()
    finally:
        recorder.uninstall()
    totals.write(os.path.join(OUT_DIR, "spans-%s-seed%d.json"
                              % (cls.name, seed)))
    if counts != plain_counts:
        tally.fail("counts: traced %s != untraced %s"
                   % (counts, plain_counts))

    values = {}
    ops = totals.ops
    for layer, name in enumerate(tracing.LAYERS):
        values[name + ".self_ms_per_op"] = metric(
            totals.self_ns[layer] / ops / 1e6, "ms")
        values[name + ".calls_per_op"] = metric(
            totals.calls[layer] / ops, "count")
    uncovered_pct = 100.0 * totals.uncovered / totals.wall
    overhead_pct = 100.0 * (p50(traced_ms) / p50(plain_ms) - 1)
    values["uncovered_pct"] = metric(uncovered_pct, "%")
    values["trace_overhead_pct"] = metric(overhead_pct, "%")
    for name, unit, key in COUNT_METRICS:
        values[name] = metric(counts[key] / cls.counted, unit)
    values["x11.display.coalesced_ratio"] = metric(
        ratio(counts["coalesced"], counts["requests"]), "ratio")
    values["tk.cache.hit_ratio"] = metric(
        ratio(counts["cache_hits"], counts["cache_misses"]), "ratio")
    values["tcl.compile.hit_ratio"] = metric(
        ratio(counts["compile_hits"], counts["compile_misses"]), "ratio")
    print("# %s seed=%d: %d traced ops, uncovered %.2f%%, overhead %.1f%%"
          % (cls.name, seed, ops, uncovered_pct, overhead_pct))
    for layer, name in enumerate(tracing.LAYERS):
        print("#   %-14s %6.2f%% of op time"
              % (name, 100.0 * totals.self_ns[layer] / totals.wall))
    return values


def ratio(part: int, rest: int) -> float:
    """``part / (part + rest)``; 0 when both are 0."""
    return part / (part + rest) if part + rest else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=sorted(PLANTS))
    args = parser.parse_args(argv)
    # One CPU for every thread.  The socket transport hands each frame
    # between the client thread and the server-host thread; left to the
    # scheduler, that hand-off runs on one CPU or across two from run to
    # run, and the op time nearly doubles between the two.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = HostSpeed()
    if args.plant:
        install_plant(args.plant)
    cls = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics = per_layer(cls, args.seed, args.seconds, tally, speed)
    else:
        metrics = end_to_end(cls, args.seed, args.seconds, tally, speed)
    # run hygiene: every socket host thread was shut down
    if threading.active_count() != 1:
        tally.fail("%d threads still running" % threading.active_count())
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tracing
        import workloads
    except ImportError as error:
        print("perfbench: cannot import the program from %s: %s"
              % (os.path.join(ROOT, "src"), error), file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
