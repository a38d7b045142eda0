"""Observability overhead report and gate.

The instrumentation added by ``repro.obs`` sits on the interpreter's
hottest paths (every command invocation, every compile-cache probe,
every X request).  This harness measures the BENCH_interp interpreter
workloads in two configurations:

* ``obs_on``   — the shipping configuration: counters active, tracer
  present but not started (each instrumented site tests
  ``tracer.enabled`` and moves on).
* ``tracer_on``— the tracer started and collecting spans.

Both run in the same process with their timing blocks *interleaved*
round-robin (on/traced, on/traced, ...), so the ratio is immune both to
cross-machine variance and to CPU frequency drift during the run.  The
tracer's cost is the median per-round ratio; it is reported, not
gated.  Results go to ``BENCH_obs.json``; the committed means of
``BENCH_interp.json`` ride along as a reference.

The session journal is measured the same way on a GUI workload (a
button reconfigure + event-pump round): ``no_journal`` (a server that
never saw a journal), ``journal_off`` (a journal attached then
detached — the shipping default after ``obs journal stop``), and
``journal_on`` (actively recording).  ``journal_off`` must stay within
<3% of ``no_journal``, judged on the best per-round ratio (a noise
floor — a genuine systematic slowdown survives the min, a scheduler
spike does not) with the median ratio reported alongside; the
recording cost is reported, not gated.

The time-series flight recorder is measured the same way on the same
GUI workload: ``no_recorder`` (pristine server), ``recorder_off``
(started once then stopped — the tick hot path back to one dead
pointer test), and ``recorder_on`` at a worst-case 1 ms cadence.
``recorder_off`` shares the <3% gate; the sampling cost is reported.

Usage::

    PYTHONPATH=src python benchmarks/obs_report.py              # regenerate
    PYTHONPATH=src python benchmarks/obs_report.py --check      # CI gate
    PYTHONPATH=src python benchmarks/obs_report.py --dump-trace trace.json
"""

import gc
import io
import json
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.tcl import Interp  # noqa: E402
from repro.tk import TkApp  # noqa: E402
from repro.x11 import XServer  # noqa: E402

BENCH_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_obs.json")
INTERP_BENCH_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_interp.json")

#: The gate: journal_off and recorder_off vs a pristine server.
GATE_PCT = 3.0

#: interleaved rounds per workload; the best block per configuration
#: is kept, so one slow round (GC, scheduler) cannot skew either side
_ROUNDS = 15
_MIN_TIME = 0.08


def _calibrate(func) -> int:
    """Iterations needed for one timing block of ~_MIN_TIME seconds."""
    func()                                   # warm caches
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            func()
        if time.perf_counter() - start >= _MIN_TIME:
            return number
        number *= 4


def _measure_interleaved(thunks, baseline=0):
    """Interleaved timing of all configurations, blocks round-robin.

    The collector is paused during the timed blocks (and run once per
    round between them) so a cycle collection triggered by one
    configuration's garbage cannot land in another's timing block.

    Returns ``(bests, floors, medians)``: the best mean seconds per
    call for each thunk, and each thunk's overhead (percent) against
    ``thunks[baseline]`` as both the best and the median *per-round*
    ratio.  Each round times all configurations back to back, so a
    ratio within a round is unaffected by CPU frequency drift across
    the run.  The best ratio is a noise-floor estimate — a genuine
    systematic slowdown shows up in every round, so it survives the
    min; scheduler spikes from a noisy neighbour do not.  The gate
    uses the floor, the median rides along for context.
    """
    numbers = [_calibrate(thunk) for thunk in thunks]
    rounds = []
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(_ROUNDS):
            gc.collect()
            gc.disable()
            times = []
            for position, thunk in enumerate(thunks):
                start = time.perf_counter()
                for _ in range(numbers[position]):
                    thunk()
                elapsed = time.perf_counter() - start
                times.append(elapsed / numbers[position])
            rounds.append(times)
            if gc_was_enabled:
                gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    bests = [min(times[position] for times in rounds)
             for position in range(len(thunks))]
    floors = [
        (min(times[position] / times[baseline] for times in rounds)
         - 1.0) * 100.0
        for position in range(len(thunks))]
    medians = [
        (statistics.median(times[position] / times[baseline]
                           for times in rounds) - 1.0) * 100.0
        for position in range(len(thunks))]
    return bests, floors, medians


def _workloads():
    """(name, build(interp) -> thunk) for the BENCH_interp workloads."""

    def simple_command(interp):
        return lambda: interp.eval("set a 1")

    def proc_call(interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        return lambda: interp.eval("add 19 23")

    def expr_loop(interp):
        script = "set i 0\nwhile {$i < 100} {incr i}"
        return lambda: interp.eval(script)

    return [("simple_command", simple_command),
            ("proc_call", proc_call),
            ("expr_loop", expr_loop)]


def run_report() -> dict:
    report = {}
    for name, build in _workloads():
        traced_interp = Interp()
        traced_interp.obs.tracer.start()
        try:
            bests, _, medians = _measure_interleaved(
                [build(Interp()), build(traced_interp)])
        finally:
            traced_interp.obs.tracer.stop()
        on, traced = bests
        report[name] = {
            "obs_on_us": round(on * 1e6, 3),
            "tracer_on_us": round(traced * 1e6, 3),
            "tracer_overhead_pct": round(medians[1], 2),
        }
        print("%-16s on %9.3f us   traced %9.3f us (%+6.2f%%)"
              % (name, on * 1e6, traced * 1e6, medians[1]))
    return report


def _gui_app(name):
    server = XServer()
    app = TkApp(server, name=name)
    app.interp.stdout = io.StringIO()
    app.interp.eval("button .b -text ping\npack append . .b {top}")
    app.update()
    return server, app


def run_journal_report() -> dict:
    from repro.obs.journal import Journal
    from repro.obs.session import SessionSpec, start_recording

    pairs = [_gui_app("bench%d" % index) for index in range(3)]
    # journal_off: the machinery has been exercised and released —
    # the hot path must be back to one dead pointer test per request
    journal = Journal(clock=lambda: pairs[1][0].time_ms)
    journal.set_header(SessionSpec(name="bench-off"))
    pairs[1][0].attach_journal(journal)
    pairs[1][0].detach_journal()
    # a small ring keeps the recording configuration's steady-state
    # heap modest so it cannot distort the interleaved baselines
    start_recording(pairs[2][0], SessionSpec(name="bench-on"),
                    maxlen=4096)

    def build(pair):
        server, app = pair
        interp = app.interp
        state = [0]

        def thunk():
            # alternate the label so every round redraws and ships
            # real requests through the buffer
            state[0] ^= 1
            interp.eval(".b configure -text %s"
                        % ("ping" if state[0] else "pong"))
            app.update()
        return thunk

    try:
        bests, floors, medians = _measure_interleaved(
            [build(pair) for pair in pairs])
    finally:
        pairs[2][0].detach_journal()
    base, off, on = bests
    off_overhead, on_overhead = floors[1], medians[2]
    stats = {
        "no_journal_us": round(base * 1e6, 3),
        "journal_off_us": round(off * 1e6, 3),
        "journal_on_us": round(on * 1e6, 3),
        "off_overhead_pct": round(off_overhead, 2),
        "off_overhead_median_pct": round(medians[1], 2),
        "on_overhead_pct": round(on_overhead, 2),
    }
    print("%-16s none %8.3f us   off %8.3f us (%+5.2f%% median, "
          "%+5.2f%% floor)   recording %8.3f us (%+6.2f%%)"
          % ("journal", base * 1e6, off * 1e6, medians[1],
             off_overhead, on * 1e6, on_overhead))
    return stats


def run_recorder_report() -> dict:
    """Flight-recorder sampling cost on the GUI workload."""
    pairs = [_gui_app("rec%d" % index) for index in range(3)]
    # recorder_off: the machinery exercised and released — the tick
    # hot path must be back to one dead pointer test
    pairs[1][1].obs.start_recorder()
    pairs[1][1].obs.stop_recorder()
    # recorder_on: worst case, a sample every virtual millisecond
    pairs[2][1].obs.start_recorder(cadence_ms=1)

    def build(pair):
        server, app = pair
        interp = app.interp
        state = [0]

        def thunk():
            state[0] ^= 1
            interp.eval(".b configure -text %s"
                        % ("ping" if state[0] else "pong"))
            app.update()
        return thunk

    try:
        bests, floors, medians = _measure_interleaved(
            [build(pair) for pair in pairs])
    finally:
        pairs[2][1].obs.stop_recorder()
    recorder = pairs[2][1].obs.recorder
    base, off, on = bests
    stats = {
        "no_recorder_us": round(base * 1e6, 3),
        "recorder_off_us": round(off * 1e6, 3),
        "recorder_on_us": round(on * 1e6, 3),
        "off_overhead_pct": round(floors[1], 2),
        "off_overhead_median_pct": round(medians[1], 2),
        "sampling_overhead_pct": round(medians[2], 2),
        "cadence_ms": recorder.cadence_ms,
        "samples": recorder.samples_taken,
        "series": len(recorder.series),
    }
    print("%-16s none %8.3f us   off %8.3f us (%+5.2f%% median, "
          "%+5.2f%% floor)   sampling %8.3f us (%+6.2f%%, %d samples "
          "over %d series)"
          % ("recorder", base * 1e6, off * 1e6, medians[1], floors[1],
             on * 1e6, medians[2], recorder.samples_taken,
             len(recorder.series)))
    return stats


def check(journal: dict, recorder: dict) -> int:
    failures = []
    if journal["off_overhead_pct"] >= GATE_PCT:
        failures.append("journal_off")
    if recorder["off_overhead_pct"] >= GATE_PCT:
        failures.append("recorder_off")
    if failures:
        print("FAIL: released-instrumentation overhead >=%.1f%% in: %s"
              % (GATE_PCT, ", ".join(failures)))
        return 1
    print("OK: journal-off and recorder-off overhead <%.1f%%" % GATE_PCT)
    return 0


def dump_trace(filename: str) -> None:
    """Trace a button click end to end; write the full obs dump."""
    server = XServer()
    app = TkApp(server, name="obsdump")
    app.interp.stdout = io.StringIO()
    app.interp.eval("proc doClick {} {.b flash}")
    app.interp.eval('button .b -text Report -command {doClick}')
    app.interp.eval("bind .b <ButtonRelease-1> {set released 1}")
    app.interp.eval("pack append . .b {top}")
    app.update()
    app.obs.tracer.start(wire=True)
    window = app.window(".b")
    root_x, root_y = window.root_position()
    server.warp_pointer(root_x + 2, root_y + 2)
    server.press_button(1)
    server.release_button(1)
    app.update()
    app.obs.tracer.stop()
    with open(filename, "w") as handle:
        handle.write(app.obs.dump_json() + "\n")
    print("wrote %s (%d spans)" % (filename, len(app.obs.tracer.spans)))


def main(argv) -> int:
    argv = list(argv)
    if "--dump-trace" in argv:
        position = argv.index("--dump-trace")
        if position + 1 >= len(argv):
            print("error: --dump-trace needs a filename")
            return 1
        dump_trace(argv[position + 1])
        del argv[position:position + 2]
        if not argv:
            return 0
    checking = "--check" in argv
    report = run_report()
    journal = run_journal_report()
    recorder = run_recorder_report()
    if checking:
        return check(journal, recorder)
    output = {"gate_pct": GATE_PCT, "workloads": report,
              "journal": journal, "recorder": recorder}
    if os.path.exists(INTERP_BENCH_FILE):
        with open(INTERP_BENCH_FILE) as handle:
            committed = json.load(handle)
        output["bench_interp_reference"] = {
            name: stats["mean_us"] for name, stats in committed.items()
            if name in report}
    with open(BENCH_FILE, "w") as handle:
        json.dump(output, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % BENCH_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
