"""Ablation: the interpreter's compile-once pipeline.

Widget -command strings, bindings, and timer scripts are evaluated
over and over; because Tcl values are immutable strings, a script can
be compiled once into pre-resolved substitution plans
(src/repro/tcl/compile.py) and re-executed cheaply.  This is the
design choice that keeps "hundreds of Tcl commands within a human
response time" cheap on an interpreter that otherwise re-parses
everything.

``Interp(compile_enabled=False)`` ablates the whole pipeline — every
eval re-parses and re-substitutes the script, and every expression is
re-parsed into the same AST the cache would have returned — mirroring
``ResourceCache(enabled=False)`` on the Tk side.
"""

import time

from repro.tcl import Interp

from conftest import print_table

SCRIPT = 'set total [expr $total + [lindex {3 1 4 1 5} 2]]'
ROUNDS = 200


def run_repeatedly(interp, rounds=ROUNDS):
    interp.eval("set total 0")
    for _ in range(rounds):
        interp.eval(SCRIPT)
    return interp.eval("set total")


def _measure(interp):
    run_repeatedly(interp)              # warm the compile cache
    best = None
    for _ in range(3):
        start = time.perf_counter()
        run_repeatedly(interp)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_compile_pipeline_speedup(benchmark):
    compiled = Interp()
    ablated = Interp(compile_enabled=False)

    with_compile = _measure(compiled)
    without_compile = _measure(ablated)
    benchmark(run_repeatedly, Interp())
    print_table(
        "Ablation: compile-once pipeline (%d evals of one command)"
        % ROUNDS,
        ("Configuration", "Time"),
        [("compilation ON", "%.3f ms" % (with_compile * 1e3)),
         ("compilation OFF", "%.3f ms" % (without_compile * 1e3)),
         ("speedup", "%.1fx"
          % (without_compile / max(with_compile, 1e-9)))])
    # The compiled path must be strictly faster than the ablated path.
    assert with_compile < without_compile


def test_compile_cache_counters():
    """The pipeline's own statistics show the cache is doing the work."""
    interp = Interp()
    run_repeatedly(interp)
    assert interp.compile_misses >= 1
    assert interp.compile_hits > interp.compile_misses
    assert interp.cmd_count >= ROUNDS


def test_ablated_semantics_identical():
    """compile_enabled=False changes speed, never results."""
    assert run_repeatedly(Interp()) == \
        run_repeatedly(Interp(compile_enabled=False))


def test_repeated_command_latency(benchmark):
    """The steady-state cost of re-evaluating a compiled script."""
    interp = Interp()
    interp.eval("set total 0")
    interp.eval(SCRIPT)          # prime the cache
    benchmark(interp.eval, SCRIPT)
