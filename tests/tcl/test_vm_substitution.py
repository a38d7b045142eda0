"""Command substitution compiled into the enclosing bytecode unit.

The VM lowers each ``[script]`` word, and each ``[script]`` operand
of a specialized expression, into the unit that uses it, and runs it,
like procedure calls and loop bodies, in the unit's one dispatch loop
instead of re-entering ``Interp.eval``.  That is a pure CPU
optimisation, so this file holds it to the tree walker
(``Interp(bytecode_enabled=False)``): a seeded generator builds
hundreds of scripts of nested substitutions, and every observable —
result or error message, ``errorInfo``, ``info cmdcount`` and the
final variables — must match.  The four invariants the optimisation
must keep (validity, depth, values, counters) each get a test of their
own, the Python stack is checked to stay flat as Tcl recursion deepens,
and a leak check makes sure no compiled code keeps a dead interpreter
alive.
"""

import gc
import random
import sys
import weakref

import pytest

from repro.tcl import Interp, TclError
from repro.tcl.expr import _AST_CACHE, _CmdNode, compile_expr


def metric(interp, name):
    return interp.obs.metrics.counter(name).value


# ---------------------------------------------------------------------------
# seeded script generator
# ---------------------------------------------------------------------------

PRELUDE = """\
proc f {n} {
    if {$n < 1} {return 0}
    return [expr {$n + [f [expr {$n - 1}]]}]
}
proc g {x {y 2}} {set t [expr {$x * $y}]; return $t}
proc h {args} {llength $args}
proc twice {v} {list $v $v}
set a 3
set b 7
set c -2
set l {}
array set arr {0 zero 1 one 2 two x ex}
"""

VARIABLES = ("a", "b", "c")


class ScriptGenerator:
    """Random Tcl built from nested substitutions.

    ``loop`` and ``proc`` track the context, so ``[break]`` and
    ``[continue]`` appear only inside loop bodies and ``[return]`` only
    inside procedure bodies (at script level they would escape
    ``eval`` as flow-control exceptions, in both tiers alike).
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.procs = 0
        self.loops = 0

    def counter(self) -> str:
        """A fresh loop counter, so nested loops always terminate."""
        self.loops += 1
        return "i%d" % self.loops

    def expr(self, depth: int) -> str:
        rng = self.rng
        choice = rng.randrange(9 if depth > 0 else 4)
        if choice == 0:
            return str(rng.randrange(-3, 10))
        if choice == 1:
            return "$" + rng.choice(VARIABLES)
        if choice == 2:
            return rng.choice(("1.5", "2.0", "0.25", "10"))
        if choice == 3:
            if depth > 0 and rng.randrange(2):
                # A quoted operand that runs a [script].
                return '"%s[%s]"' % (rng.choice(("", "1", "$a")),
                                     self.command(depth - 1, {}))
            return '"%s"' % rng.choice(("abc", "3", "x y"))
        if choice == 4:
            return "[%s]" % self.command(depth - 1, {})
        if choice == 5:
            op = rng.choice(("+", "-", "*", "/", "%", "<", "==", "!=",
                             ">=", "&", "|"))
            return "(%s %s %s)" % (self.expr(depth - 1), op,
                                   self.expr(depth - 1))
        if choice == 6:
            op = rng.choice(("&&", "||"))
            return "(%s %s %s)" % (self.expr(depth - 1), op,
                                   self.expr(depth - 1))
        if choice == 7:
            return "(%s ? %s : %s)" % (self.expr(depth - 1),
                                       self.expr(depth - 1),
                                       self.expr(depth - 1))
        return "%s(%s)" % (rng.choice(("abs", "int", "double")),
                           self.expr(depth - 1))

    def word(self, depth: int, ctx: dict) -> str:
        rng = self.rng
        choice = rng.randrange(7 if depth > 0 else 3)
        if choice == 0:
            return str(rng.randrange(0, 5))
        if choice == 1:
            return "$" + rng.choice(VARIABLES)
        if choice == 2:
            return rng.choice(("x", "{a b}", '"q r"'))
        if choice == 3:
            return "[expr {%s}]" % self.expr(depth)
        if choice == 4:
            # A word that mixes [script] with text.
            shape = rng.choice(('"<[%s]>"', "a[%s]$b",
                                '"[%s]$arr([llength $l])"'))
            return shape % self.command(depth - 1, ctx)
        if choice == 5:
            # An array index that runs a [script].
            return "$arr([%s])" % self.command(depth - 1, ctx)
        return "[%s]" % self.command(depth - 1, ctx)

    def command(self, depth: int, ctx: dict) -> str:
        """One command, usable as a statement or inside ``[...]``."""
        rng = self.rng
        var = rng.choice(VARIABLES)
        options = [
            lambda: "expr {%s}" % self.expr(depth),
            lambda: "set %s %s" % (var, self.word(depth, ctx)),
            lambda: "incr %s" % var,
            lambda: "f %d" % rng.randrange(0, 4),
            lambda: "g %s" % self.word(depth, ctx),
            lambda: "h %s %s" % (self.word(depth, ctx),
                                 self.word(depth, ctx)),
            lambda: "twice %s" % self.word(depth, ctx),
            lambda: "string length %s" % self.word(depth, ctx),
            lambda: "lappend l %s" % self.word(depth, ctx),
            lambda: "catch {%s} msg" % self.command(depth, ctx),
            lambda: "if {%s} {%s} else {%s}" % (
                self.expr(depth), self.command(depth - 1, ctx),
                self.command(depth - 1, ctx)),
            lambda: "list %s" % self.word(depth, ctx),
        ]
        if ctx.get("loop"):
            options.append(lambda: rng.choice(("break", "continue")))
        if ctx.get("proc"):
            options.append(lambda: "return %s" % self.word(depth, ctx))
        if depth <= 0:
            options = options[:4]
        return rng.choice(options)()

    def statement(self, depth: int, ctx: dict) -> str:
        rng = self.rng
        choice = rng.randrange(8)
        if choice == 0 and depth > 0:
            inner = dict(ctx, loop=True)
            i = self.counter()
            return ("set %s 0\nwhile {$%s < 3 && %s} {\n incr %s\n %s\n %s\n}"
                    % (i, i, self.expr(depth), i,
                       self.statement(depth - 1, inner),
                       self.statement(depth - 1, inner)))
        if choice == 1 and depth > 0:
            inner = dict(ctx, loop=True)
            i = self.counter()
            return ("for {set %s 0} {$%s < 3 && %s} {incr %s} {\n %s\n}"
                    % (i, i, self.expr(depth), i,
                       self.statement(depth - 1, inner)))
        if choice == 2 and depth > 0:
            inner = dict(ctx, loop=True)
            return ("foreach e [twice %s] {\n %s\n}"
                    % (self.word(depth, ctx),
                       self.statement(depth - 1, inner)))
        if choice == 3 and depth > 0 and not ctx.get("proc"):
            self.procs += 1
            name = "p%d" % self.procs
            inner = {"proc": True}
            body = "\n ".join(self.statement(depth - 1, inner)
                              for _ in range(2))
            return ("proc %s {v} {\n set a $v\n %s\n return [expr {%s}]\n}"
                    "\nset b [%s %s]" % (name, body, self.expr(depth),
                                        name, self.word(depth, ctx)))
        if choice == 4:
            return "catch {%s} msg" % self.statement(depth - 1, ctx)
        return self.command(depth, ctx)

    def script(self) -> str:
        lines = [self.statement(3, {})
                 for _ in range(self.rng.randrange(2, 6))]
        return PRELUDE + "\n".join(lines)


def run_tier(script: str, bytecode: bool) -> dict:
    """Everything a script run can show, for one tier."""
    interp = Interp(bytecode_enabled=bytecode)
    try:
        outcome = ("ok", interp.eval_top(script))
    except TclError as error:
        outcome = ("error", error.message,
                   interp.eval("set errorInfo"))
    variables = {}
    for name in sorted(interp.global_frame.variables):
        if interp.eval("array exists %s" % name) == "1":
            variables[name] = interp.eval("array get %s" % name)
        else:
            variables[name] = interp.get_var(name)
    return {"outcome": outcome, "cmdcount": interp.cmd_count,
            "variables": variables}


SEEDS = range(320)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_script_matches_tree_walker(seed):
    script = ScriptGenerator(seed).script()
    assert run_tier(script, True) == run_tier(script, False), script


def test_generator_covers_the_shapes():
    # The equivalence battery above is only as good as what it
    # generates: make sure the scripts really nest substitutions in
    # every position the VM compiles them.
    corpus = "\n".join(ScriptGenerator(seed).script() for seed in SEEDS)
    for shape in ("[expr {", "while {$i", "for {set i",
                  "if {", "[break]", "[continue]", "[return", "catch {",
                  "[f ", "? ", "&& ", "|| ", '"<[', "a[", "$arr([",
                  '"[', '"1[', '"$a['):
        assert shape in corpus, shape
    outcomes = [run_tier(ScriptGenerator(seed).script(), True)["outcome"][0]
                for seed in SEEDS[:80]]
    assert "ok" in outcomes and "error" in outcomes


# ---------------------------------------------------------------------------
# the four invariants
# ---------------------------------------------------------------------------

TIERS = pytest.mark.parametrize("bytecode", [True, False],
                                ids=["vm", "tree"])

ALL_TIERS = pytest.mark.parametrize(
    "options", [{}, {"bytecode_enabled": False}, {"compile_enabled": False}],
    ids=["vm", "tree", "nocompile"])


@TIERS
def test_validity_in_place_expr_sees_a_redefined_expr(bytecode):
    # The first word renames ``expr`` and defines a proc in its place;
    # the in-place ``[expr]`` of the second word must notice.
    interp = Interp(bytecode_enabled=bytecode)
    interp.eval("proc p {} {list [rename expr old_expr]"
                "[proc expr args {return mine}] [expr {1 + 1}]}")
    assert interp.eval("p") == "{} mine"


@TIERS
def test_validity_stale_stamp_is_noticed_within_one_command(bytecode):
    # ``p 0`` runs the in-place [expr] and stamps it valid; in ``p 1``
    # an earlier word of the same command redefines ``expr``, so that
    # stamp is stale by the time the [expr] word is reached.
    interp = Interp(bytecode_enabled=bytecode)
    interp.eval("proc p {flag} {list [if {$flag} {rename expr old_expr\n"
                "proc expr args {return mine}}] [expr {1 + 1}]}")
    assert interp.eval("p 0") == "{} 2"
    assert interp.eval("p 1") == "{} mine"


def test_validity_tracer_started_within_one_command_sees_the_expr():
    spans = []
    for bytecode in (True, False):
        interp = Interp(bytecode_enabled=bytecode)
        interp.eval("proc p {flag} {list [if {$flag} {obs trace start}]"
                    " [expr {1 + 1}]}")
        assert interp.eval("p 0") == "{} 2"
        before = metric(interp, "tcl.vm.dispatches")
        assert interp.eval("p 1") == "{} 2"
        if bytecode:
            # The script, the body, [if ...] and its body: once the
            # tracer runs, the [expr] takes the tree path, as
            # Interp.eval would, and dispatches nothing.
            assert metric(interp, "tcl.vm.dispatches") - before == 4
        interp.eval("obs trace stop")
        spans.append([(span.kind, span.name)
                      for span in interp.obs.tracer.spans])
    assert ("cmd", "expr") in spans[0]
    assert spans[0] == spans[1]


def test_validity_in_place_expr_reoptimizes_after_restore():
    interp = Interp()
    interp.eval("proc p {x} {set y [expr {$x * 2}]}")
    assert interp.eval("p 4") == "8"
    interp.eval("rename expr real_expr")
    interp.eval("proc expr args {return shadow}")
    assert interp.eval("p 4") == "shadow"
    interp.eval("rename expr {}")
    interp.eval("rename real_expr expr")
    assert interp.eval("p 5") == "10"


DEPTH_SHAPES = {
    "return_expr_of_call": (
        "proc f {n} {global deepest; set deepest $n\n"
        "return [expr {[f [expr {$n + 1}]] + 1}]}", 332),
    "set_of_call": (
        "proc f {n} {global deepest; set deepest $n\n"
        "set x [f [expr {$n + 1}]]}", 499),
    "plain_call": (
        "proc f {n} {global deepest; set deepest $n\nincr n; f $n}", 998),
    # Loop bodies take a level per iteration, like if bodies.
    "while_body": (
        "proc f {n} {global deepest; set deepest $n\n"
        "while 1 {f [expr {$n + 1}]}}", 499),
    "for_body": (
        "proc f {n} {global deepest; set deepest $n\n"
        "for {set i 0} {$i < 1} {incr i} {f [expr {$n + 1}]}}", 499),
    "foreach_body": (
        "proc f {n} {global deepest; set deepest $n\n"
        "foreach x {1} {f [expr {$n + 1}]}}", 499),
    "for_next": (
        "proc f {n} {global deepest; set deepest $n\n"
        "for {set i 0} {$i < 1} {f [expr {$n + 1}]} {}}", 499),
}


@TIERS
@pytest.mark.parametrize("shape", list(DEPTH_SHAPES))
def test_depth_runaway_recursion_stops_at_the_same_level(bytecode, shape):
    body, level = DEPTH_SHAPES[shape]
    interp = Interp(bytecode_enabled=bytecode)
    interp.eval(body)
    with pytest.raises(TclError, match="too many nested calls"):
        interp.eval("f 0")
    assert interp.eval("set deepest") == str(level)


def python_depth() -> int:
    """Python frames on the stack of the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("shape", list(DEPTH_SHAPES))
def test_depth_vm_recursion_needs_no_python_stack(shape):
    # The VM runs calls, substitutions and bodies in one dispatch loop,
    # so the runaway recursions reach the same Tcl level with Python's
    # recursion limit barely above the caller's own depth.
    body, level = DEPTH_SHAPES[shape]
    interp = Interp()
    interp.eval(body)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(python_depth() + 200)
    try:
        with pytest.raises(TclError, match="too many nested calls"):
            interp.eval("f 0")
    finally:
        sys.setrecursionlimit(limit)
    assert interp.eval("set deepest") == str(level)


@TIERS
def test_depth_python_stack_is_flat_in_the_vm(bytecode):
    # A Python command probes the Python stack at the bottom of a
    # recursion that goes through [expr {[f ...]}] and through if and
    # while bodies, at Tcl depth 7 and at Tcl depth 502.
    interp = Interp(bytecode_enabled=bytecode)
    # A run that page-faults may move once to a fresh stack chunk (two
    # more frames at its base, see vm.run); mark the loop as already
    # moved so the count does not depend on the host's page faults.
    interp._vm_spaced = True
    probes = []
    interp.register("probe", lambda interp, argv:
                    probes.append((interp.depth, python_depth())))
    interp.eval("proc f {n} {\n"
                " if {$n > 0} {\n"
                "  while 1 {return [expr {[f [expr {$n - 1}]] + 1}]}\n"
                " }\n"
                " probe\n"
                " return 0\n"
                "}")
    assert interp.eval("f 1") == "1"
    assert interp.eval("f 100") == "100"
    (shallow, shallow_frames), (deep, deep_frames) = probes
    assert (shallow, deep) == (7, 502)
    if bytecode:
        assert deep_frames == shallow_frames
    else:
        # The tree walker recurses in Python; the probe can tell.
        assert deep_frames > shallow_frames + 1000


@TIERS
def test_depth_runaway_recursion_in_a_loop_condition(bytecode):
    interp = Interp(bytecode_enabled=bytecode)
    interp.eval("proc w {n} {while {[w [expr {$n + 1}]]} {}}")
    with pytest.raises(TclError, match="too many nested calls"):
        interp.eval("w 0")


@TIERS
def test_values_only_a_raw_int_crosses_a_substitution(bytecode):
    interp = Interp(bytecode_enabled=bytecode)
    # A float is rounded to its string rep where the tree rounds it.
    assert interp.eval("set s [expr {1/3.0}]; expr {$s * 3}") == \
        "0.999999999999"
    interp.eval("proc third {} {set s [expr {1/3.0}]; expr {$s * 3}}")
    assert interp.eval("third") == "0.999999999999"
    assert interp.eval("expr {[expr {1/3.0}] * 3}") == "0.999999999999"
    # An int is exact either way, and reads back as the same string.
    interp.eval("proc sum {} {set n [expr {2 + 3}]; incr n [expr {4}];"
                " list $n [string length $n]}")
    assert interp.eval("sum") == "9 1"


def test_counters_match_the_tree_walker():
    script = ("proc p {x} {set y [expr {$x + 1}]\n"
              "return [llength [list $y [expr {$y * 2}]]]}\n"
              "set r [p 1]\n"
              "catch {p [expr {1 / 0}]}\n"
              "proc q {} {set y [expr {1 / 0}]}")
    reports = []
    for bytecode in (True, False):
        interp = Interp(bytecode_enabled=bytecode)
        interp.eval(script)
        with pytest.raises(TclError):
            interp.eval_top("q")
        reports.append((interp.cmd_count, interp.eval("set errorInfo"),
                        interp.eval("set r")))
    assert reports[0] == reports[1]


def test_counters_dispatches_count_every_substituted_op():
    interp = Interp()
    interp.eval("proc p {x} {set y [expr {$x + 1}]\n"
                "return [llength [list $y $y]]}")
    interp.eval("p 0")          # stamps the in-place [expr] valid
    before = metric(interp, "tcl.vm.dispatches")
    assert interp.eval("p 1") == "2"
    # The script (1 op), the body (2), the in-place [expr] (1),
    # [llength ...] (1) and [list ...] (1): what one Interp.eval per
    # substitution dispatched.
    assert metric(interp, "tcl.vm.dispatches") - before == 6


# ---------------------------------------------------------------------------
# substitution stays in the unit
# ---------------------------------------------------------------------------

def test_substitution_does_not_reenter_interp_eval():
    interp = Interp()
    interp.eval("proc fib {n} {\n if {$n < 2} {return $n}\n"
                " return [expr {[fib [expr {$n - 1}]] + "
                "[fib [expr {$n - 2}]]}]\n}")
    calls = []
    original = Interp.eval

    def counting_eval(self, script):
        calls.append(script)
        return original(self, script)

    interp.eval = counting_eval.__get__(interp)
    lookups = interp.compile_hits + interp.compile_misses
    assert interp.eval("fib 10") == "55"
    # One Interp.eval and one compile-cache lookup: the script itself.
    assert len(calls) == 1
    assert interp.compile_hits + interp.compile_misses == lookups + 1


@pytest.mark.parametrize("text", [
    "-[set a 2]",
    "[set a 2] * [set b 3]",
    "[set a 1] && [set b 0]",
    "[set a 0] || [set b 1]",
    "[set a 1] ? [set b 2] : [set c 3]",
    "[set a 0] ? [set b 2] : [set c 3]",
    "pow([set a 2], abs([set b -3]))",
])
def test_every_operand_position_stays_in_the_unit(text):
    # Unary, eager and lazy binary, ternary and function-argument
    # operands all bind to code of the unit.
    interp = Interp()
    interp.eval("proc p {} {expr {%s}}" % text)
    calls = []
    original = Interp.eval
    interp.eval = (lambda self, script: calls.append(script)
                   or original(self, script)).__get__(interp)
    result = interp.eval("p")
    assert calls == ["p"]
    tree = Interp(bytecode_enabled=False)
    tree.eval("proc p {} {expr {%s}}" % text)
    assert result == tree.eval("p")


@TIERS
def test_flow_control_crosses_substitutions(bytecode):
    interp = Interp(bytecode_enabled=bytecode)
    interp.eval("proc early {} {set x [return inner]; return outer}")
    assert interp.eval("early") == "inner"
    assert interp.eval("set out {}\nforeach v {1 2 3 4} {\n"
                       " if {$v == 2} {set z [continue]}\n"
                       " if {$v == 4} {lappend out [break]}\n"
                       " lappend out $v}\nset out") == "1 3"
    with pytest.raises(TclError, match="missing close-bracket|"
                                       "missing"):
        interp.eval("proc bad {} {set x [set y {]}\nbad")


@ALL_TIERS
def test_flow_control_break_in_for_next_script_ends_the_loop(options):
    # Tcl_ForCmd: ``break`` in the next script ends the loop normally
    # (code 0, result ""); ``continue`` there propagates.
    interp = Interp(**options)
    assert interp.eval(
        "catch {for {set i 0} {$i < 5} {incr i; break} {}} r") == "0"
    assert interp.eval("list $r $i") == "{} 1"
    assert interp.eval(
        "catch {for {set i 0} {$i < 5} {incr i; continue} {}}") == "4"
    assert interp.eval(
        "set out {}\nforeach x {1 2} {\n"
        " for {set i 0} {$i < 5} {incr i; continue} {lappend out $x$i}\n"
        "}\nset out") == "10 20"


def test_leak_nested_code_keeps_no_interpreter_alive():
    text = "[set a 1] + 1"
    interp = Interp()
    interp.eval("proc f {} {expr {%s}}; f" % text)
    # The process-wide AST cache holds structure only.
    assert type(compile_expr(text).left) is _CmdNode
    assert all(type(node).__module__ == "repro.tcl.expr"
               for node in _AST_CACHE.values())
    ref = weakref.ref(interp)
    del interp
    gc.collect()
    assert ref() is None
