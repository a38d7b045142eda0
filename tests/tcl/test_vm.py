"""Tests for the bytecode VM (repro.tcl.vm).

The VM is a pure CPU optimisation: every observable — results, errors,
errorInfo, ``info cmdcount``, variable traces — must match the
tree-walking interpreter exactly.  The equivalence battery runs the
same scripts under ``Interp()`` and ``Interp(bytecode_enabled=False)``
and insists on identical outcomes; the rest of the file covers the
VM-only surface (disassembly, counters, inline caches, deopt).
"""

import pytest

from repro.tcl import Interp, TclError


@pytest.fixture
def interp():
    return Interp()


def metric(interp, name):
    return interp.obs.metrics.counter(name).value


# ---------------------------------------------------------------------------
# equivalence battery: VM on vs. VM off
# ---------------------------------------------------------------------------

EQUIVALENCE_SCRIPTS = [
    "set a 1",
    "set a 5\nincr a\nincr a 10",
    "set a hello\nstring length $a",
    "proc add {x y} {expr {$x + $y}}\nadd 19 23",
    "proc fact {n} {\n  if {$n <= 1} {return 1}\n"
    "  expr {$n * [fact [expr {$n - 1}]]}\n}\nfact 10",
    "set i 0\nwhile {$i < 100} {incr i}\nset i",
    "set total 0\nfor {set i 0} {$i < 10} {incr i} "
    "{set total [expr {$total + $i}]}\nset total",
    "set out {}\nforeach x {a b c} {lappend out $x $x}\nset out",
    "foreach {k v} {a 1 b 2} {set arr($k) $v}\narray get arr",
    "proc dflt {a {b 7}} {expr {$a + $b}}\nlist [dflt 1] [dflt 1 2]",
    "proc varargs {first args} {list $first $args}\nvarargs 1 2 3 4",
    "proc up {} {upvar 1 x local\nincr local}\nset x 5\nup\nset x",
    "proc glo {} {global g\nset g changed}\nset g start\nglo\nset g",
    "if {1 < 2} {set r yes} else {set r no}\nset r",
    "if {0} {set r a} elseif {1} {set r b} else {set r c}\nset r",
    "set i 0\nwhile 1 {incr i\nif {$i > 3} break}\nset i",
    "set out {}\nforeach x {1 2 3 4} {if {$x == 2} continue\n"
    "lappend out $x}\nset out",
    'catch {unknowncmd} msg\nset msg',
    'set x 08\nexpr {$x == "8"}',
]


@pytest.mark.parametrize("script", EQUIVALENCE_SCRIPTS)
def test_vm_matches_tree_walker(script):
    with_vm = Interp().eval(script)
    without_vm = Interp(bytecode_enabled=False).eval(script)
    assert with_vm == without_vm


@pytest.mark.parametrize("script", [
    "undefined_command",
    "set",                               # wrong # args
    "incr novar",
    "expr {1 +}",
    "proc p {a} {}\np",                  # missing parameter
    "proc p {} {break}\np",              # break outside a loop
])
def test_vm_matches_tree_walker_errors(script):
    outcomes = []
    for flag in (True, False):
        interp = Interp(bytecode_enabled=flag)
        with pytest.raises(TclError) as info:
            interp.eval(script)
        outcomes.append(info.value.message)
    assert outcomes[0] == outcomes[1]


def test_error_info_matches_tree_walker():
    script = "proc inner {} {error boom}\nproc outer {} {inner}"
    reports = []
    for flag in (True, False):
        interp = Interp(bytecode_enabled=flag)
        interp.eval(script)
        with pytest.raises(TclError):
            interp.eval_top("outer")
        reports.append(interp.eval("set errorInfo"))
    assert reports[0] == reports[1]


def test_cmd_count_matches_tree_walker():
    script = ("proc add {x y} {expr {$x + $y}}\n"
              "set t 0\nfor {set i 0} {$i < 5} {incr i} "
              "{set t [add $t $i]}")
    counts = []
    for flag in (True, False):
        interp = Interp(bytecode_enabled=flag)
        interp.eval(script)
        counts.append(interp.eval("info cmdcount"))
    assert counts[0] == counts[1]


def test_argument_binding_matches_tree_walker():
    # both tiers bind formals through Interp._bind_slots
    script = (
        "proc two {a b} {list $a $b}\n"
        "proc dflt {a {b 7} {c {x y}}} {list $a $b $c}\n"
        "proc rest {a {b 2} args} {list $a $b $args}\n"
        "proc twice {a a} {set a}\n"
        "set out {}\n"
        "foreach call {{two 1} {two 1 2 3} {two 1 2} {dflt} {dflt 1}"
        " {dflt 1 2} {dflt 1 2 3 4} {rest} {rest 1} {rest 1 2 3 {4 5}}"
        " {twice 1} {twice 1 2} {twice 1 2 3}} {\n"
        "  lappend out [catch $call msg] $msg\n"
        "}\n"
        "set out")
    outcomes = [Interp(bytecode_enabled=flag).eval(script)
                for flag in (True, False)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (
        '1 {no value given for parameter "b" to "two"}'
        ' 1 {called "two" with too many arguments}'
        ' 0 {1 2}'
        ' 1 {no value given for parameter "a" to "dflt"}'
        ' 0 {1 7 {x y}}'
        ' 0 {1 2 {x y}}'
        ' 1 {called "dflt" with too many arguments}'
        ' 1 {no value given for parameter "a" to "rest"}'
        ' 0 {1 2 {}}'
        ' 0 {1 2 {3 {4 5}}}'
        ' 1 {no value given for parameter "a" to "twice"}'
        ' 0 2'
        ' 1 {called "twice" with too many arguments}')


# ---------------------------------------------------------------------------
# counters and disassembly
# ---------------------------------------------------------------------------

class TestCounters:
    def test_compiles_and_dispatches_count(self, interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        base = metric(interp, "tcl.vm.compiles")
        interp.eval("add 1 2")
        assert metric(interp, "tcl.vm.compiles") > base
        dispatched = metric(interp, "tcl.vm.dispatches")
        assert dispatched > 0
        interp.eval("add 3 4")
        assert metric(interp, "tcl.vm.dispatches") > dispatched

    def test_inline_cache_hits_grow_on_repeat_calls(self, interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        interp.eval("add 1 2")
        first = metric(interp, "tcl.vm.inline_cache_hits")
        for _ in range(5):
            interp.eval("add 1 2")
        assert metric(interp, "tcl.vm.inline_cache_hits") > first

    def test_counters_visible_through_info_metrics(self, interp):
        interp.eval("set a 1")
        listing = interp.eval("info metrics tcl.vm.*")
        assert "tcl.vm.compiles" in listing
        assert "tcl.vm.dispatches" in listing
        assert "tcl.vm.inline_cache_hits" in listing

    def test_vm_off_never_dispatches(self):
        interp = Interp(bytecode_enabled=False)
        interp.eval("proc add {x y} {expr {$x + $y}}")
        interp.eval("add 1 2")
        assert metric(interp, "tcl.vm.dispatches") == 0


class TestDisassemble:
    def test_proc_disassembly_lists_slots_and_expr(self, interp):
        interp.eval("proc add {x y} {expr {$x + $y}}")
        listing = interp.eval("info disassemble add")
        assert "slots: 0=x 1=y" in listing
        assert "EXPR" in listing

    def test_script_disassembly(self, interp):
        listing = interp.eval(
            'info disassemble {set a 1\nwhile {$a < 3} {incr a}}')
        assert "SET_NAME" in listing
        assert "WHILE" in listing
        assert "INCR_NAME" in listing

    def test_call_opcode_shows_target_and_arity(self, interp):
        interp.eval("proc noop {} {}")
        # A newline keeps the argument from being read as a proc name.
        listing = interp.eval("info disassemble {noop\nnoop}")
        assert "CALL" in listing
        assert "noop/0" in listing

    def test_nested_substitutions_list_under_their_op(self, interp):
        listing = interp.eval(
            "info disassemble {set y [expr {$x * 2}]\n"
            "set z [llength [lrange $x 0 1]]}").split("\n")
        # An in-place [expr] is shown inline and has no ops of its own.
        assert listing[0].split() == [
            "0", "SET_NAME", "y", "<-", "[expr", "{$x", "*", "2}]"]
        # Every other [script] is lowered into the unit: a SUBST op
        # names it and shows the pc after its ops, which follow one
        # level deeper; PUSH_RESULT leaves the value on the operand
        # stack for the command that uses it.
        assert listing[1:] == [
            "  1 SUBST      [llength [lrange $x 0 1]] -> 7",
            "    2 SUBST      [lrange $x 0 1] -> 5",
            "      3 CALL       lrange/3  {lrange $x 0 1}",
            "      4 PUSH_RESULT",
            "    5 CALL       llength/1  {llength [lrange $x 0 1]}",
            "    6 PUSH_RESULT",
            "  7 SET_NAME   z <- <stack>",
            "  8 END",
        ]

    def test_control_flow_lists_its_jump_targets(self, interp):
        listing = interp.eval(
            "info disassemble {set a 1\nwhile {$a < 3} {incr a}}")
        assert listing.split("\n") == [
            "  0 SET_NAME   a <- {1}",
            "  1 WHILE      {$a < 3} else -> 4",
            "    2 INCR_NAME  a += 1",
            "  3 LOOP       {$a < 3} -> 2",
            "  4 END",
        ]

    def test_unknown_proc_falls_back_to_script(self, interp):
        # Not a proc name: the argument is disassembled as a script.
        listing = interp.eval("info disassemble {set q 5}")
        assert "SET_NAME" in listing

    def test_listed_in_bad_option_message(self, interp):
        with pytest.raises(TclError, match="disassemble"):
            interp.eval("info nosuchoption")


# ---------------------------------------------------------------------------
# deoptimisation
# ---------------------------------------------------------------------------

class TestDeopt:
    def test_redefining_a_builtin_is_honored(self, interp):
        # A cached script whose ``set`` ops were specialized must
        # notice when the builtin is replaced, and re-route the same
        # bytecode through the replacement.
        interp.eval("proc shout {args} {return [join $args -]}")
        script = "set greeting hello\nset greeting"
        assert interp.eval(script) == "hello"
        interp.eval("rename set _real_set")
        interp.eval("rename shout set")
        assert interp.eval(script) == "greeting"
        # The variable itself was untouched by the impostor.
        assert interp.eval("_real_set greeting") == "hello"

    def test_proc_redefinition_takes_effect(self, interp):
        interp.eval("proc f {} {return old}")
        script = "f"
        assert interp.eval(script) == "old"
        interp.eval("proc f {} {return new}")
        assert interp.eval(script) == "new"

    def test_variable_traces_fire_on_vm_path(self, interp):
        interp.eval("set log {}")
        interp.eval("proc remember {n1 n2 op} {\n"
                    "  global log\n  lappend log $op\n}")
        interp.eval("trace variable watched w remember")
        interp.eval("proc writer {} {\n"
                    "  global watched\n  set watched 1\n  set watched 2\n}")
        interp.eval("writer")
        assert interp.eval("set log") == "w w"

    def test_upvar_on_a_bound_formal_errors_like_the_tree(self):
        # A formal with a value cannot be rebound by upvar; the slot
        # frame must report it exactly like the dict frame does.
        script = ("proc reuse {x} {upvar 1 target x}\n"
                  "set target original\nreuse ignored")
        messages = []
        for flag in (True, False):
            interp = Interp(bytecode_enabled=flag)
            with pytest.raises(TclError) as info:
                interp.eval(script)
            messages.append(info.value.message)
        assert messages[0] == messages[1]

    def test_info_locals_sees_slot_variables(self, interp):
        interp.eval("proc probe {a b} {\n"
                    "  set c 3\n  lsort [info locals]\n}")
        assert interp.eval("probe 1 2") == "a b c"

    def test_uplevel_into_a_slot_frame(self, interp):
        interp.eval("proc outer {x} {inner\nset x}")
        interp.eval("proc inner {} {uplevel 1 {set x rewritten}}")
        assert interp.eval("outer start") == "rewritten"
