"""Tests for the process-wide plan LRU (repro.tcl.compile.plan_script).

Every interpreter of a process takes its scripts' plans — parse,
substitution plans, lowered bytecode template, expression trees — from
one bounded LRU, so a script is compiled once per process.  What is
one interpreter's own stays its own: its compile cache and counters,
its bytecode instance with the call sites' inline caches, and the
memos keyed on its command table.  These tests pin that boundary: an
interpreter that redefines builtins, traces variables and collects
spans over a shared plan moves nothing another interpreter can see,
a shared plan keeps no interpreter alive, the ablation that disables
compilation still re-parses, and the LRU evicts one cold plan at a
time.
"""

import gc
import io
import weakref

import pytest

from repro.tcl import Interp, compile as _compile, parser

SETUP = "proc twice {n} {expr {2 * $n}}"

SCRIPT = """set total 0
foreach x {1 2 3 4} {incr total [expr {$x * 2}]}
set label [string length abc]:[twice $total]
if {$total > 10} {set big yes} else {set big no}
list $total $label $big"""

#: What the meddling interpreter does before each of its rounds: a
#: plain run first (its bytecode fills its inline caches), then a
#: variable trace, a redefined ``set`` and the span tracer, each kept.
MEDDLING = [
    "",
    "proc noted {args} {global notes; lappend notes $args}\n"
    "trace variable total w noted",
    "rename set builtin_set\n"
    "proc set {name args} {\n"
    "  if {[llength $args]} {\n"
    "    uplevel 1 [list builtin_set $name [lindex $args 0]]\n"
    "  } else {uplevel 1 [list builtin_set $name]}\n"
    "}",
    "obs trace start",
]


def _interp():
    interp = Interp(stdout=io.StringIO())
    interp.eval(SETUP)
    return interp


def _counts(interp):
    metrics = interp.obs.metrics
    return (interp.eval("info cmdcount"),
            metrics.counter("tcl.vm.dispatches").value,
            metrics.counter("tcl.vm.inline_cache_hits").value)


def _round(interp):
    """One evaluation of SCRIPT: its result and what it moved."""
    before = _counts(interp)
    result = interp.eval(SCRIPT)
    after = _counts(interp)
    return (result,) + tuple(int(b) - int(a)
                             for a, b in zip(before, after))


class TestIsolation:
    @pytest.mark.parametrize("meddler_first", [True, False],
                             ids=["meddler-first", "meddler-second"])
    def test_meddling_interpreter_moves_nothing_in_the_other(
            self, meddler_first):
        solo = _interp()
        expected = [_round(solo) for _ in MEDDLING]
        meddler, other = _interp(), _interp()
        seen = []
        try:
            for meddling in MEDDLING:
                meddler.eval(meddling)
                if meddler_first:
                    meddled = meddler.eval(SCRIPT)
                    seen.append(_round(other))
                else:
                    seen.append(_round(other))
                    meddled = meddler.eval(SCRIPT)
                assert meddled == expected[0][0]
            # The meddler's trace fired and its tracer saw the commands.
            assert "total" in meddler.eval("set notes")
            assert "cmd" in meddler.eval("obs trace dump")
        finally:
            meddler.eval("obs trace stop")
        assert seen == expected
        # Both ran copies of one plan, each with its own bytecode.
        mine = meddler._compile_cache[SCRIPT]
        theirs = other._compile_cache[SCRIPT]
        assert mine is not theirs and mine.plan is theirs.plan
        assert theirs.vm_code is not None
        assert theirs.vm_code is not theirs.plan.vm_code

    @pytest.mark.parametrize("bytecode", [True, False],
                             ids=["vm", "tree"])
    def test_equal_histories_share_no_memo(self, bytecode):
        """Two interpreters whose command tables changed equally often
        but differently run a nested ``[set ...]`` off the shared plan
        (each has deoptimized the outer script): a validation or memo
        one of them left there must not serve the other."""
        script = "incr n\nlist [set w_%s 2]" % bytecode
        plain = Interp(bytecode_enabled=bytecode)
        redefined = Interp(bytecode_enabled=bytecode)
        plain.eval("set n 0\nrename incr builtin_incr\nproc incr {args} {}")
        redefined.eval("set n 0\nrename set builtin_set\n"
                       "proc set {args} {return redefined}")
        assert plain.commands_epoch != redefined.commands_epoch
        for _ in range(2):
            assert plain.eval(script) == "2"
            assert redefined.eval(script) == "redefined"

    def test_first_sight_is_a_miss_in_every_interpreter(self):
        first, second = _interp(), _interp()
        for interp in (first, second):
            misses, hits = interp.compile_misses, interp.compile_hits
            interp.eval(SCRIPT)
            interp.eval(SCRIPT)
            assert interp.compile_misses == misses + 1
            assert interp.compile_hits == hits + 1


class Holder:
    """A command procedure that holds its interpreter, as Tk's widget
    commands hold their application."""

    def __init__(self, interp):
        self.interp = interp

    def __call__(self, interp, argv):
        return "held"


class TestNoPinning:
    def test_shared_plan_keeps_neither_interpreter_alive(self):
        script = ("proc inner {} {expr {[holder] == {held}}}\n"
                  "set n [inner][holder]\nset n")
        refs = []
        for options in ({}, {"bytecode_enabled": False}):
            interp = Interp(stdout=io.StringIO(), **options)
            interp.register("holder", Holder(interp))
            assert interp.eval(script) == "1held"
            # The tree path too: tracer on, then a deoptimized VM run.
            interp.eval("obs trace start")
            assert interp.eval(script) == "1held"
            interp.eval("obs trace stop")
            interp.eval("rename expr builtin_expr\n"
                        "proc expr {args} {uplevel 1 builtin_expr $args}")
            assert interp.eval(script) == "1held"
            refs.append(weakref.ref(interp))
        plan = _compile._PLANS[script]
        assert plan.vm_code is not None
        del interp
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert _compile._PLANS.get(script) is plan


class TestCompileDisabled:
    def test_ablation_parses_every_eval_while_plan_is_shared(
            self, monkeypatch):
        _interp().eval(SCRIPT)
        assert SCRIPT in _compile._PLANS
        calls = []
        original = parser.parse_script

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(parser, "parse_script", counting)
        ablated = Interp(stdout=io.StringIO(), compile_enabled=False)
        ablated.eval(SETUP)
        for _ in range(3):
            assert ablated.eval(SCRIPT) == "20 3:40 yes"
        assert calls.count(SCRIPT) == 3
        assert ablated.compile(SCRIPT) is SCRIPT


class TestPlanLRU:
    def test_overflow_evicts_cold_plans_one_at_a_time(self, monkeypatch):
        monkeypatch.setattr(_compile, "_PLANS", type(_compile._PLANS)())
        monkeypatch.setattr(_compile, "_PLAN_LIMIT", 8)
        hot = "set hot 1"
        sizes = []
        for index in range(20):
            # A fresh interpreter each round misses on both texts, so
            # both reach the shared LRU and the hot plan stays recent.
            interp = Interp()
            interp.eval("set cold%d %d" % (index, index))
            interp.eval(hot)
            sizes.append(len(_compile._PLANS))
        # One plan in, one out: never cleared, never over the bound.
        assert sizes == list(range(2, 8)) + [8] * 14
        assert hot in _compile._PLANS
        assert "set cold19 19" in _compile._PLANS
        assert "set cold0 0" not in _compile._PLANS
        # An evicted text compiles again and still runs.
        assert Interp().eval("set cold0 0") == "0"
