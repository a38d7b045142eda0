"""Tests for the expression evaluator used by expr/if/while/for."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from repro.tcl import Interp, TclError
from repro.tcl.expr import compile_expr


@pytest.fixture
def interp():
    return Interp()


def expr(interp, text):
    return interp.eval("expr {%s}" % text if "{" not in text and
                       "}" not in text else "expr %s" % text)


class TestArithmetic:
    def test_precedence(self, interp):
        assert interp.eval("expr 3+4*2") == "11"

    def test_parentheses(self, interp):
        assert interp.eval("expr (3+4)*2") == "14"

    def test_unary_minus(self, interp):
        assert interp.eval("expr -3+5") == "2"
        assert interp.eval("expr 4*-2") == "-8"

    def test_integer_division_truncates(self, interp):
        assert interp.eval("expr 7/2") == "3"

    def test_float_division(self, interp):
        assert interp.eval("expr 7.0/2") == "3.5"

    def test_modulo(self, interp):
        assert interp.eval("expr 7%3") == "1"

    def test_divide_by_zero_is_error(self, interp):
        with pytest.raises(TclError, match="divide by zero"):
            interp.eval("expr 1/0")

    def test_float_formatting_keeps_point(self, interp):
        assert interp.eval("expr 1.0+1.0") == "2.0"

    def test_hex_literals(self, interp):
        assert interp.eval("expr 0x10+1") == "17"

    def test_octal_literals(self, interp):
        assert interp.eval("expr 010+1") == "9"

    def test_scientific_notation(self, interp):
        assert interp.eval("expr 1e2+1") == "101.0"

    def test_non_numeric_operand_is_error(self, interp):
        with pytest.raises(TclError, match="non-numeric"):
            interp.eval("expr {abc + 1}")


class TestRelationalAndLogical:
    def test_less_than(self, interp):
        interp.eval("set i 1")
        assert interp.eval("expr $i<2") == "1"

    def test_equality(self, interp):
        assert interp.eval("expr 2==2") == "1"
        assert interp.eval("expr 2!=2") == "0"

    def test_string_comparison_fallback(self, interp):
        assert interp.eval('expr {"abc" == "abc"}') == "1"
        assert interp.eval('expr {"abc" < "abd"}') == "1"

    def test_numeric_comparison_preferred(self, interp):
        # "10" > "9" numerically even though "10" < "9" as strings.
        assert interp.eval("expr 10>9") == "1"

    def test_logical_and_or(self, interp):
        assert interp.eval("expr 1&&0") == "0"
        assert interp.eval("expr 1||0") == "1"

    def test_not(self, interp):
        assert interp.eval("expr !0") == "1"
        assert interp.eval("expr !5") == "0"

    def test_short_circuit_and_skips_errors(self, interp):
        # The right side would divide by zero, but && is lazy.
        assert interp.eval("expr {0 && 1/0}") == "0"

    def test_short_circuit_or_skips_errors(self, interp):
        assert interp.eval("expr {1 || 1/0}") == "1"

    def test_ternary(self, interp):
        assert interp.eval("expr 1?10:20") == "10"
        assert interp.eval("expr 0?10:20") == "20"

    def test_ternary_lazy(self, interp):
        assert interp.eval("expr {1 ? 5 : 1/0}") == "5"


#: Each tier that evaluates braced expressions: the bytecode VM, the
#: compiled tree walker, and the compile_off ablation, which parses
#: the same AST afresh on every evaluation instead of caching it.
TIERS = {
    "vm": {},
    "tree": {"bytecode_enabled": False},
    "nocompile": {"compile_enabled": False},
}


@pytest.mark.parametrize("flags", TIERS.values(), ids=list(TIERS))
class TestLazyOperandsAreNotSubstituted:
    """A braced expression evaluates only the operands it needs: a
    ``[script]`` or quoted string on the unneeded side never runs."""

    @pytest.mark.parametrize("text, value, name", [
        ("0 && [set x 5]", "0", "x"),
        ("1 || [set y 5]", "1", "y"),
        ("1 ? 2 : [set z 5]", "2", "z"),
        ("0 ? [set z 5] : 3", "3", "z"),
        ('0 && "[set q 1]"', "0", "q"),
        ("0 && ([set x 1] || [set y 2])", "0", "x"),
        ("1 && (0 && [set x 1])", "0", "x"),
    ])
    def test_unneeded_side_never_runs(self, flags, text, value, name):
        interp = Interp(**flags)
        assert interp.eval("expr {%s}" % text) == value
        assert interp.eval("info exists %s" % name) == "0"

    def test_needed_side_still_runs(self, flags):
        interp = Interp(**flags)
        assert interp.eval("expr {1 && [set x 5]}") == "1"
        assert interp.eval("expr {0 || [set y 0]}") == "0"
        assert interp.eval("expr {0 ? 2 : [set z 7]}") == "7"
        assert interp.eval("list $x $y $z") == "5 0 7"

    def test_lazy_side_inside_a_proc_and_a_condition(self, flags):
        interp = Interp(**flags)
        interp.eval("proc p {n} {\n"
                    "  set hits 0\n"
                    "  if {$n > 0 && [incr hits]} {incr hits 10}\n"
                    "  while {$n < 0 || [incr hits] > 100} {break}\n"
                    "  return $hits\n}")
        assert interp.eval("p 0") == "1"
        assert interp.eval("p 1") == "12"


#: Token alphabet of the three-tier generator: operands with side
#: effects (``[incr n]``, quoted ``"[incr n]"``, ``[set x 1]``), an
#: unset variable, an invalid octal, every operator, function heads and
#: stray closers.
_TOKENS = ["1", "2", "0", "08", "1.5", "$a", "$nosuch", "[incr n]",
           '"[incr n]"', "[set x 1]", "{br}", "abs(", "pow(", "(", ")",
           ":", ",", "?", "==", "!=", "<", ">", "<=", ">=", "<<", ">>",
           "+", "-", "*", "/", "%", "!", "~", "&", "^", "|", "&&", "||"]
_OPERANDS = ["1", "0", "2", "08", "1.5", "$a", "$nosuch", "[incr n]",
             '"[incr n]"', "[set x 1]", "{br}"]
_BINARY = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
           "<<", ">>", "+", "-", "*", "/", "%"]
#: Malformed tails appended to a well-formed expression.
_TAILS = ["", "", "", " +", " )", " ?", " :", " ,", " (", " 1", " abs("]
#: Where the expression is evaluated: ``expr`` at top level, in a proc
#: body, an ``if`` condition, and an ``if`` condition in a proc.
_WRAPPERS = [
    "catch {expr {%s}} m",
    "proc p {} {global n a; expr {%s}}; catch p m",
    "catch {if {%s} {set m yes} else {set m no}} m",
    "proc p {} {global n a; if {%s} {return yes}; return no}; catch p m",
]


def _random_expression(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.25:
        return rng.choice(_OPERANDS)
    if roll < 0.35:
        return rng.choice("-+!~") + _random_expression(rng, depth + 1)
    if roll < 0.42:
        return "(%s)" % _random_expression(rng, depth + 1)
    if roll < 0.5:
        return "%s ? %s : %s" % tuple(
            _random_expression(rng, depth + 1) for _ in range(3))
    if roll < 0.55:
        return "abs(%s)" % _random_expression(rng, depth + 1)
    if roll < 0.6:
        return "pow(%s, %s)" % (_random_expression(rng, depth + 1),
                                _random_expression(rng, depth + 1))
    return "%s %s %s" % (_random_expression(rng, depth + 1),
                         rng.choice(_BINARY),
                         _random_expression(rng, depth + 1))


def _generated_scripts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.3:
            text = " ".join(rng.choice(_TOKENS)
                            for _ in range(rng.randint(1, 7)))
        else:
            text = _random_expression(rng) + rng.choice(_TAILS)
        yield rng.choice(_WRAPPERS) % text


def _outcome(flags, script):
    """catch code, message, how often ``[incr n]`` ran, and whether
    ``[set x 1]`` ran, for ``script`` on a fresh interpreter."""
    interp = Interp(**flags)
    interp.eval("set n 0; set a 3")
    code = interp.eval(script)
    return (code, interp.eval("set m"), interp.eval("set n"),
            interp.eval("info exists x"))


class TestTiersAgree:
    """The VM, the tree walker and the compile_off ablation give the
    same result, error message and side effects for every expression."""

    def test_generated_expressions(self):
        divergent = []
        for script in _generated_scripts(seed=0, count=2400):
            outcomes = {name: _outcome(flags, script)
                        for name, flags in TIERS.items()}
            if len(set(outcomes.values())) != 1:
                divergent.append((script, outcomes))
        assert divergent == []

    @pytest.mark.parametrize("flags", TIERS.values(), ids=list(TIERS))
    def test_syntax_error_runs_no_substitution(self, flags):
        interp = Interp(**flags)
        assert interp.eval("catch {expr {[set x 1] +}}") == "1"
        assert interp.eval("info exists x") == "0"

    @pytest.mark.parametrize("flags", TIERS.values(), ids=list(TIERS))
    def test_syntax_error_is_reported_before_variables_are_read(
            self, flags):
        interp = Interp(**flags)
        assert interp.eval("catch {expr {$nosuch + [set x 1] +}} m") == "1"
        assert interp.eval("set m") == "premature end of expression"

    @pytest.mark.parametrize("flags", TIERS.values(), ids=list(TIERS))
    def test_negative_shift_is_a_tcl_error(self, flags):
        interp = Interp(**flags)
        assert interp.eval("catch {expr {1 << -1}} m") == "1"
        assert interp.eval("set m") == "negative shift argument"


#: Binary operators by C precedence level, loosest first.
_C_LEVELS = [("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
             ("<", ">", "<=", ">="), ("<<", ">>"), ("+", "-"),
             ("*", "/", "%")]
_C_LEVEL = {op: level for level, ops in enumerate(_C_LEVELS)
            for op in ops}


def _shape(text):
    """The AST of ``text`` as nested tuples: node type, operator,
    constant or variable, operand shapes.  Parentheses leave no node, so
    two texts group alike exactly when their shapes are equal."""
    def walk(node):
        label = next((getattr(node, slot) for slot in ("op", "value", "var")
                      if hasattr(node, slot)), None)
        return (type(node).__name__, label,
                tuple(walk(child) for child in node.children()))
    return walk(compile_expr(text))


def _same_on_every_tier(left, right):
    for flags in TIERS.values():
        interp = Interp(**flags)
        interp.eval("set a 7; set b 3; set c 2")
        results = [interp.eval("list [catch {expr {%s}} m] $m" % text)
                   for text in (left, right)]
        assert results[0] == results[1], (flags, left, right)


class TestGrouping:
    """Precedence and associativity follow C, whatever parser builds
    the AST."""

    @pytest.mark.parametrize("first, second", list(
        itertools.product(_C_LEVEL, repeat=2)))
    def test_binary_pair_groups_by_c_precedence(self, first, second):
        text = "$a %s $b %s $c" % (first, second)
        if _C_LEVEL[first] >= _C_LEVEL[second]:
            grouped = "($a %s $b) %s $c" % (first, second)
        else:
            grouped = "$a %s ($b %s $c)" % (first, second)
        assert _shape(text) == _shape(grouped)
        _same_on_every_tier(text, grouped)

    def test_ternary_groups_right_to_left(self):
        for text, grouped in [
                ("$a ? $b : $c ? 4 : 5", "$a ? $b : ($c ? 4 : 5)"),
                ("$a ? $b ? 4 : 5 : $c", "$a ? ($b ? 4 : 5) : $c"),
                ("0 ? 1 : 0 ? 2 : 3", "0 ? 1 : (0 ? 2 : 3)")]:
            assert _shape(text) == _shape(grouped)
            _same_on_every_tier(text, grouped)

    @pytest.mark.parametrize("op", _C_LEVEL)
    def test_ternary_binds_looser_than_every_binary_operator(self, op):
        text = "$a %s $b ? $c : 4 %s 5" % (op, op)
        grouped = "($a %s $b) ? $c : (4 %s 5)" % (op, op)
        assert _shape(text) == _shape(grouped)
        _same_on_every_tier(text, grouped)

    @pytest.mark.parametrize("unary, op", list(
        itertools.product("-+!~", _C_LEVEL)))
    def test_unary_binds_tighter_than_every_binary_operator(self, unary,
                                                           op):
        for text, grouped in [
                ("%s$a %s $b" % (unary, op), "(%s$a) %s $b" % (unary, op)),
                ("$a %s %s$b" % (op, unary), "$a %s (%s$b)" % (op, unary))]:
            assert _shape(text) == _shape(grouped)
            _same_on_every_tier(text, grouped)


class TestBitwise:
    def test_and_or_xor(self, interp):
        assert interp.eval("expr 6&3") == "2"
        assert interp.eval("expr 6|3") == "7"
        assert interp.eval("expr 6^3") == "5"

    def test_shifts(self, interp):
        assert interp.eval("expr 1<<4") == "16"
        assert interp.eval("expr 16>>2") == "4"

    def test_complement(self, interp):
        assert interp.eval("expr ~0") == "-1"

    def test_float_operand_of_int_op_is_error(self, interp):
        with pytest.raises(TclError, match="floating-point"):
            interp.eval("expr 1.5&1")


class TestSubstitutionInsideExpr:
    def test_variable(self, interp):
        interp.eval("set n 21")
        assert interp.eval("expr $n*2") == "42"

    def test_command(self, interp):
        interp.eval("proc five {} {return 5}")
        assert interp.eval("expr [five]+1") == "6"

    def test_quoted_string_with_variable(self, interp):
        interp.eval("set who world")
        assert interp.eval('expr {"$who" == "world"}') == "1"

    def test_braced_string_literal(self, interp):
        assert interp.eval('expr {{abc} == {abc}}') == "1"


class TestMathFunctions:
    def test_abs(self, interp):
        assert interp.eval("expr abs(-4)") == "4"

    def test_int_truncates(self, interp):
        assert interp.eval("expr int(3.9)") == "3"

    def test_double(self, interp):
        assert interp.eval("expr double(3)") == "3.0"

    def test_round(self, interp):
        assert interp.eval("expr round(2.5)") == "3"
        assert interp.eval("expr round(-2.5)") == "-3"

    def test_unknown_function_is_error(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr nosuch(1)")


class TestSyntaxErrors:
    def test_trailing_garbage(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {1 2}")

    def test_missing_operand(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {1+}")

    def test_unbalanced_paren(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {(1+2}")

    def test_single_equals_rejected(self, interp):
        with pytest.raises(TclError):
            interp.eval("expr {1 = 2}")


class TestProperties:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_addition_matches_python(self, a, b):
        interp = Interp()
        assert interp.eval("expr %d+%d" % (a, b)) == str(a + b)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_div_mod_identity(self, a, b):
        interp = Interp()
        quotient = int(interp.eval("expr %d/%d" % (a, b)))
        remainder = int(interp.eval("expr %d%%%d" % (a, b)))
        assert quotient * b + remainder == a

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_comparison_consistency(self, a, b):
        interp = Interp()
        less = interp.eval("expr %d<%d" % (a, b)) == "1"
        greater = interp.eval("expr %d>%d" % (a, b)) == "1"
        equal = interp.eval("expr %d==%d" % (a, b)) == "1"
        assert [less, greater, equal].count(True) == 1


class TestMathLibraryFunctions:
    def test_sqrt(self, interp):
        assert interp.eval("expr sqrt(16)") == "4.0"

    def test_trig(self, interp):
        assert interp.eval("expr sin(0)") == "0.0"
        assert interp.eval("expr cos(0)") == "1.0"

    def test_exp_log(self, interp):
        assert interp.eval("expr exp(0)") == "1.0"
        assert interp.eval("expr log(1)") == "0.0"

    def test_pow_two_arguments(self, interp):
        assert interp.eval("expr pow(2, 10)") == "1024.0"

    def test_hypot(self, interp):
        assert interp.eval("expr hypot(3, 4)") == "5.0"

    def test_fmod(self, interp):
        assert interp.eval("expr fmod(7, 3)") == "1.0"

    def test_floor_ceil(self, interp):
        assert interp.eval("expr floor(3.7)") == "3.0"
        assert interp.eval("expr ceil(3.2)") == "4.0"

    def test_nested_functions(self, interp):
        assert interp.eval("expr sqrt(pow(3,2) + pow(4,2))") == "5.0"

    def test_functions_with_variables(self, interp):
        interp.eval("set n 25")
        assert interp.eval("expr sqrt($n)") == "5.0"

    def test_domain_error(self, interp):
        with pytest.raises(TclError, match="domain error"):
            interp.eval("expr sqrt(-1)")

    def test_wrong_argument_count(self, interp):
        with pytest.raises(TclError, match="wrong # arguments"):
            interp.eval("expr sin(1, 2)")


class TestComparisonBoundaries:
    """Int/string round-tripping at comparison boundaries.

    Whether an operand compares numerically or lexically is decided by
    the same parser that feeds the dual-rep numeric cache
    (repro.tcl.value.number_of); these rows pin the tricky edges so the
    bytecode VM's inlined comparisons and the tree walker's appliers
    can never drift apart.
    """

    @pytest.mark.parametrize("expression, expected", [
        # leading-zero strings are invalid octal, hence strings
        ('"08" == "8"', "0"),
        ('"08" == "08"', "1"),
        ('"010" == "8"', "1"),           # valid octal IS the number 8
        # surrounding whitespace parses, interior whitespace does not
        ('" 1 " == 1', "1"),
        ('"- 5" == -5', "0"),
        # spelled-out inf/nan are strings; overflow literals are inf
        ('"inf" == "inf"', "1"),
        ('1e999 > 1e308', "1"),
        ('1e999 == 1e999', "1"),
        # Python's digit-separator extension must not leak in
        ('"1_000" == 1000', "0"),
        # numeric strings with different spellings compare as numbers
        ('"0x10" == 16', "1"),
        ('"1.0" == 1', "1"),
        ('"+5" == 5', "1"),
        # ordering mixes: numeric when both parse, lexical otherwise
        ('"9" < "10"', "1"),
        ('"a9" < "a10"', "0"),
        ('"abc" < "abd"', "1"),
    ])
    def test_boundary(self, interp, expression, expected):
        assert interp.eval("expr {%s}" % expression) == expected

    @pytest.mark.parametrize("expression, expected", [
        ('"08" == "8"', "0"),
        ('" 1 " == 1', "1"),
        ('1e999 > 1e308', "1"),
        ('"9" < "10"', "1"),
    ])
    def test_boundary_without_bytecode(self, expression, expected):
        interp = Interp(bytecode_enabled=False)
        assert interp.eval("expr {%s}" % expression) == expected

    def test_variable_operands_hit_the_same_rules(self, interp):
        interp.eval('set a 08')
        interp.eval('set b 8')
        assert interp.eval("expr {$a == $b}") == "0"
        interp.eval('set a 010')
        assert interp.eval("expr {$a == $b}") == "1"
