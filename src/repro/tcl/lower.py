"""Lowering compiled scripts to the bytecode VM's flat op lists.

:mod:`repro.tcl.vm` runs a unit (a script or a procedure body) as one
flat list of ops; this module builds that list from the unit's
:class:`~repro.tcl.compile.CompiledScript` (the compiler half of the
Tcl 8.0 split between tclCompile.c and tclExecute.c), and lists it for
``info disassemble``.  The op layouts, the plan kinds and the run-time
rules the lowering must keep are documented in :mod:`repro.tcl.vm`.

A unit is lowered once per process, into a *template* kept on the
unit's shared plan; each interpreter runs its own *instance* of it
(:meth:`~repro.tcl.vm.Code.instance`), which differs from the template
only in owning its call sites' inline caches.
"""

from __future__ import annotations

from typing import List, Optional

from . import vm
from .compile import (CompiledScript, _CmdStep, _VarStep, compile_script,
                      compile_word, plan_script)
from .errors import TclError
from .expr import (_BinaryNode, _CmdNode, _ConstNode, _FuncNode, _OrNode,
                   _QuotedNode, _TernaryNode, _UnaryNode, _VarNode,
                   compile_expr)
from .lists import parse_list
from .parser import CmdSub, VarSub
from .strings import _to_int
from .value import Value as _Value, literal
from .vm import (OP_BINARY, OP_BREAK, OP_CALL, OP_CALL_STACK, OP_CONCAT,
                 OP_COND, OP_CONST, OP_CONTINUE, OP_DRY, OP_END, OP_ENTER,
                 OP_EVAL, OP_EXPR, OP_EXPR_END, OP_FOREACH, OP_FOREACH_LOOP,
                 OP_FUNC, OP_GENERIC, OP_INCR_NAME, OP_INCR_SLOT,
                 OP_JUMP, OP_JUMP_TRUTH, OP_LEAVE, OP_LOOP, OP_NEXT, OP_NOP,
                 OP_POP, OP_PUSH, OP_PUSH_RESULT, OP_PUSH_VAR_IX, OP_RETURN,
                 OP_SET_NAME, OP_SET_SLOT, OP_SUBST, OP_TEST, OP_TRUTH,
                 OP_UNARY, _NO_CACHE, _P_EXPR, _P_VAR, _P_WORD, _STACK,
                 Code)

# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _word_has_cmd(word) -> bool:
    """Does a compiled word run a ``[script]`` anywhere (array indexes
    included)?"""
    if word is None or type(word) is str:
        return False
    for step in word.steps:
        t = type(step)
        if t is _CmdStep:
            return True
        if t is _VarStep and step.index is not None and \
                _word_has_cmd(step.index):
            return True
    return False


def _parts_have_cmd(word) -> bool:
    """The same question for a parser word (quoted strings and array
    indexes inside expressions)."""
    for part in word.parts:
        if type(part) is CmdSub:
            return True
        if type(part) is VarSub and part.index is not None and \
                _parts_have_cmd(part.index):
            return True
    return False


def _is_leaf(node) -> bool:
    """True when evaluating ``node`` runs no Tcl code, so one fused
    :func:`_expr_eval` op can evaluate it."""
    t = type(node)
    if t is _CmdNode:
        return False
    if t is _QuotedNode:
        return not _parts_have_cmd(node.word)
    if t is _VarNode:
        return node.var.index is None or not _parts_have_cmd(node.var.index)
    for child in node.children():
        if not _is_leaf(child):
            return False
    return True


class _Builder:
    """Lowers one unit's CompiledScript into one flat :class:`Code`.

    While it lowers, the builder tracks what each emitted op needs for
    unwinding in ``context``, which every op records: ``(wraps, break
    target, continue target, nest)`` — the commands an error at that op
    adds to ``errorInfo`` (innermost first), the current loop targets,
    and the nest level (one per body or substitution, for
    ``interp.depth``).  ``height`` is the operand stack height.
    """

    def __init__(self, slot_map):
        self.slot_map = slot_map
        self.specialized = set()
        self.code = Code(slot_map, self.specialized)
        self.ops: list = []
        self.contexts: list = []
        self.context = ((), None, None, 0)
        self.height = 0

    def build(self, compiled: CompiledScript) -> Code:
        self._body(compiled)
        self._emit([OP_END, None])
        code = self.code
        code.ops = tuple(map(tuple, self.ops))
        # A tuple, not the builder's set: most units specialize nothing,
        # and the empty tuple costs no memory.
        code.specialized = tuple(sorted(self.specialized))
        code.contexts = tuple(self.contexts)
        code.ncmds = len(compiled.commands)
        return code

    # -- emission ---------------------------------------------------------

    def _emit(self, op: list) -> int:
        self.ops.append(op)
        self.contexts.append(self.context)
        return len(self.ops) - 1

    def _wrap(self, cmd) -> tuple:
        """Make ``cmd`` wrap the errors of the ops emitted next; returns
        the context to restore."""
        saved = self.context
        wraps, brk, cont, nest = saved
        self.context = ((cmd.source,) + wraps, brk, cont, nest)
        return saved

    def _nested(self, compiled: CompiledScript, brk=False,
                cont=False) -> None:
        """Lower a body one nest level down, with new loop targets
        where given."""
        saved = self.context
        wraps, outer_brk, outer_cont, nest = saved
        self.context = (wraps, outer_brk if brk is False else brk,
                        outer_cont if cont is False else cont, nest + 1)
        self._body(compiled)
        self.context = saved

    # -- commands ---------------------------------------------------------

    def _command(self, cmd) -> None:
        words = cmd.words
        if not words or type(words[0]) is not str:
            self._emit([OP_GENERIC, None, cmd])
            return
        handler = _SPECIALIZERS.get(words[0])
        ops = self.ops
        mark = len(ops)
        if handler is None and cmd.argv is not None:
            # The commonest shape, all literal: one op.
            ops.append([OP_CALL, cmd, words[0],
                        [literal(arg) for arg in cmd.argv], None,
                        _NO_CACHE, cmd])
            self.contexts.append(self.context)
            return
        height, context = self.height, self.context
        try:
            counts = None
            if handler is not None:
                try:
                    counts = handler(self, cmd)
                except TclError:
                    # Anything statically malformed (bad expr syntax,
                    # unparsable body, non-integer increment) takes the
                    # generic call path so the error is raised at run
                    # time, by the builtin, exactly as the tree does.
                    counts = None
                if counts is None:
                    self._truncate(mark, height, context)
                else:
                    self.specialized.add(words[0])
            if counts is None:
                self._call(cmd)
                counts = False
        except TclError:
            # A [script] word that does not parse: the tree path raises
            # its error when the word is substituted.
            self._truncate(mark, height, context)
            self._emit([OP_GENERIC, None, cmd])
            return
        end = len(ops)
        ops[mark][1] = cmd if end == mark + 1 and not counts \
            else (cmd, end, counts)

    def _truncate(self, mark: int, height: int, context) -> None:
        del self.ops[mark:]
        del self.contexts[mark:]
        self.height = height
        self.context = context

    def _call(self, cmd) -> None:
        words = cmd.words
        cache = _NO_CACHE
        if cmd.argv is not None:
            self._emit([OP_CALL, None, words[0],
                        [literal(arg) for arg in cmd.argv], None, cache,
                        cmd])
            return
        plans = [self._plan(word) for word in words]
        if None not in plans:
            self._emit([OP_CALL, None, words[0], None, tuple(plans), cache,
                        cmd])
            return
        # Some word runs a [script] of its own: push every word from
        # the first dynamic one on, in order, so substitutions and
        # variable reads happen left to right.
        first = 1
        while type(words[first]) is str:
            first += 1
        for word, plan in zip(words[first:], plans[first:]):
            if plan is None:
                self._lower_word(word, False)
            else:
                self._emit([OP_PUSH, None, plan, False])
                self.height += 1
        count = len(words) - first
        self._emit([OP_CALL_STACK, None, words[0],
                    [literal(word) for word in words[:first]], count,
                    cache, cmd])
        self.height -= count

    def _body(self, compiled: CompiledScript) -> None:
        for cmd in compiled.commands:
            self._command(cmd)

    # -- words ------------------------------------------------------------

    def _plan(self, word):
        """A per-word resolution plan (a literal Value or a tagged
        tuple), or None when the word must be lowered to ops."""
        if type(word) is str:
            return literal(word)
        steps = word.steps
        if len(steps) == 1:
            step = steps[0]
            if type(step) is _VarStep:
                if _word_has_cmd(step.index):
                    return None
                return (_P_VAR, step.name, step.index)
            if type(step) is _CmdStep:
                return self._expr_plan(_step_script(step))
        if _word_has_cmd(word):
            return None
        return (_P_WORD, word)

    def _expr_plan(self, compiled: CompiledScript):
        """The in-place plan of a ``[expr {...}]`` whose expression runs
        no Tcl code, else None."""
        commands = compiled.commands
        if len(commands) != 1:
            return None
        words = commands[0].words
        if len(words) < 2 or words[0] != "expr":
            return None
        for word in words[1:]:
            if type(word) is not str:
                return None
        text = " ".join(words[1:])
        try:
            ast = compile_expr(text)
        except TclError:
            return None
        if not _is_leaf(ast):
            return None
        self.specialized.add("expr")
        return (_P_EXPR, ast, text, commands[0], self.code)

    def _push_word(self, word, raw: bool) -> None:
        """Emit ops that leave ``word``'s value on the operand stack."""
        plan = self._plan(word)
        if plan is not None:
            self._emit([OP_PUSH, None, plan, raw])
            self.height += 1
        else:
            self._lower_word(word, raw)

    def _lower_word(self, word, raw: bool) -> None:
        """:meth:`_push_word` for a word that has no plan."""
        steps = word.steps
        if len(steps) == 1:
            self._push_step(steps[0], raw)
            return
        template = []
        for step in steps:
            if type(step) is str:
                template.append(step)
            else:
                self._push_step(step, False)
                template.append(None)
        self._emit([OP_CONCAT, None, tuple(template)])
        self.height -= template.count(None) - 1

    def _push_step(self, step, raw: bool) -> None:
        if type(step) is _CmdStep:
            self._push_script(_step_script(step), raw)
        elif _word_has_cmd(step.index):
            self._push_word(step.index, False)
            self._emit([OP_PUSH_VAR_IX, None, step.name])
        else:
            self._emit([OP_PUSH, None, (_P_VAR, step.name, step.index),
                        False])
            self.height += 1

    def _push_script(self, compiled: CompiledScript, raw: bool) -> None:
        """Push a ``[script]``'s value: an in-place ``[expr]``, or the
        script lowered inline."""
        plan = self._expr_plan(compiled)
        if plan is not None:
            self._emit([OP_PUSH, None, plan, raw])
            self.height += 1
        else:
            self._subst(compiled, raw)

    def _subst(self, compiled: CompiledScript, raw: bool) -> None:
        """Lower a ``[script]`` inline; its value ends on the stack."""
        commands = compiled.commands
        enter = self._emit([OP_SUBST, None, len(commands), tuple(commands),
                            None, raw])
        saved = self.context
        wraps, brk, cont, nest = saved
        self.context = (wraps, brk, cont, nest + 1)
        self._body(compiled)
        self._emit([OP_PUSH_RESULT, None, raw])
        self.context = saved
        self.ops[enter][4] = len(self.ops)
        self.height += 1

    def _value(self, word, raw: bool):
        """The plan of a value word: a plan, or ``_STACK`` once ops that
        push it are emitted (the op emitted next pops it)."""
        plan = self._plan(word)
        if plan is not None:
            return plan
        self._lower_word(word, raw)
        self.height -= 1
        return _STACK

    # -- expressions --------------------------------------------------------

    def _expr(self, node) -> None:
        """Emit ops that push the raw value of expression ``node``."""
        if _is_leaf(node):
            if type(node) is _ConstNode:
                self._emit([OP_CONST, None, node.value])
            else:
                self._emit([OP_EVAL, None, node])
            self.height += 1
            return
        t = type(node)
        if t is _CmdNode:
            self._push_script(compile_script(node.script), True)
        elif t is _QuotedNode:
            self._push_word(compile_word(node.word), False)
        elif t is _VarNode:
            self._push_word(compile_word(node.var.index), False)
            self._emit([OP_PUSH_VAR_IX, None, node.var.name])
        elif t is _BinaryNode:
            self._expr(node.left)
            self._expr(node.right)
            self._emit([OP_BINARY, None, node])
            self.height -= 1
        elif t is _UnaryNode:
            self._expr(node.operand)
            self._emit([OP_UNARY, None, node.op])
        elif t is _FuncNode:
            for argument in node.arguments:
                self._expr(argument)
            count = len(node.arguments)
            self._emit([OP_FUNC, None, node.name, count])
            self.height -= count - 1
        elif t is _TernaryNode:
            self._expr(node.condition)
            to_second = self._emit([OP_JUMP_TRUTH, None, None, False])
            self.height -= 1
            self._expr(node.first)
            self._dry(node.second)
            to_end = self._emit([OP_JUMP, None, None])
            self.ops[to_second][2] = len(self.ops)
            self.height -= 1
            self._dry(node.first)
            self._expr(node.second)
            self.ops[to_end][2] = len(self.ops)
        else:
            # && and ||: the right side runs only when the left one
            # does not decide; when it does, the right side's $vars are
            # still read, and the value is the deciding truth.
            decided = t is _OrNode
            self._expr(node.left)
            to_dry = self._emit([OP_JUMP_TRUTH, None, None, decided])
            self.height -= 1
            self._expr(node.right)
            self._emit([OP_TRUTH, None])
            to_end = self._emit([OP_JUMP, None, None])
            self.ops[to_dry][2] = len(self.ops)
            self.height -= 1
            self._dry(node.right)
            self._emit([OP_CONST, None, 1 if decided else 0])
            self.height += 1
            self.ops[to_end][2] = len(self.ops)

    def _dry(self, node) -> None:
        """Emit the side effects of evaluating ``node`` with nothing
        applied (the unneeded side of a lazy operator): its ``$var``
        operands are read in order, and no ``[script]`` or quoted
        string is substituted."""
        simple = []
        for var in _operand_vars(node):
            if var.index is not None and _parts_have_cmd(var.index):
                if simple:
                    self._emit([OP_DRY, None, tuple(simple)])
                    simple = []
                self._push_word(compile_word(var.index), False)
                self._emit([OP_PUSH_VAR_IX, None, var.name])
                self._emit([OP_POP, None])
                self.height -= 1
            else:
                simple.append(var)
        if simple:
            self._emit([OP_DRY, None, tuple(simple)])

    def _cond(self, cmd, text: str, n: int, loop: bool = False):
        """Emit a condition of ``cmd`` that enters a body of ``n``
        commands when true; returns the pc whose false target the
        caller patches, and the AST when the condition is a leaf (for a
        later OP_LOOP)."""
        label = cmd.words[0]
        ast = compile_expr(text)
        if _is_leaf(ast):
            return self._emit([OP_COND, None, ast, text, None, n,
                               label]), ast
        if loop:
            self._emit([OP_NOP, None, label])
        self._expr(ast)
        self.height -= 1
        return self._emit([OP_TEST, None, text, None, n, label]), None

    # -- specializers -------------------------------------------------------

    def _slot(self, name: str) -> Optional[int]:
        slot_map = self.slot_map
        return slot_map.get(name) if slot_map is not None else None

    def _spec_set(self, cmd):
        words = cmd.words
        if len(words) != 3 or type(words[1]) is not str:
            return None
        name, index = _split_var_name(words[1])
        plan = self._value(words[2], True)
        if index is None:
            ix = self._slot(name)
            if ix is not None:
                self._emit([OP_SET_SLOT, None, ix, name, plan, cmd])
                return False
        self._emit([OP_SET_NAME, None, name, index, plan, cmd])
        return False

    def _spec_incr(self, cmd):
        words = cmd.words
        if len(words) not in (2, 3) or type(words[1]) is not str:
            return None
        name, index = _split_var_name(words[1])
        if len(words) == 2:
            amount = 1
        elif type(words[2]) is str:
            amount = _to_int(words[2])      # TclError -> generic path
        else:
            amount = self._value(words[2], True)
        if index is None:
            ix = self._slot(name)
            if ix is not None:
                self._emit([OP_INCR_SLOT, None, ix, name, amount, cmd])
                return False
        self._emit([OP_INCR_NAME, None, name, index, amount, cmd])
        return False

    def _spec_expr(self, cmd):
        words = cmd.words
        if len(words) < 2:
            return None
        for word in words[1:]:
            if type(word) is not str:
                return None
        text = " ".join(words[1:])
        ast = compile_expr(text)
        if _is_leaf(ast):
            self._emit([OP_EXPR, None, ast, text, cmd])
            return False
        saved = self._wrap(cmd)
        self._expr(ast)
        self.context = saved
        self._emit([OP_EXPR_END, None])
        self.height -= 1
        return True

    def _spec_if(self, cmd):
        argv = cmd.words
        for word in argv:
            if type(word) is not str:
                return None
        i = 1
        branches = []
        else_body = None
        while True:
            if i >= len(argv):
                return None
            condition = argv[i]
            i += 1
            if i < len(argv) and argv[i] == "then":
                i += 1
            if i >= len(argv):
                return None
            body = argv[i]
            i += 1
            branches.append((condition, compile_script(body)))
            if i >= len(argv):
                break
            if argv[i] == "elseif":
                i += 1
                continue
            if argv[i] == "else":
                i += 1
            if i >= len(argv) or i != len(argv) - 1:
                return None
            else_body = compile_script(argv[i])
            break
        saved = self._wrap(cmd)
        ends = []
        for position, (condition, body) in enumerate(branches):
            test, _ast = self._cond(cmd, condition, len(body.commands))
            self._nested(body)
            last = position == len(branches) - 1 and else_body is None
            leave = self._emit([OP_LEAVE, None, None])
            if not last:
                ends.append(leave)
            self.ops[test][4 if self.ops[test][0] == OP_COND else 3] = \
                len(self.ops)
        if else_body is not None:
            self._emit([OP_ENTER, None, len(else_body.commands)])
            self._nested(else_body)
            self._emit([OP_LEAVE, None, None])
        for leave in ends:
            self.ops[leave][2] = len(self.ops)
        self.context = saved
        return True

    def _loop_targets(self, cont_nest: int, cont_height: int):
        """Break and continue targets ``[pc, nest, stack height]`` of a
        loop starting here; the caller fills in the pcs."""
        nest = self.context[3]
        return [None, nest, self.height], \
            [None, nest + cont_nest, self.height + cont_height]

    def _spec_while(self, cmd):
        words = cmd.words
        if len(words) != 3 or type(words[1]) is not str or \
                type(words[2]) is not str:
            return None
        body = compile_script(words[2])
        n = len(body.commands)
        saved = self._wrap(cmd)
        top = len(self.ops)
        test, ast = self._cond(cmd, words[1], n, loop=True)
        body_start = len(self.ops)
        brk, cont = self._loop_targets(1 if ast is not None else 0, 0)
        self._nested(body, brk, cont)
        if ast is not None:
            cont[0] = self._emit([OP_LOOP, None, ast, words[1], body_start,
                                  n, "while"])
            self.ops[test][4] = len(self.ops)
        else:
            # The condition's ops start after the OP_NOP.
            cont[0] = top + 1
            self._emit([OP_LEAVE, None, top + 1])
            self.ops[test][3] = len(self.ops)
        brk[0] = len(self.ops)
        self.context = saved
        return True

    def _spec_for(self, cmd):
        words = cmd.words
        if len(words) != 5:
            return None
        for word in words[1:]:
            if type(word) is not str:
                return None
        start = compile_script(words[1])
        nxt = compile_script(words[3])
        body = compile_script(words[4])
        n = len(body.commands)
        saved = self._wrap(cmd)
        self._emit([OP_ENTER, None, len(start.commands)])
        self._nested(start)
        self._emit([OP_LEAVE, None, None])
        top = len(self.ops)
        test, ast = self._cond(cmd, words[2], n)
        body_start = len(self.ops)
        brk, cont = self._loop_targets(1, 0)
        self._nested(body, brk, cont)
        cont[0] = self._emit([OP_NEXT, None, len(nxt.commands)])
        # ``break`` in the next script ends the loop normally;
        # ``continue`` there belongs to an enclosing loop.
        self._nested(nxt, brk)
        if ast is not None:
            self._emit([OP_LOOP, None, ast, words[2], body_start, n, "for"])
            self.ops[test][4] = len(self.ops)
        else:
            self._emit([OP_LEAVE, None, top])
            self.ops[test][3] = len(self.ops)
        brk[0] = len(self.ops)
        self.context = saved
        return True

    def _spec_foreach(self, cmd):
        words = cmd.words
        if len(words) != 4 or type(words[1]) is not str or \
                type(words[3]) is not str:
            return None
        names = parse_list(words[1])
        if not names:
            return None
        targets = tuple((self._slot(name), name) for name in names)
        body = compile_script(words[3])
        n = len(body.commands)
        # The list word substitutes before the command proper, so its
        # errors stay unwrapped; OP_FOREACH wraps its own.
        plan = self._value(words[2], False)
        init = self._emit([OP_FOREACH, None, targets, plan, None, n, cmd])
        brk, cont = self._loop_targets(1, 1)
        self.height += 1
        saved = self._wrap(cmd)
        self._nested(body, brk, cont)
        self.context = saved
        self.height -= 1
        cont[0] = self._emit([OP_FOREACH_LOOP, None, targets, init + 1, n,
                              cmd])
        brk[0] = self.ops[init][4] = len(self.ops)
        return False

    def _spec_return(self, cmd):
        words = cmd.words
        if len(words) == 1:
            self._emit([OP_RETURN, None, None, cmd])
            return False
        if len(words) == 2:
            plan = self._value(words[1], False)
            self._emit([OP_RETURN, None, plan, cmd])
            return False
        return None

    def _spec_break(self, cmd):
        if len(cmd.words) != 1:
            return None
        self._emit([OP_BREAK, None, self.context[1], cmd])
        return False

    def _spec_continue(self, cmd):
        if len(cmd.words) != 1:
            return None
        self._emit([OP_CONTINUE, None, self.context[2], cmd])
        return False


_SPECIALIZERS = {
    "set": _Builder._spec_set,
    "incr": _Builder._spec_incr,
    "expr": _Builder._spec_expr,
    "if": _Builder._spec_if,
    "while": _Builder._spec_while,
    "for": _Builder._spec_for,
    "foreach": _Builder._spec_foreach,
    "return": _Builder._spec_return,
    "break": _Builder._spec_break,
    "continue": _Builder._spec_continue,
}


def _step_script(step: _CmdStep) -> CompiledScript:
    """The compiled script of a ``[script]`` step (kept on the step, as
    the tree path keeps it)."""
    compiled = step.compiled
    if compiled is None:
        compiled = step.compiled = compile_script(step.script)
    return compiled


def _operand_vars(node) -> List[VarSub]:
    """The ``$var`` operands of an expression in source order, outside
    quoted strings and ``[script]`` operands."""
    t = type(node)
    if t is _VarNode:
        return [node.var]
    if t is _QuotedNode or t is _CmdNode:
        return []
    found: List[VarSub] = []
    for child in node.children():
        found += _operand_vars(child)
    return found


def _split_var_name(name: str):
    if name.endswith(")"):
        open_paren = name.find("(")
        if open_paren > 0:
            return name[:open_paren], name[open_paren + 1:-1]
    return name, None


def _build(compiled: CompiledScript, slot_map) -> Code:
    if vm._BUILTINS is None:
        vm._lazy_init()
    return _Builder(slot_map).build(compiled)


def code_for_script(interp, compiled: CompiledScript) -> Code:
    """The bytecode of a script-level unit (no local slots), stored as
    ``compiled.vm_code``: for an interpreter's copy, an instance of its
    plan's template (counted in ``tcl.vm.compiles``); for a plan run
    directly, the template itself."""
    plan = compiled.plan
    if plan is None:
        code = compiled.vm_code = _build(compiled, None)
        return code
    template = plan.vm_code
    if template is None:
        template = plan.vm_code = _build(plan, None)
    code = compiled.vm_code = template.instance()
    interp._m_vm_compiles.value += 1
    return code


def code_for_proc(interp, proc) -> Code:
    """The bytecode instance of a procedure body with its formals
    mapped to slot indexes, stored as ``proc.vm_code``.  The template
    is kept on the body's plan, per list of formals."""
    compiled = proc.compiled = proc.compiled or plan_script(proc.body)
    formals = tuple(map(tuple, proc.formals))
    templates = compiled.proc_codes
    if templates is None:
        templates = compiled.proc_codes = {}
    template = templates.get(formals)
    if template is None:
        # A duplicated formal maps to its last position, matching the
        # dict-binding path where later positions overwrite earlier.
        template = _build(compiled, {formal[0]: position for position, formal
                                     in enumerate(formals)})
        template.proc_body = True
        if all(len(formal) == 1 for formal in formals) and \
                (not formals or formals[-1][0] != "args"):
            template.simple_arity = len(formals)
        templates[formals] = template
    code = proc.vm_code = template.instance()
    interp._m_vm_compiles.value += 1
    return code


# ---------------------------------------------------------------------------
# disassembly (info disassemble)
# ---------------------------------------------------------------------------

_MNEMONICS = {
    OP_CALL: "CALL", OP_SUBST: "SUBST", OP_PUSH_RESULT: "PUSH_RESULT",
    OP_LOOP: "LOOP", OP_SET_SLOT: "SET_SLOT", OP_INCR_SLOT: "INCR_SLOT",
    OP_RETURN: "RETURN", OP_BINARY: "BINARY", OP_EXPR_END: "EXPR_END",
    OP_END: "END", OP_SET_NAME: "SET_NAME", OP_INCR_NAME: "INCR_NAME",
    OP_EXPR: "EXPR", OP_NEXT: "NEXT", OP_FOREACH: "FOREACH",
    OP_FOREACH_LOOP: "FOREACH_LOOP", OP_CALL_STACK: "CALL", OP_PUSH: "PUSH",
    OP_EVAL: "EVAL", OP_CONST: "CONST", OP_ENTER: "ENTER",
    OP_LEAVE: "LEAVE", OP_JUMP: "JUMP", OP_JUMP_TRUTH: "JUMP_TRUTH",
    OP_TRUTH: "TRUTH", OP_UNARY: "UNARY", OP_FUNC: "FUNC", OP_DRY: "DRY",
    OP_PUSH_VAR_IX: "PUSH_ELEM", OP_CONCAT: "CONCAT", OP_POP: "POP",
    OP_BREAK: "BREAK", OP_CONTINUE: "CONTINUE", OP_GENERIC: "GENERIC",
}


def disassemble(code: Code) -> str:
    """Human-readable bytecode listing for ``info disassemble``.

    One line per op, indented by nest level: the ops of an inline
    ``[script]`` follow the ``SUBST`` op that names it, one level
    deeper, and every jump shows its target as ``-> pc``.
    """
    lines: List[str] = []
    if code.slot_map:
        ordered = sorted(code.slot_map.items(), key=lambda item: item[1])
        lines.append("slots: " + " ".join(
            "%d=%s" % (ix, name) for name, ix in ordered))
    for pc, op in enumerate(code.ops):
        kind = op[0]
        if kind in (OP_COND, OP_TEST, OP_NOP):
            # Named after the command whose condition it tests.
            name = op[-1].upper() + ("?" if kind == OP_TEST else "")
        else:
            name = _MNEMONICS[kind]
        pad = "  " * code.contexts[pc][3]
        lines.append(("%s%3d %-10s %s" % (pad, pc, name, _operands(op)))
                     .rstrip())
    return "\n".join(lines)


def _operands(op) -> str:
    kind = op[0]
    if kind == OP_CALL:
        arity = len(op[3]) if op[3] is not None else len(op[4])
        return "%s/%d  {%s}" % (op[2], arity - 1, _brief(op[-1].source))
    if kind == OP_CALL_STACK:
        return "%s/%d  {%s}" % (op[2], len(op[3]) + op[4] - 1,
                                _brief(op[-1].source))
    if kind in (OP_SET_SLOT, OP_INCR_SLOT):
        return "slot%d (%s) %s %s" % (
            op[2], op[3], "<-" if kind == OP_SET_SLOT else "+=",
            _brief_plan(op[4]))
    if kind in (OP_SET_NAME, OP_INCR_NAME):
        return "%s %s %s" % (_display(op[2], op[3]),
                             "<-" if kind == OP_SET_NAME else "+=",
                             _brief_plan(op[4]))
    if kind == OP_EXPR:
        return "{%s}" % _brief(op[3])
    if kind == OP_SUBST:
        return "[%s] -> %d" % (_brief("\n".join(cmd.source
                                                for cmd in op[3])), op[4])
    if kind == OP_COND:
        return "{%s} else -> %d" % (_brief(op[3]), op[4])
    if kind == OP_TEST:
        return "else -> %d" % op[3]
    if kind == OP_LOOP:
        return "{%s} -> %d" % (_brief(op[3]), op[4])
    if kind in (OP_LEAVE, OP_JUMP):
        return "" if op[2] is None else "-> %d" % op[2]
    if kind == OP_JUMP_TRUTH:
        return "if %s -> %d" % ("true" if op[3] else "false", op[2])
    if kind == OP_FOREACH:
        names = " ".join(name for _ix, name in op[2])
        return "{%s} in %s, done -> %d" % (names, _brief_plan(op[3]), op[4])
    if kind == OP_FOREACH_LOOP:
        return "-> %d" % op[3]
    if kind in (OP_BREAK, OP_CONTINUE):
        return "" if op[2] is None else "-> %d" % op[2][0]
    if kind == OP_RETURN:
        return "" if op[2] is None else _brief_plan(op[2])
    if kind == OP_PUSH:
        return _brief_plan(op[2])
    if kind == OP_BINARY:
        return op[2].op
    if kind == OP_EVAL:
        node = op[2]
        if type(node) is _VarNode and node.var.index is None:
            return "$" + node.var.name
        return "<expr>"
    if kind == OP_CONCAT:
        return "{%s}" % "".join("<stack>" if piece is None else piece
                                for piece in op[2])
    if kind in (OP_CONST, OP_UNARY, OP_PUSH_VAR_IX):
        return str(op[2])
    if kind == OP_FUNC:
        return "%s/%d" % (op[2], op[3])
    if kind == OP_DRY:
        return " ".join("$" + var.name for var in op[2])
    if kind == OP_GENERIC:
        return "{%s}" % _brief(op[2].source)
    if kind in (OP_ENTER, OP_NEXT):
        return "%d cmds" % op[2]
    return ""


def _brief(text: str, limit: int = 40) -> str:
    text = " ".join(str(text).split())
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _display(name: str, index) -> str:
    return name if index is None else "%s(%s)" % (name, index)


def _brief_plan(plan) -> str:
    if plan is _STACK:
        return "<stack>"
    t = type(plan)
    if t is int:
        return str(plan)
    if t is str or t is _Value:
        return "{%s}" % _brief(plan)
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is None:
            return "$%s" % plan[1]
        if type(index) is str:
            return "$%s(%s)" % (plan[1], index)
        return "$%s(...)" % plan[1]
    if kind == _P_EXPR:
        return "[expr {%s}]" % _brief(plan[2])
    return "<word>"
