"""Bytecode VM for the Tcl core (the Tcl 8.0 move, scaled to this repo).

PR 1's compile-once pipeline (src/repro/tcl/compile.py) removed
re-parsing, but execution still walks a tree of ``CompiledCommand``
objects: every ``incr`` re-splits its variable name, every ``while``
re-enters the generic command machinery, and every value crossing a
command boundary is a string.  This module compiles those plans one
step further, into one flat list of *opcodes* per unit (a script or a
procedure body; :mod:`repro.tcl.lower` builds it), executed by a single
dispatch loop:

* dedicated opcodes for the hot shapes — ``set``/``incr`` (with the
  variable name pre-split and, inside procedures, pre-resolved to a
  local slot index), ``expr`` evaluated straight off the cached AST
  with raw ints/floats, and ``if``/``while``/``for``/``foreach``
  lowered to conditional and unconditional jumps in the unit's op
  list — no command dispatch per iteration;
* an inline cache per call site for command resolution, keyed on the
  interpreter's ``commands_epoch`` exactly like the tree walker's
  memoization;
* indexed local-variable slots: a procedure's formals are resolved to
  slot numbers at compile time, so reads and writes inside the body
  are list indexing instead of dict lookups.

Deoptimization discipline
-------------------------

Each dedicated opcode embeds builtin semantics (the ``while`` jumps
*are* ``cmd_while``), which is only sound while the builtin it
replaces is still the registered command procedure.  A code object
therefore records the builtin names it specialized on; ``_usable``
revalidates that set against the live command table whenever the
epoch moves.  The first op of every command carries a *start* record
(the command itself when it is one op, else ``(command, end pc,
counts)``): there, before the command substitutes any word, the loop
checks the unit's ``(interp, epoch)`` stamp and the tracer flag.  When validation fails — someone renamed ``set``, or the
span tracer started collecting — the loop runs the command's embedded
:class:`~repro.tcl.compile.CompiledCommand` on the tree path (which
restores tree-walking semantics, trace spans included) and jumps to
the command's end.

Substitutions, expressions and calls in the loop
------------------------------------------------

Nothing that runs Tcl code leaves the loop by Python recursion:

* a ``[script]`` word, or a word that mixes ``[script]`` with text or
  holds it in an array index, lowers inline: a ``SUBST`` op opens the
  script's ops and ``PUSH_RESULT`` leaves its value on the unit's
  operand stack, where the command op takes it;
* an expression holding a ``[script]`` or a quoted string with one
  lowers to postfix ops over the operand stack; ``&&``, ``||`` and
  ``?:`` become jumps, and the side they do not evaluate still reads
  its ``$var`` operands in order, as the tree does.  A subtree with no
  such operand stays one fused :func:`_expr_eval` op, and a ``[expr
  {...}]`` word over such a tree is evaluated in place, inside the op
  that uses it;
* a call to a procedure with VM code pushes a *frame record* (code,
  pc, operand stack, ``CallFrame``, base depth) on an explicit list
  and continues in the same loop with the callee's ops; ``return``, or
  the end of the body, pops the record and hands the result to the
  caller's op.

Builtins, variable reads, the fused expression evaluator, ``catch``,
``uplevel``, ``unknown`` and every deoptimized command still call out,
and may re-enter :func:`run` through ``Interp.eval``; the Tcl code the
loop runs itself costs no Python stack.  Four rules keep all of this
indistinguishable from the tree walker:

* *depth* — every substitution, body and call takes one
  ``interp.depth`` level, checked against the guard where it is
  entered, so runaway recursion stops at the same Tcl level with the
  same message;
* *values* — a raw int may cross a substitution (its string rep is
  exact); anything else goes through ``to_str``, so a float is rounded
  to its ``%.12g`` string exactly where the tree walker rounds it;
* *counters* — ``info cmdcount`` and ``tcl.vm.dispatches`` advance as
  they would with one ``run`` per body and substitution: entering a
  body or substitution counts its commands;
* *errors* — an op adds its own command to ``errorInfo``; as an error
  unwinds, each pc adds the static chain of enclosing commands that
  wrap its errors (``expr``, ``if``, the loops), and each popped frame
  record adds the call that pushed it.  Word substitution is not in
  the chain, as in the tree walker.

``break`` and ``continue`` jump to static targets (pc, nest level,
stack height) in the unit; the same targets catch a ``TclBreak`` or
``TclContinue`` raised by a callout.

Value discipline
----------------

Inside the VM, results and variable cells may be *raw* Python ints
and floats (``incr``/``expr`` never round-trip through strings).  The
string rep is materialized lazily by ``Interp.get_var``/``to_str`` the
first time string-level code looks, and every boundary out of the VM
(command argv, proc results, ``interp.eval``) converts via
:func:`repro.tcl.value.to_str`, whose ``%.12g``-based formatting makes
the raw path observationally identical to the string path.  That
equivalence is what lets ``examples/golden.journal`` replay
byte-identically with the VM on — the correctness oracle for this
whole module.
"""

from __future__ import annotations

from typing import Optional

try:
    import resource as _resource
except ImportError:             # not a Unix host: never respace
    _resource = None

from .compile import _append_error_info, compile_script
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import (_BinaryNode, _call_math_function, _ConstNode,
                   _UnaryNode, _VarNode, require_int, require_number, truth)
from .lists import parse_list
from .strings import _to_int
from .value import (SlotLink as _SlotLink, Value as _Value, cached_number,
                    to_str)

# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

# Every op is a tuple ``(kind, start, operands...)`` (a list while the
# builder patches jump targets); ``start`` is the start record of the
# command the op begins, or None.  Plans marked
# ``_STACK`` take their value from the operand stack.
OP_CALL = 0           # name, const_argv, plans, cache, cmd
OP_SUBST = 1          # n, commands, end, raw      open a [script]
OP_PUSH_RESULT = 2    # raw                        close it: push result
OP_COND = 3           # ast, text, else, n, cmd    test; enter the body
OP_LOOP = 4           # ast, text, body, n, cmd    leave body; test again
OP_SET_SLOT = 5       # slot, name, plan, cmd
OP_INCR_SLOT = 6      # slot, name, amount, cmd
OP_RETURN = 7         # plan, cmd
OP_BINARY = 8         # node                       postfix eager operator
OP_EXPR_END = 9       # -                          expr result <- pop
OP_END = 10           # -
OP_SET_NAME = 11      # name, index, plan, cmd
OP_INCR_NAME = 12     # name, index, amount, cmd
OP_EXPR = 13          # ast, text, cmd             fused leaf expression
OP_NEXT = 14          # n                          leave body, enter next
OP_FOREACH = 15       # targets, plan, end, n, cmd
OP_FOREACH_LOOP = 16  # targets, body, n, cmd
OP_CALL_STACK = 17    # name, prefix, count, cache, cmd
OP_PUSH = 18          # plan, raw
OP_EVAL = 19          # ast                        push a fused leaf value
OP_CONST = 20         # value
OP_TEST = 21          # text, else, n, cmd         pop condition; enter
OP_ENTER = 22         # n
OP_LEAVE = 23         # target (None: fall through)
OP_JUMP = 24          # target
OP_JUMP_TRUTH = 25    # target, when               pop; jump if truth is when
OP_TRUTH = 26         # -
OP_UNARY = 27         # op
OP_FUNC = 28          # name, count
OP_DRY = 29           # vars                       read unevaluated $vars
OP_PUSH_VAR_IX = 30   # name                       pop index, push element
OP_CONCAT = 31        # template
OP_POP = 32           # -
OP_BREAK = 33         # target, cmd
OP_CONTINUE = 34      # target, cmd
OP_GENERIC = 35       # cmd
OP_NOP = 36           # -                          carries a start record

# Word-plan kinds (see lower._Builder._plan): literal strings are stored as
# Value objects directly; dynamic words become small tagged tuples.
_P_VAR = 1            # (kind, name, index)   index: None | str | CompiledWord
_P_EXPR = 3           # (kind, ast, text, cmd, code)  [expr {leaf}] in place
_P_WORD = 4           # (kind, CompiledWord)  text and $vars, no [script]

#: A plan whose value the op pops from the operand stack.
_STACK = object()

_TOO_DEEP = "too many nested calls to Tcl_Eval (infinite loop?)"

# Lazily bound (vm is imported by interp at module load, so importing
# interp/commands back at top level would cycle through a
# partially-initialized module).
_Proc = None
_CallFrame = None
_MAX_DEPTH = 1000
_BUILTINS: Optional[dict] = None


def _lazy_init() -> None:
    global _Proc, _CallFrame, _MAX_DEPTH, _BUILTINS
    from .interp import CallFrame, Proc, _MAX_NESTING_DEPTH
    from .commands import control, variables
    from .commands import strings as strcmds
    _Proc = Proc
    _CallFrame = CallFrame
    _MAX_DEPTH = _MAX_NESTING_DEPTH
    _BUILTINS = {
        "set": variables.cmd_set,
        "incr": variables.cmd_incr,
        "expr": strcmds.cmd_expr,
        "if": control.cmd_if,
        "while": control.cmd_while,
        "for": control.cmd_for,
        "foreach": control.cmd_foreach,
        "return": control.cmd_return,
        "break": control.cmd_break,
        "continue": control.cmd_continue,
    }


class Code:
    """The flat opcode list of one unit (a script or a procedure body).

    ``slot_map`` maps formal names to slot indexes for procedure
    bodies (None for script-level code).  ``specialized`` is the set
    of builtin names whose semantics are baked into dedicated opcodes;
    ``valid`` caches the last successful validation as ``(interp,
    epoch)``.  ``ncmds`` is the number of top-level commands (what one
    run of the unit adds to ``tcl.vm.dispatches``), and ``contexts``
    holds, per pc, ``(wraps, break target, continue target, nest)``:
    the commands that add themselves to ``errorInfo`` when an error
    unwinds through that pc, innermost first, and the static targets
    of ``break``/``continue`` as ``[pc, nest, stack height]``.
    """

    __slots__ = ("ops", "slot_map", "specialized", "valid",
                 "simple_arity", "proc_body", "ncmds", "contexts")

    def __init__(self, slot_map, specialized):
        self.ops: tuple = ()
        self.slot_map = slot_map
        self.specialized = specialized
        self.valid = None
        #: For procedure bodies whose formals have no defaults and no
        #: trailing ``args``: the exact argument count, letting the
        #: caller bind slots with one list slice.  None otherwise.
        self.simple_arity: Optional[int] = None
        #: True for procedure bodies, where ``return`` returns from the
        #: body instead of raising TclReturn.
        self.proc_body = False
        self.ncmds = 0
        self.contexts: tuple = ()


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def _revalidate(interp, code: Code) -> bool:
    commands = interp.commands
    builtins = _BUILTINS
    for name in code.specialized:
        if commands.get(name) is not builtins[name]:
            return False
    code.valid = (interp, interp.commands_epoch)
    return True


def _usable(interp, code: Code) -> bool:
    """May dedicated opcodes run?  False while the tracer collects or
    any specialized builtin is no longer the registered command."""
    if interp._trace_on:
        return False
    v = code.valid
    if v is not None and v[0] is interp and v[1] == interp.commands_epoch:
        return True
    return _revalidate(interp, code)


# ---------------------------------------------------------------------------
# word plans
# ---------------------------------------------------------------------------

def _resolve(interp, frame, plan) -> str:
    """Resolve a plan to its string value (command-argv discipline)."""
    t = type(plan)
    if t is _Value or t is str:
        return plan
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is not None and type(index) is not str:
            index = index.substitute(interp)
        return interp.get_var(plan[1], index)
    if kind == _P_WORD:
        return plan[1].substitute(interp)
    return to_str(_subst_expr(interp, frame, plan))


def _resolve_raw(interp, frame, plan):
    """Like :func:`_resolve` but a plain variable read may return the
    raw numeric cell, and an in-place ``[expr]`` a raw int
    (``set``/``incr`` value positions)."""
    t = type(plan)
    if t is _Value or t is str:
        return plan
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is None:
            return _load_var(interp, frame, plan[1])
        if type(index) is not str:
            index = index.substitute(interp)
        return interp.get_var(plan[1], index)
    if kind == _P_WORD:
        return plan[1].substitute(interp)
    result = _subst_expr(interp, frame, plan)
    return result if type(result) is int else to_str(result)


def _subst_expr(interp, frame, plan):
    """Evaluate an in-place ``[expr {...}]`` word; may return a raw value.

    Behaves as a one-command substitution: it takes one depth level,
    counts one dispatch and one command, and adds the ``expr`` command
    to ``errorInfo`` when evaluation fails.  When the unit is not
    usable it runs the ``expr`` command on the tree path, as the
    substitution's own op would; while the tracer collects that counts
    no dispatch (``Interp.eval`` skips the VM then).
    """
    if interp.depth >= _MAX_DEPTH:
        raise TclError(_TOO_DEEP)
    interp.depth += 1
    try:
        code = plan[4]
        v = code.valid
        if (v is not None and v[0] is interp and
                v[1] == interp.commands_epoch and not interp._trace_on) \
                or _usable(interp, code):
            interp._m_vm_dispatches.value += 1
            interp._m_commands.value += 1
            try:
                return _expr_eval(interp, frame, plan[1])
            except (TclError,) + interp.native_error_types as error:
                raise _expr_error(error, plan[3])
        if not interp._trace_on:
            interp._m_vm_dispatches.value += 1
        return plan[3].execute(interp)
    finally:
        interp.depth -= 1


def _load_var(interp, frame, name):
    """Raw scalar read: slot/dict cell without string materialization.

    Falls back to ``interp.get_var`` (which may be hooked by variable
    traces) for links, arrays, unset names, and whenever direct access
    is disabled.
    """
    if interp._vm_direct and not frame.links:
        slot_map = frame.slot_map
        if slot_map is not None:
            ix = slot_map.get(name)
            cell = frame.slots[ix] if ix is not None \
                else frame.variables.get(name)
        else:
            cell = frame.variables.get(name)
        t = type(cell)
        if t is str or t is _Value or t is int or t is float:
            return cell
    return interp.get_var(name)


def _as_int(value) -> int:
    t = type(value)
    if t is int:
        return value
    if t is str or t is _Value:
        return _to_int(value)
    return _to_int(to_str(value))


# ---------------------------------------------------------------------------
# raw expression evaluation (off the cached AST)
# ---------------------------------------------------------------------------

def _expr_eval(interp, frame, node):
    """Evaluate a leaf expression AST with raw variable reads.

    Only the nodes that dominate hot expressions are special-cased;
    anything lazy (``&&``/``||``/``?:``), function calls and quoted
    strings delegate to the node's own ``eval``, which is the exact
    tree-walking semantics.  The builder hands this function only trees
    with no ``[script]`` to run.
    """
    t = type(node)
    if t is _BinaryNode:
        # Operand fetch is inlined for the two leaf shapes ($var and
        # constants) so a binary op over leaves costs no extra frames.
        slot_map = frame.slot_map if interp._vm_direct \
            and not frame.links else None
        operand = node.left
        to = type(operand)
        if to is _VarNode and operand.var.index is None:
            if slot_map is not None:
                ix = slot_map.get(operand.var.name)
                left = frame.slots[ix] if ix is not None else None
                tc = type(left)
                if tc is not str and tc is not _Value and \
                        tc is not int and tc is not float:
                    left = _load_var(interp, frame, operand.var.name)
            else:
                left = _load_var(interp, frame, operand.var.name)
        elif to is _ConstNode:
            left = operand.value
        else:
            left = _expr_eval(interp, frame, operand)
        operand = node.right
        to = type(operand)
        if to is _VarNode and operand.var.index is None:
            if slot_map is not None:
                ix = slot_map.get(operand.var.name)
                right = frame.slots[ix] if ix is not None else None
                tc = type(right)
                if tc is not str and tc is not _Value and \
                        tc is not int and tc is not float:
                    right = _load_var(interp, frame, operand.var.name)
            else:
                right = _load_var(interp, frame, operand.var.name)
        elif to is _ConstNode:
            right = operand.value
        else:
            right = _expr_eval(interp, frame, operand)
        # All-numeric fast path: same result as the appliers (which
        # would re-derive these numbers through require_number or
        # _compare), minus the coercion calls.  A non-numeric operand
        # (cached_number None) falls back to the applier, which does
        # string comparison or raises with the original operand text.
        # Division/modulo keep their truncation and zero-check
        # semantics in the applier too.
        tl = type(left)
        ln = left if tl is int or tl is float else cached_number(left)
        if ln is not None:
            tr = type(right)
            rn = right if tr is int or tr is float \
                else cached_number(right)
            if rn is not None:
                op = node.op
                if op == "+":
                    return ln + rn
                if op == "<":
                    return 1 if ln < rn else 0
                if op == "-":
                    return ln - rn
                if op == "*":
                    return ln * rn
                if op == ">":
                    return 1 if ln > rn else 0
                if op == "<=":
                    return 1 if ln <= rn else 0
                if op == ">=":
                    return 1 if ln >= rn else 0
                if op == "==":
                    return 1 if ln == rn else 0
                if op == "!=":
                    return 1 if ln != rn else 0
        return node.apply(left, right)
    if t is _ConstNode:
        return node.value
    if t is _VarNode:
        var = node.var
        if var.index is None:
            return _load_var(interp, frame, var.name)
        return interp.value_of(var)
    if t is _UnaryNode:
        return _unary(node.op, _expr_eval(interp, frame, node.operand))
    return node.eval(interp, True)


def _unary(op: str, operand):
    if op == "-":
        return -require_number(operand)
    if op == "+":
        return +require_number(operand)
    if op == "!":
        return int(not truth(operand))
    return ~require_int(operand)


def _expr_error(error, cmd):
    """The error the ``expr`` command ``cmd`` raises when evaluating
    its AST raised ``error``: a TclError with the command added to
    ``errorInfo``, as the tree walker reports it."""
    if not isinstance(error, TclError):
        converted = TclError(str(error))
        converted.__cause__ = error
        error = converted
    _append_error_info(error, cmd.source)
    return error


def _cond_value(value, text: str) -> bool:
    number = cached_number(value)
    if number is None:
        raise TclError(
            'expression "%s" didn\'t produce a numeric result' % text)
    return number != 0


def _assign(interp, frame, targets, values, position) -> None:
    """Bind one chunk of a ``foreach`` list to its loop variables."""
    n_values = len(values)
    direct = interp._vm_direct
    for ix, name in targets:
        value = values[position] if position < n_values else ""
        position += 1
        if ix is not None and direct:
            slots = frame.slots
            cell = slots[ix]
            if type(cell) is not dict and type(cell) is not _SlotLink:
                slots[ix] = value
                continue
        interp.set_var(name, value)
        direct = interp._vm_direct


# ---------------------------------------------------------------------------
# procedure frames
# ---------------------------------------------------------------------------

def enter_proc(interp, proc, argv):
    """Set up a call of ``proc``: its code (compiled on first call, and
    kept on the Proc), the depth guard, a CallFrame with the formals
    bound straight into indexed slots, pushed on ``interp.frames`` one
    depth level down.  Returns ``(code, frame)``."""
    code = proc.vm_code
    if code is None:
        from .lower import code_for_proc
        compiled = proc.compiled
        if compiled is None:
            compiled = proc.compiled = compile_script(proc.body)
        code = proc.vm_code = code_for_proc(interp, compiled, proc)
    if interp.depth >= _MAX_DEPTH:
        raise TclError(_TOO_DEEP)
    if code.simple_arity == len(argv) - 1:
        # No defaults, no ``args``, right count: binding is a copy.
        slots = argv[1:]
    else:
        slots = interp._bind_slots(proc, argv)
    frame = _CallFrame.__new__(_CallFrame)
    frame.variables = {}
    frame.links = {}
    frame.level = len(interp.frames)
    frame.proc_name = proc.name
    frame.argv = argv
    frame.slots = slots
    frame.slot_map = code.slot_map
    interp.depth += 1
    interp.frames.append(frame)
    return code, frame


def _unwind(interp, error, code, pc, records, depth) -> None:
    """Add ``errorInfo`` for an error raised at ``pc - 1`` of ``code``
    as it unwinds every frame record, then restore ``interp.frames``
    and ``interp.depth`` (to ``depth``) for the caller of :func:`run`."""
    while True:
        for source in code.contexts[pc - 1][0]:
            _append_error_info(error, source)
        if not records:
            break
        interp.frames.pop()
        code, pc = records.pop()[:2]
        _append_error_info(error, code.ops[pc - 1][-1].source)
    interp.depth = depth


def _abandon(interp, records, depth) -> None:
    """Drop every frame record without adding ``errorInfo``."""
    for _ in records:
        interp.frames.pop()
    interp.depth = depth


# ---------------------------------------------------------------------------
# dispatch loop
# ---------------------------------------------------------------------------

#: Value-stack slots declared by :func:`_spaced`'s code: more than a
#: 16 KB chunk of CPython's frame stack can hold.
_SPACER_SLOTS = 2100
#: A run counts its procedure calls and loop back-edges ("events") and
#: reads the thread's minor page faults at the second event and then at
#: every _PROBE_EVERY-th (a read costs far less than that many events);
#: if they grew by _THRASH_FAULTS since the last read, its helpers are
#: straddling a chunk boundary.
_PROBE_EVERY = 16
_THRASH_FAULTS = 3
_RUSAGE_THREAD = getattr(_resource, "RUSAGE_THREAD", None) \
    if _resource is not None else None


def _thread_faults() -> int:
    if _RUSAGE_THREAD is None:
        return 0
    return _resource.getrusage(_RUSAGE_THREAD).ru_minflt


def _spaced(interp, state):
    return run(interp, None, None, state)


# CPython (3.11+) keeps frames in 16 KB chunks of a per-thread stack,
# maps a new chunk when a frame does not fit, and unmaps it when the
# frame at its base returns.  A hot helper whose frame straddles a
# boundary therefore maps and unmaps a chunk on every call, and where
# the boundary falls depends only on the entry depth.  A frame that
# declares more value-stack slots than a chunk holds never fits in the
# current chunk, so CPython maps a fresh one for it with at least 1000
# free slots after the frame (its MINIMUM_OVERHEAD): the dispatch loop
# called from there has its helpers' frames in one chunk at any entry
# depth.  The declared slots are never written, so they cost no pages,
# but mapping the chunk costs about as much as ten procedure calls, so
# a run moves only when its own page faults show the straddle.
_spaced = type(_spaced)(
    _spaced.__code__.replace(co_stacksize=_SPACER_SLOTS), globals(),
    "_spaced")


def run(interp, code: Code, frame, state=None):
    """Execute a unit against ``frame``; may return a raw value.

    Error-info accumulation matches the tree walker exactly: word
    *resolution* errors propagate unwrapped (substitution happens
    before a tree command enters its try block), while errors from the
    operation itself are wrapped with the command source.

    When the outermost run page-faults while it makes procedure calls
    and takes loop back-edges, it leaves the loop with its locals in
    ``state`` and resumes them under :func:`_spaced`, on a fresh stack
    chunk.  Runs with fewer than two such events never measure.
    """
    m_dispatches = interp._m_vm_dispatches
    m_commands = interp._m_commands
    if state is None:
        m_dispatches.value += code.ncmds
        pc = 0
        stack: list = []
        #: Frame records of the procedure calls in progress, outermost
        #: first: (code, pc, stack, frame, base); a list from the first
        #: call on.
        records = ()
        base = entry_depth = interp.depth
        result = ""
        spaced = interp._vm_spaced
        events = faults = 0
    else:
        code, pc, stack, frame, base, records, entry_depth, result = state
        spaced = True
    ops = code.ops
    while True:
        try:
            while True:
                op = ops[pc]
                pc += 1
                start = op[1]
                if start is not None:
                    # A command begins: an earlier op may have run
                    # arbitrary Tcl (redefining a builtin or starting
                    # the tracer), so recheck via the cached stamp.
                    v = code.valid
                    if v is None or v[0] is not interp or \
                            v[1] != interp.commands_epoch or \
                            interp._trace_on:
                        if not _usable(interp, code):
                            if type(start) is tuple:
                                result = start[0].execute(interp)
                                pc = start[1]
                            else:
                                result = start.execute(interp)
                            continue
                    if type(start) is tuple and start[2]:
                        # Commands whose tree form counts before it
                        # substitutes anything (the control commands
                        # and a lowered ``expr``).
                        m_commands.value += 1
                kind = op[0]
                if kind == OP_CALL:
                    const = op[3]
                    if const is not None:
                        argv = const[:]
                    else:
                        argv = []
                        for plan in op[4]:
                            t = type(plan)
                            argv.append(plan if t is _Value or t is str
                                        else _resolve(interp, frame, plan))
                elif kind == OP_END:
                    if not records:
                        interp.depth = entry_depth
                        return result
                    # Return from a procedure: pop its frame record.
                    if type(result) is not str and \
                            type(result) is not _Value:
                        result = to_str(result)
                    interp.frames.pop()
                    interp.depth = base - 1
                    code, pc, stack, frame, base = records.pop()
                    ops = code.ops
                    continue
                elif kind == OP_INCR_NAME:
                    amount = op[4]
                    if amount is _STACK:
                        amount = stack.pop()
                    elif type(amount) is not int:
                        amount = _resolve_raw(interp, frame, amount)
                    m_commands.value += 1
                    name = op[2]
                    try:
                        if op[3] is None and interp._vm_direct and \
                                not frame.links:
                            slot_map = frame.slot_map
                            if slot_map is None or name not in slot_map:
                                variables = frame.variables
                                cell = variables.get(name)
                                t = type(cell)
                                if t is int:
                                    result = cell + _as_int(amount)
                                    variables[name] = result
                                    continue
                                if t is str or t is _Value or t is float:
                                    result = _as_int(cell) + \
                                        _as_int(amount)
                                    variables[name] = result
                                    continue
                        current = _as_int(interp.get_var(name, op[3]))
                        result = interp.set_var(
                            name, str(current + _as_int(amount)), op[3])
                    except TclError as error:
                        _append_error_info(error, op[5].source)
                        raise
                    continue
                elif kind == OP_SET_NAME:
                    plan = op[4]
                    value = stack.pop() if plan is _STACK \
                        else _resolve_raw(interp, frame, plan)
                    m_commands.value += 1
                    name = op[2]
                    if op[3] is None and interp._vm_direct and \
                            not frame.links:
                        # The compiler guarantees ``name`` is not a
                        # formal of this code's slot_map; a *different*
                        # frame (uplevel) may still map it, hence the
                        # runtime check.
                        slot_map = frame.slot_map
                        if slot_map is None or name not in slot_map:
                            variables = frame.variables
                            if type(variables.get(name)) is not dict:
                                variables[name] = value
                                result = value
                                continue
                    try:
                        result = interp.set_var(name, value, op[3])
                    except TclError as error:
                        _append_error_info(error, op[5].source)
                        raise
                    continue
                elif kind == OP_SUBST:
                    if interp.depth >= _MAX_DEPTH:
                        raise TclError(_TOO_DEEP)
                    interp.depth += 1
                    if interp._trace_on:
                        # The tracer wants per-command spans: run the
                        # script on the tree path, as Interp.eval would.
                        result = ""
                        for cmd in op[3]:
                            result = cmd.execute(interp)
                        interp.depth -= 1
                        if op[5]:
                            stack.append(result if type(result) is int
                                         else to_str(result))
                        else:
                            stack.append(to_str(result))
                        pc = op[4]
                        continue
                    m_dispatches.value += op[2]
                    result = ""
                    continue
                elif kind == OP_PUSH_RESULT:
                    interp.depth -= 1
                    if op[2]:
                        stack.append(result if type(result) is int
                                     else to_str(result))
                    else:
                        stack.append(result if type(result) is str or
                                     type(result) is _Value
                                     else to_str(result))
                    continue
                elif kind == OP_LOOP:
                    interp.depth -= 1
                    value = _expr_eval(interp, frame, op[2])
                    number = value if type(value) is int \
                        else cached_number(value)
                    if number is None:
                        _cond_value(value, op[3])
                    result = ""
                    if number:
                        interp.depth += 1
                        m_dispatches.value += op[5]
                        pc = op[4]
                        if not spaced:
                            events += 1
                            if events == 2 or not events % _PROBE_EVERY:
                                now = _thread_faults()
                                if events > 2 and \
                                        now - faults >= _THRASH_FAULTS:
                                    state = (code, pc, stack, frame, base,
                                             records, entry_depth, result)
                                    break
                                faults = now
                    continue
                elif kind == OP_COND:
                    value = _expr_eval(interp, frame, op[2])
                    number = value if type(value) is int \
                        else cached_number(value)
                    if number is None:
                        _cond_value(value, op[3])
                    result = ""
                    if number:
                        if interp.depth >= _MAX_DEPTH:
                            raise TclError(_TOO_DEEP)
                        interp.depth += 1
                        m_dispatches.value += op[5]
                    else:
                        pc = op[4]
                    continue
                elif kind == OP_RETURN:
                    plan = op[2]
                    if plan is None:
                        result = ""
                    elif plan is _STACK:
                        result = stack.pop()
                    else:
                        result = _resolve(interp, frame, plan)
                    m_commands.value += 1
                    if not code.proc_body:
                        raise TclReturn(result)
                    pc = len(ops) - 1       # the body's OP_END
                    continue
                elif kind == OP_SET_SLOT:
                    plan = op[4]
                    value = stack.pop() if plan is _STACK \
                        else _resolve_raw(interp, frame, plan)
                    m_commands.value += 1
                    if interp._vm_direct:
                        slots = frame.slots
                        cell = slots[op[2]]
                        if type(cell) is not dict and \
                                type(cell) is not _SlotLink:
                            slots[op[2]] = value
                            result = value
                            continue
                    try:
                        result = interp.set_var(op[3], value)
                    except TclError as error:
                        _append_error_info(error, op[5].source)
                        raise
                    continue
                elif kind == OP_INCR_SLOT:
                    amount = op[4]
                    if amount is _STACK:
                        amount = stack.pop()
                    elif type(amount) is not int:
                        amount = _resolve_raw(interp, frame, amount)
                    m_commands.value += 1
                    try:
                        if interp._vm_direct:
                            slots = frame.slots
                            cell = slots[op[2]]
                            t = type(cell)
                            if t is int:
                                result = cell + _as_int(amount)
                                slots[op[2]] = result
                                continue
                            if t is str or t is _Value or t is float:
                                result = _as_int(cell) + _as_int(amount)
                                slots[op[2]] = result
                                continue
                        current = _as_int(interp.get_var(op[3]))
                        result = interp.set_var(
                            op[3], str(current + _as_int(amount)))
                    except TclError as error:
                        _append_error_info(error, op[5].source)
                        raise
                    continue
                elif kind == OP_NEXT:
                    interp.depth -= 1
                    if interp.depth >= _MAX_DEPTH:
                        raise TclError(_TOO_DEEP)
                    interp.depth += 1
                    m_dispatches.value += op[2]
                    result = ""
                    continue
                elif kind == OP_LEAVE:
                    interp.depth -= 1
                    if op[2] is not None:
                        pc = op[2]
                    continue
                elif kind == OP_EXPR:
                    m_commands.value += 1
                    try:
                        result = _expr_eval(interp, frame, op[2])
                    except (TclError,) + interp.native_error_types \
                            as error:
                        raise _expr_error(error, op[4])
                    continue
                elif kind == OP_BINARY:
                    right = stack.pop()
                    stack[-1] = op[2].apply(stack[-1], right)
                    continue
                elif kind == OP_EXPR_END:
                    result = stack.pop()
                    continue
                elif kind == OP_FOREACH_LOOP:
                    interp.depth -= 1
                    progress = stack[-1]
                    values = progress[0]
                    targets = op[2]
                    position = progress[1] + len(targets)
                    result = ""
                    if position >= len(values):
                        stack.pop()
                        continue
                    progress[1] = position
                    try:
                        _assign(interp, frame, targets, values, position)
                    except TclError as error:
                        _append_error_info(error, op[5].source)
                        raise
                    interp.depth += 1
                    m_dispatches.value += op[4]
                    pc = op[3]
                    if not spaced:
                        events += 1
                        if events == 2 or not events % _PROBE_EVERY:
                            now = _thread_faults()
                            if events > 2 and \
                                    now - faults >= _THRASH_FAULTS:
                                state = (code, pc, stack, frame, base,
                                         records, entry_depth, result)
                                break
                            faults = now
                    continue
                elif kind == OP_ENTER:
                    if interp.depth >= _MAX_DEPTH:
                        raise TclError(_TOO_DEEP)
                    interp.depth += 1
                    m_dispatches.value += op[2]
                    result = ""
                    continue
                elif kind == OP_CALL_STACK:
                    count = op[4]
                    argv = op[3] + stack[-count:]
                    del stack[-count:]
                else:
                    result = _step(kind, op, interp, frame, stack, result,
                                   code, base)
                    if type(result) is _Jump:
                        pc = result.pc
                        result = result.result
                    continue
                # OP_CALL and OP_CALL_STACK: invoke the command on argv.
                cache = op[5]
                if cache[0] is interp and cache[1] == interp.commands_epoch:
                    target = cache[2]
                    interp._m_vm_cache_hits.value += 1
                else:
                    target = interp.commands.get(op[2])
                    if target is not None:
                        cache[0] = interp
                        cache[1] = interp.commands_epoch
                        cache[2] = target
                if target is None:
                    # Unknown-command handling, never cached (the
                    # handler may define the command).
                    result = interp._invoke(argv, op[-1].source)
                    continue
                m_commands.value += 1
                if type(target) is _Proc:
                    try:
                        callee, callee_frame = enter_proc(interp, target,
                                                          argv)
                    except TclError as error:
                        _append_error_info(error, op[-1].source)
                        raise
                    if records:
                        records.append((code, pc, stack, frame, base))
                    else:
                        records = [(code, pc, stack, frame, base)]
                    code = callee
                    ops = callee.ops
                    pc = 0
                    stack = []
                    frame = callee_frame
                    base = interp.depth
                    m_dispatches.value += callee.ncmds
                    result = ""
                    if not spaced:
                        events += 1
                        if events == 2 or not events % _PROBE_EVERY:
                            now = _thread_faults()
                            if events > 2 and \
                                    now - faults >= _THRASH_FAULTS:
                                state = (code, pc, stack, frame, base,
                                         records, entry_depth, result)
                                break
                            faults = now
                    continue
                try:
                    r = target(interp, argv)
                except TclError as error:
                    _append_error_info(error, op[-1].source)
                    raise
                except interp.native_error_types as error:
                    converted = TclError(str(error))
                    _append_error_info(converted, op[-1].source)
                    raise converted from error
                result = r if r is not None else ""
            # Only a respace trigger leaves the inner loop this way.
            break
        except TclError as error:
            _unwind(interp, error, code, pc, records, entry_depth)
            raise
        except (TclBreak, TclContinue) as flow:
            is_break = type(flow) is TclBreak
            target = code.contexts[pc - 1][1 if is_break else 2]
            if target is not None:
                pc = target[0]
                interp.depth = base + target[1]
                del stack[target[2]:]
                result = ""
                continue
            if not records:
                interp.depth = entry_depth
                raise
            # A proc body ends in break/continue: the call fails.
            interp.frames.pop()
            code, pc, stack, frame, base = records.pop()
            error = TclError('invoked "%s" outside of a loop'
                             % ("break" if is_break else "continue"))
            _append_error_info(error, code.ops[pc - 1][-1].source)
            _unwind(interp, error, code, pc, records, entry_depth)
            raise error
        except TclReturn as ret:
            if not code.proc_body:
                _abandon(interp, records, entry_depth)
                raise
            result = ret.value
            if not records:
                interp.depth = entry_depth
                return result
            interp.frames.pop()
            interp.depth = base - 1
            code, pc, stack, frame, base = records.pop()
            ops = code.ops
        except BaseException as error:
            if isinstance(error, interp.native_error_types):
                converted = TclError(str(error))
                converted.__cause__ = error
                _unwind(interp, converted, code, pc, records, entry_depth)
                raise converted
            _abandon(interp, records, entry_depth)
            raise
    interp._vm_spaced = True
    try:
        return _spaced(interp, state)
    finally:
        interp._vm_spaced = False


class _Jump:
    """What a rare op (see :func:`_step`) returns when it moves the pc."""

    __slots__ = ("pc", "result")

    def __init__(self, pc: int, result):
        self.pc = pc
        self.result = result


def _step(kind, op, interp, frame, stack, result, code, base):
    """The ops that the dispatch loop does not inline: expression
    postfix ops, the rarer control ops and the generic fallback.  None
    of them runs Tcl code except through a callout.  Returns the new
    result, or a :class:`_Jump`."""
    if kind == OP_PUSH:
        if op[3]:
            stack.append(_resolve_raw(interp, frame, op[2]))
        else:
            stack.append(_resolve(interp, frame, op[2]))
        return result
    if kind == OP_EVAL:
        stack.append(_expr_eval(interp, frame, op[2]))
        return result
    if kind == OP_CONST:
        stack.append(op[2])
        return result
    if kind == OP_TEST:
        if _cond_value(stack.pop(), op[2]):
            if interp.depth >= _MAX_DEPTH:
                raise TclError(_TOO_DEEP)
            interp.depth += 1
            interp._m_vm_dispatches.value += op[4]
            return ""
        return _Jump(op[3], "")
    if kind == OP_JUMP:
        return _Jump(op[2], result)
    if kind == OP_JUMP_TRUTH:
        if truth(stack.pop()) == op[3]:
            return _Jump(op[2], result)
        return result
    if kind == OP_TRUTH:
        stack[-1] = 1 if truth(stack[-1]) else 0
        return result
    if kind == OP_UNARY:
        stack[-1] = _unary(op[2], stack[-1])
        return result
    if kind == OP_FUNC:
        count = op[3]
        arguments = stack[-count:]
        del stack[-count:]
        stack.append(_call_math_function(op[2], arguments))
        return result
    if kind == OP_DRY:
        for var in op[2]:
            interp.value_of(var)
        return result
    if kind == OP_PUSH_VAR_IX:
        stack[-1] = interp.get_var(op[2], stack[-1])
        return result
    if kind == OP_CONCAT:
        template = op[2]
        count = sum(1 for piece in template if piece is None)
        pieces = iter(stack[-count:])
        del stack[-count:]
        stack.append("".join(next(pieces) if piece is None else piece
                             for piece in template))
        return result
    if kind == OP_POP:
        stack.pop()
        return result
    if kind == OP_FOREACH:
        plan = op[3]
        list_text = stack.pop() if plan is _STACK \
            else _resolve(interp, frame, plan)
        interp._m_commands.value += 1
        try:
            values = parse_list(list_text)
            if not values:
                return _Jump(op[4], "")
            _assign(interp, frame, op[2], values, 0)
            if interp.depth >= _MAX_DEPTH:
                raise TclError(_TOO_DEEP)
        except TclError as error:
            _append_error_info(error, op[6].source)
            raise
        stack.append([values, 0])
        interp.depth += 1
        interp._m_vm_dispatches.value += op[5]
        return ""
    if kind == OP_BREAK or kind == OP_CONTINUE:
        interp._m_commands.value += 1
        target = op[2]
        if target is None:
            raise TclBreak() if kind == OP_BREAK else TclContinue()
        interp.depth = base + target[1]
        del stack[target[2]:]
        return _Jump(target[0], "")
    if kind == OP_GENERIC:
        return op[2].execute(interp)
    # OP_NOP: its start record did the work.
    return result
