"""Compile-once evaluation structures for the Tcl core.

The paper's performance argument (section 2, Table II) rests on Tcl
values being immutable strings: the parse result of a script can be
cached and re-evaluated cheaply.  The seed interpreter cached only the
raw parse and still re-dispatched on fragment types, re-joined literal
pieces, and re-looked-up the command procedure on every evaluation.
This module goes one step further, in the spirit of Tcl 8.0's
bytecode compiler: a script is compiled *once* into structures that
pre-resolve everything that cannot change between evaluations.

* Words made only of literal fragments are pre-joined into plain
  strings at compile time.
* Commands whose words are all literal carry a precomputed ``argv``;
  evaluating them is a list copy plus a command invocation.
* Words that do need substitution become :class:`CompiledWord` plans
  whose steps are plain strings (adjacent literals merged), variable
  reads (:class:`_VarStep`), or nested compiled scripts
  (:class:`_CmdStep`) — no per-evaluation ``isinstance`` dispatch over
  parser fragments.
* The argument specialization of a literal command is memoized on
  the compiled command, guarded by the interpreter's
  ``commands_epoch`` so that ``proc`` redefinition, ``rename``, and
  command deletion invalidate it immediately.

Compiled objects hold no variable values and no call-frame state, so a
:class:`CompiledScript` is safely re-entrant: the same compiled proc
body can be executing at several stack depths at once.  Nor do they
hold an interpreter: a script's *plan* — its compiled commands, their
substitution plans and its lowered bytecode template — is built once
per process and kept in one bounded LRU (:func:`plan_script`) that
every interpreter draws from.  What belongs to one interpreter, its
bytecode instance with the call sites' inline caches, lives on that
interpreter's copy of the plan (:meth:`CompiledScript.instance`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Union

from . import parser
from .errors import TclError


class _VarStep:
    """A ``$name`` / ``$name(index)`` plan step."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: Optional[object]):
        self.name = name
        #: None, a literal index string, or a CompiledWord plan.
        self.index = index

    def resolve(self, interp) -> str:
        index = self.index
        if index is not None and type(index) is not str:
            index = index.substitute(interp)
        return interp.get_var(self.name, index)


class _CmdStep:
    """A ``[script]`` plan step; the inner script compiles on first use
    and stays attached to the step (it never touches the interpreter's
    bounded cache)."""

    __slots__ = ("script", "compiled")

    def __init__(self, script: str):
        self.script = script
        self.compiled: Optional[CompiledScript] = None

    def resolve(self, interp) -> str:
        compiled = self.compiled
        if compiled is None:
            compiled = self.compiled = compile_script(self.script)
        return interp.eval(compiled)


class CompiledWord:
    """Substitution plan for one word that mixes literal and dynamic
    fragments."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps

    def substitute(self, interp) -> str:
        pieces: List[str] = []
        for step in self.steps:
            if type(step) is str:
                pieces.append(step)
            else:
                pieces.append(step.resolve(interp))
        return "".join(pieces)


class CompiledCommand:
    """One compiled command: plans per word, plus fast paths.

    ``argv`` is the precomputed word list when every word is a pure
    literal (the overwhelmingly common case: ``set a 1``, ``incr i``).

    ``_cmd_state`` is ``(epoch, fast)``, populated only when the first
    word is literal and used only while the command table of that epoch
    is unchanged, so ``rename``, ``proc`` redefinition, and command
    deletion take effect immediately.  ``fast`` is an optional
    *argument specialization*: a command procedure may carry a
    ``specialize`` attribute — a function taking a literal argv and
    returning either None or a closure ``fast(interp) -> str`` with the
    arguments pre-parsed (``set`` pre-splits its variable name,
    ``incr`` pre-parses its increment).  Every interpreter that runs
    the script shares this object, so the memo holds no command
    procedure (which may hold its interpreter), and a specialization
    closure must close over its arguments only.
    """

    __slots__ = ("source", "words", "argv", "_cmd_state")

    def __init__(self, source: str, words: List[Union[str, CompiledWord]]):
        self.source = source
        self.words = words
        all_literal = all(type(word) is str for word in words)
        self.argv: Optional[List[str]] = list(words) if all_literal else None
        self._cmd_state = None

    def execute(self, interp) -> str:
        if interp._tracer.enabled:
            tracer = interp._tracer
            argv = self.argv
            if argv is not None:
                name, widget = argv[0], _span_widget(argv)
            else:
                word = self.words[0]
                name = word if type(word) is str else \
                    (self.source.split() or ["?"])[0]
                widget = None
            span = tracer.begin("cmd", name, widget)
            try:
                return self._execute(interp)
            finally:
                tracer.finish(span)
        return self._execute(interp)

    def _execute(self, interp) -> str:
        state = self._cmd_state
        if state is not None and state[0] == interp.commands_epoch:
            fast = state[1]
            if fast is not None:
                interp._m_commands.value += 1
                try:
                    return fast(interp)
                except TclError as error:
                    _append_error_info(error, self.source)
                    raise
                except interp.native_error_types as error:
                    converted = TclError(str(error))
                    _append_error_info(converted, self.source)
                    raise converted from error
        argv = self.argv
        if argv is not None:
            # Copy so a command procedure that mutates its argv cannot
            # corrupt later evaluations of the cached command.
            argv = argv[:]
        else:
            argv = [word if type(word) is str else word.substitute(interp)
                    for word in self.words]
        proc = interp.commands.get(argv[0])
        if proc is None:
            # Missing command: fall back to the interpreter's
            # ``unknown`` handling.  Never memoized, so a handler that
            # defines the command is picked up next time.
            return interp._invoke(argv, self.source)
        if (state is None or state[0] != interp.commands_epoch) and \
                type(self.words[0]) is str:
            fast = None
            if self.argv is not None:
                special = getattr(proc, "specialize", None)
                if special is not None:
                    fast = special(list(self.argv))
            self._cmd_state = (interp.commands_epoch, fast)
        interp._m_commands.value += 1
        try:
            result = proc(interp, argv)
        except TclError as error:
            _append_error_info(error, self.source)
            raise
        except interp.native_error_types as error:
            converted = TclError(str(error))
            _append_error_info(converted, self.source)
            raise converted from error
        return result if result is not None else ""


class CompiledScript:
    """A script compiled to a sequence of :class:`CompiledCommand`.

    ``single`` names the only command of a one-command script (the
    normal shape for widget ``-command`` strings and simple
    benchmarks), letting the interpreter skip the command loop.

    A CompiledScript is either a *plan*, shared by every interpreter
    (``plan`` is None), or one interpreter's copy of a plan, made by
    :meth:`instance`, which shares the plan's commands.
    """

    __slots__ = ("source", "commands", "single", "vm_code", "plan",
                 "proc_codes")

    def __init__(self, source: str, commands: List[CompiledCommand],
                 plan: Optional["CompiledScript"] = None):
        self.source = source
        self.commands = commands
        self.single: Optional[CompiledCommand] = \
            commands[0] if len(commands) == 1 else None
        #: Bytecode form, built lazily by the VM on first execution: a
        #: plan's template or a copy's instance (see repro.tcl.lower).
        self.vm_code = None
        self.plan = plan
        #: On a plan used as a procedure body: formal names -> the
        #: body's bytecode template with those formals as slots.
        self.proc_codes: Optional[dict] = None

    def instance(self) -> "CompiledScript":
        """An interpreter's own copy of this plan."""
        return CompiledScript(self.source, self.commands, self)

    def execute(self, interp) -> str:
        result = ""
        for command in self.commands:
            result = command.execute(interp)
        return result


def compile_word(word: parser.Word) -> Union[str, CompiledWord]:
    """Compile one parsed word into a string or a substitution plan."""
    parts = word.parts
    if all(type(part) is parser.Literal for part in parts):
        if len(parts) == 1:
            return parts[0].text
        return "".join(part.text for part in parts)
    steps: List[object] = []
    buffered: List[str] = []
    for part in parts:
        if type(part) is parser.Literal:
            buffered.append(part.text)
            continue
        if buffered:
            steps.append("".join(buffered))
            del buffered[:]
        if type(part) is parser.VarSub:
            index = None
            if part.index is not None:
                index = compile_word(part.index)
            steps.append(_VarStep(part.name, index))
        else:
            steps.append(_CmdStep(part.script))
    if buffered:
        steps.append("".join(buffered))
    return CompiledWord(tuple(steps))


def compile_command(command: parser.Command) -> CompiledCommand:
    return CompiledCommand(command.source,
                           [compile_word(word) for word in command.words])


def compile_script(script: str) -> CompiledScript:
    """Compile a script string into a :class:`CompiledScript`."""
    return CompiledScript(
        script, [compile_command(command)
                 for command in parser.parse_script(script)])


#: Bounded LRU of script text -> plan, shared by every interpreter of
#: the process (as ``expr._AST_CACHE`` shares expression trees).
#: Overflow evicts only the least recently used plan.
_PLANS: "OrderedDict[str, CompiledScript]" = OrderedDict()
_PLAN_LIMIT = 2048


def plan_script(script: str) -> CompiledScript:
    """The process-wide plan of a script, compiled on first sight."""
    plan = _PLANS.get(script)
    if plan is None:
        plan = compile_script(script)
        if len(_PLANS) >= _PLAN_LIMIT:
            _PLANS.popitem(last=False)
        _PLANS[script] = plan
    else:
        _PLANS.move_to_end(script)
    return plan


def _span_widget(argv: List[str]) -> Optional[str]:
    """Best-effort widget attribution for a command invocation.

    Widget commands are named after their window path (``.b configure
    ...``); creation commands take the path as the first argument
    (``button .b ...``).
    """
    if argv[0].startswith("."):
        return argv[0]
    if len(argv) > 1 and argv[1].startswith("."):
        return argv[1]
    return None


def _append_error_info(error: TclError, source: str) -> None:
    """Accumulate a human-readable trace as the error propagates.

    Identical to the interpreter's own accumulation so compiled and
    interpreted evaluation produce the same ``errorInfo``.
    """
    info = getattr(error, "info", None)
    if info is None:
        error.info = [error.message]
        info = error.info
    if len(info) >= 40:
        return
    shown = source if len(source) <= 150 else source[:147] + "..."
    info.append('    while executing\n"%s"' % shown)
