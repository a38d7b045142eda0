"""The Tcl interpreter (paper section 2, Figure 6).

The interpreter is a library object that an application embeds.  The
application registers *command procedures*; the interpreter parses
command strings, performs backslash/variable/command substitution, looks
up the command procedure named by the first word, and invokes it.
Application-specific and built-in commands are indistinguishable, may be
created and deleted at any time, and all traffic in string values only.

A command procedure is any Python callable ``proc(interp, argv)`` where
``argv`` is the fully substituted word list (``argv[0]`` is the command
name).  It returns the result string (``None`` means empty result) or
raises :class:`~repro.tcl.errors.TclError`.
"""

from __future__ import annotations

import itertools as _itertools
import time as _time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Union

from . import parser
from ..obs import Observability
# ``compile_script`` stays bound here (and in ``vm``) for tools that
# wrap it by module, such as perfbench's ``tcl.compile`` site.
from .compile import (CompiledScript, _append_error_info,  # noqa: F401
                      compile_script, plan_script)
from .errors import (TclBreak, TclContinue, TclError, TclReturn,
                     _FlowControl)
from .lists import format_list, parse_list
from .value import (SlotLink as _SlotLink, UNSET as _UNSET, Value as _Value,
                    to_str as _to_value_str)
from . import lower as _lower, vm as _vm

CommandProc = Callable[["Interp", List[str]], Optional[str]]

#: Values stored in a call frame: a scalar string or an array (dict).
VarValue = Union[str, Dict[str, str]]

_MAX_NESTING_DEPTH = 1000
#: Bound on each interpreter's LRU of compiled scripts.  Overflow
#: evicts only the least recently used entry, so hot scripts (bindings,
#: loop bodies) survive an application that churns through many
#: one-off scripts.
_COMPILE_CACHE_LIMIT = 2048
#: Source of ``commands_epoch`` values: every change to any
#: interpreter's command table takes the next one, so an epoch names
#: one table at one moment and compiled objects shared between
#: interpreters can key their memos on it alone.
_EPOCHS = _itertools.count(1)

# The tree-walking tiers (``bytecode_enabled=False`` and
# ``compile_enabled=False``) spend several Python stack frames per Tcl
# nesting level; make sure Python's limit is not hit before Tcl's own
# _MAX_NESTING_DEPTH diagnostic can trigger there.  The bytecode VM runs
# procedure calls, substitutions and bodies in one dispatch loop and
# does not need the raised limit.
import sys as _sys  # noqa: E402  (deliberate placement with its setting)

if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)


class CallFrame:
    """One level of the procedure call stack.

    ``variables`` maps names to scalar strings or array dicts.
    ``links`` maps names to ``(frame, name)`` targets created by
    ``global`` and ``upvar``.

    Frames pushed by the bytecode VM additionally carry indexed local
    slots for the procedure's formals: ``slot_map`` maps formal names
    to indexes into ``slots``.  A name lives *either* in ``slot_map``
    or in the dicts, never both, so dict-only frames (``slot_map is
    None``) behave exactly as before.  A slot holds a scalar, an array
    dict, a :class:`~repro.tcl.value.SlotLink` alias, or the UNSET
    sentinel.
    """

    __slots__ = ("variables", "links", "level", "proc_name", "argv",
                 "slots", "slot_map")

    def __init__(self, level: int, proc_name: str = "",
                 argv: Optional[List[str]] = None):
        self.variables: Dict[str, VarValue] = {}
        self.links: Dict[str, tuple] = {}
        self.level = level
        self.proc_name = proc_name
        self.argv = argv or []
        self.slots: Optional[list] = None
        self.slot_map: Optional[Dict[str, int]] = None

    def has_local(self, name: str) -> bool:
        """True if ``name`` is a set local variable (not a link)."""
        slot_map = self.slot_map
        if slot_map is not None:
            ix = slot_map.get(name)
            if ix is not None:
                cell = self.slots[ix]
                return cell is not _UNSET and type(cell) is not _SlotLink
        return name in self.variables

    def has_link(self, name: str) -> bool:
        """True if ``name`` is an upvar/global alias in this frame."""
        slot_map = self.slot_map
        if slot_map is not None:
            ix = slot_map.get(name)
            if ix is not None:
                return type(self.slots[ix]) is _SlotLink
        return name in self.links

    def local_names(self) -> List[str]:
        """Names of set local variables (``info locals``)."""
        names = list(self.variables)
        slot_map = self.slot_map
        if slot_map is not None:
            for name, ix in slot_map.items():
                cell = self.slots[ix]
                if cell is not _UNSET and type(cell) is not _SlotLink:
                    names.append(name)
        return names

    def var_names(self) -> List[str]:
        """Names of set-or-linked variables (``info vars``)."""
        names = set(self.variables) | set(self.links)
        slot_map = self.slot_map
        if slot_map is not None:
            for name, ix in slot_map.items():
                if self.slots[ix] is not _UNSET:
                    names.add(name)
        return list(names)


class Proc:
    """A procedure defined with the ``proc`` command.

    ``compiled`` is the body's shared plan (:func:`plan_script`),
    taken on first call; it lives on the procedure object itself, so
    procedure calls never touch (or evict from) the interpreter's
    bounded script cache.  Redefining the procedure installs a fresh
    ``Proc``.  ``vm_code`` is this procedure's bytecode instance (made
    on the first call under the VM), with the formals resolved to
    local-variable slot indexes.
    """

    __slots__ = ("name", "formals", "body", "compiled", "vm_code")

    def __init__(self, name: str, formals: List[List[str]], body: str):
        self.name = name
        self.formals = formals
        self.body = body
        self.compiled: Optional[CompiledScript] = None
        self.vm_code = None

    def __call__(self, interp: "Interp", argv: List[str]) -> str:
        return interp.call_proc(self, argv)

    def args_string(self) -> str:
        return format_list(formal[0] for formal in self.formals)


class Interp:
    """A Tcl interpreter with its command table and variables."""

    def __init__(self, stdout=None, compile_enabled: bool = True,
                 obs: Optional[Observability] = None,
                 obs_enabled: bool = True,
                 bytecode_enabled: bool = True):
        self.commands: Dict[str, CommandProc] = {}
        self.global_frame = CallFrame(level=0)
        self.frames: List[CallFrame] = [self.global_frame]
        self.depth = 0
        self.stdout = stdout
        #: Ablation flag (mirrors ``ResourceCache(enabled=False)``):
        #: when False every evaluation re-parses and re-substitutes
        #: from scratch, with no compiled-script or expression caching.
        self.compile_enabled = compile_enabled
        #: Ablation flag for the bytecode VM: when False, compiled
        #: scripts are executed by the tree-walking CompiledCommand
        #: path exactly as before the VM existed.  (The VM also stands
        #: down while the span tracer is collecting, so trace trees
        #: keep their exact per-command shape.)
        self.bytecode_enabled = bytecode_enabled
        #: True while no variable traces are installed: the VM may
        #: read/write frame storage directly.  ``trace`` flips it and
        #: the VM falls back to the (hooked) get_var/set_var methods.
        self._vm_direct = True
        #: True while the outermost VM dispatch loop runs on its own
        #: stack chunk (see ``vm.run``).
        self._vm_spaced = False
        #: LRU of script text -> this interpreter's copy of the
        #: script's shared plan, bounded by ``_compile_limit`` (an
        #: attribute so tests can shrink it).
        self._compile_cache: "OrderedDict[str, CompiledScript]" = \
            OrderedDict()
        self._compile_limit = _COMPILE_CACHE_LIMIT
        #: Observability hub: metrics + span tracer (``obs`` command).
        #: A standalone interpreter owns its own; a Tk application
        #: rebinds it into the application-wide hub (see rebind_obs).
        #: ``obs_enabled=False`` is the ablation flag for measuring the
        #: cost of the instrumentation itself: counters still exist
        #: (they are the storage for cmd_count etc.) but the tracer is
        #: never consulted on hot paths.
        self.obs = obs if obs is not None else Observability()
        self.obs_enabled = obs_enabled
        #: Compile-cache effectiveness counters (``info compilecache``).
        self._m_compile_hits = self.obs.metrics.counter("tcl.compile.hits")
        self._m_compile_misses = \
            self.obs.metrics.counter("tcl.compile.misses")
        #: Total commands executed (``info cmdcount``).
        self._m_commands = self.obs.metrics.counter("tcl.commands")
        #: Bytecode VM counters: compilations, opcode dispatches, and
        #: command-resolution inline-cache hits.
        self._m_vm_compiles = self.obs.metrics.counter("tcl.vm.compiles")
        self._m_vm_dispatches = \
            self.obs.metrics.counter("tcl.vm.dispatches")
        self._m_vm_cache_hits = \
            self.obs.metrics.counter("tcl.vm.inline_cache_hits")
        self._tracer = self.obs.tracer if obs_enabled else None
        #: Precomputed "is the tracer collecting" flag, maintained by a
        #: tracer start/stop listener: the command hot path tests one
        #: boolean whether observability is enabled or ablated, so the
        #: shipping configuration pays nothing over the ablation.
        self._trace_on = False
        if obs_enabled:
            self.obs.tracer.listeners.append(self._set_trace_on)
            self._trace_on = self.obs.tracer.enabled
        #: Renewed (from ``_EPOCHS``) whenever the command table
        #: changes; compiled commands and bytecode memoize command
        #: resolution against this, so ``rename``/redefinition/deletion
        #: invalidate instantly.
        self.commands_epoch = next(_EPOCHS)
        #: Exception types raised by the embedding's native layer (Tk
        #: sets this to ``(XProtocolError,)``) that command invocation
        #: converts into ordinary TclErrors, so scripts can ``catch``
        #: them and ``bgerror`` can report them — a native failure must
        #: never leak a raw Python exception through ``eval``.
        self.native_error_types: tuple = ()
        #: Hook consulted when a command is not found; replaceable by
        #: registering a Tcl command named "unknown".
        self.deleted = False
        from .commands import register_builtins
        register_builtins(self)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def compile_hits(self) -> int:
        return self._m_compile_hits.value

    @property
    def compile_misses(self) -> int:
        return self._m_compile_misses.value

    @property
    def cmd_count(self) -> int:
        return self._m_commands.value

    def _set_trace_on(self, enabled: bool) -> None:
        self._trace_on = enabled

    def rebind_obs(self, obs: Observability) -> None:
        """Join an application-wide observability hub.

        The hub absorbs this interpreter's metric *objects* — handles
        cached on hot paths keep counting into the same storage — and
        the interpreter's spans flow to the hub's tracer (which runs on
        the application's virtual clock).
        """
        obs.metrics.absorb(self.obs.metrics)
        self.detach_tracer()
        self.obs = obs
        if self.obs_enabled:
            self._tracer = obs.tracer
            obs.tracer.listeners.append(self._set_trace_on)
            self._trace_on = obs.tracer.enabled

    def detach_tracer(self) -> None:
        """Stop following the hub tracer's start and stop.

        The tracer may outlive this interpreter (a Tk application's is
        its display's), and its listener list would keep it alive.
        """
        listeners = self.obs.tracer.listeners
        if self._set_trace_on in listeners:
            listeners.remove(self._set_trace_on)
        self._trace_on = False

    # ------------------------------------------------------------------
    # Command registration (Figure 6: "register application commands")
    # ------------------------------------------------------------------

    def register(self, name: str, proc: CommandProc) -> None:
        """Register (or replace) a command procedure under ``name``."""
        self.commands[name] = proc
        self.commands_epoch = next(_EPOCHS)

    def unregister(self, name: str) -> None:
        """Delete a command; unknown names raise an error."""
        if name not in self.commands:
            raise TclError('can\'t delete "%s": command doesn\'t exist'
                           % name)
        del self.commands[name]
        self.commands_epoch = next(_EPOCHS)

    def rename(self, old: str, new: str) -> None:
        if old not in self.commands:
            raise TclError('can\'t rename "%s": command doesn\'t exist'
                           % old)
        if new == "":
            del self.commands[old]
            self.commands_epoch = next(_EPOCHS)
            return
        if new in self.commands:
            raise TclError('can\'t rename to "%s": command already exists'
                           % new)
        self.commands[new] = self.commands.pop(old)
        self.commands_epoch = next(_EPOCHS)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def eval(self, script: Union[str, CompiledScript]) -> str:
        """Evaluate a script; the result is the last command's result.

        ``script`` may be a string or a :class:`CompiledScript`
        returned by :meth:`compile` (event bindings and widget
        ``-command`` options pre-compile their scripts this way).
        """
        if self.depth >= _MAX_NESTING_DEPTH:
            raise TclError(
                "too many nested calls to Tcl_Eval (infinite loop?)")
        self.depth += 1
        try:
            if not isinstance(script, str):
                compiled = script
            elif self.compile_enabled:
                compiled = self._compiled(script)
            else:
                # Ablation path: re-parse and re-substitute every time.
                result = ""
                for command in parser.parse_script(script):
                    result = self._eval_command(command)
                return result
            if self.bytecode_enabled and self.compile_enabled and \
                    not self._trace_on:
                code = compiled.vm_code
                if code is None:
                    code = _lower.code_for_script(self, compiled)
                result = _vm.run(self, code, self.frames[-1])
                if type(result) is str or type(result) is _Value:
                    return result
                return _to_value_str(result)
            single = compiled.single
            if single is not None:
                return single.execute(self)
            return compiled.execute(self)
        finally:
            self.depth -= 1

    def compile(self, script: str) -> Union[str, CompiledScript]:
        """Compile a script for repeated evaluation.

        Returns a :class:`CompiledScript` (through the interpreter's
        bounded cache) — or the script unchanged when compilation is
        disabled, so callers can hold the result and pass it to
        :meth:`eval` either way.
        """
        if not self.compile_enabled or not isinstance(script, str):
            return script
        return self._compiled(script)

    def eval_top(self, script: Union[str, CompiledScript]) -> str:
        """Evaluate at top level, recording errorInfo in the global var.

        This is what event bindings and the main program use: any error
        unwinds to here, where the accumulated trace is stored in the
        global ``errorInfo`` variable before the error is re-raised.
        When no evaluation is in progress (Tcl's ``numLevels == 0``) a
        stray ``return``, ``break`` or ``continue`` ends here too (see
        :meth:`_stray_flow`); inside a running evaluation it propagates,
        so a widget ``-command`` invoked from a loop body can still
        break that loop.
        """
        if self._trace_on:
            tracer = self._tracer
            source = script.source \
                if isinstance(script, CompiledScript) else script
            span = tracer.begin("eval", _span_name(source))
            try:
                return self._eval_top(script)
            finally:
                tracer.finish(span)
        return self._eval_top(script)

    def _eval_top(self, script: Union[str, CompiledScript]) -> str:
        try:
            return self.eval(script)
        except TclError as error:
            self.set_global_var("errorInfo", _error_info(error))
            raise
        except _FlowControl as flow:
            if self.depth:
                raise
            return self._stray_flow(flow)

    def _stray_flow(self, flow: _FlowControl) -> str:
        """Settle a ``return``, ``break`` or ``continue`` that reached
        the top of a script: ``return`` completes normally with its
        value; ``break`` and ``continue`` become errors, with errorInfo
        recorded, as in Tcl."""
        if isinstance(flow, TclReturn):
            return flow.value
        error = TclError('invoked "%s" outside of a loop'
                         % ("break" if isinstance(flow, TclBreak)
                            else "continue"))
        self.set_global_var("errorInfo", _error_info(error))
        raise error

    def eval_global(self, script: Union[str, CompiledScript]) -> str:
        """Evaluate at global variable scope (like ``uplevel #0``).

        Deferred scripts — event bindings, timer handlers, widget
        -commands, sends — run at global level in Tcl, whatever
        procedure happens to be executing when they fire.
        """
        saved = self.frames
        self.frames = [self.global_frame]
        try:
            return self.eval_top(script)
        finally:
            self.frames = saved

    def eval_detached(self, script: Union[str, CompiledScript]) -> str:
        """:meth:`eval_global` for a script that is not part of the
        evaluation in progress: a timer or binding handler, a sent
        command.  A stray ``return``, ``break`` or ``continue`` ends at
        the top of the script even when it runs from ``update`` inside
        a loop body."""
        try:
            return self.eval_global(script)
        except _FlowControl as flow:
            return self._stray_flow(flow)

    def eval_background(self, script: Union[str, CompiledScript]) -> str:
        """Evaluate a *background* script (binding/timer/callback).

        If the script fails and the application has defined a
        ``bgerror`` procedure (wish's library provides one) — or the
        historical ``tkerror`` — the error is reported through it and
        swallowed, so one broken binding cannot kill the event loop;
        without a handler the error propagates as usual.
        """
        try:
            return self.eval_detached(script)
        except TclError as error:
            handler = None
            for candidate in ("bgerror", "tkerror"):
                if candidate in self.commands:
                    handler = candidate
                    break
            if handler is None:
                raise
            from .lists import quote_element
            try:
                self.eval_global("%s %s"
                                 % (handler, quote_element(error.message)))
            except TclError:
                pass  # a broken bgerror must not re-kill the loop
            return ""

    def _compiled(self, script: str) -> CompiledScript:
        """This interpreter's compiled form of a script, LRU-style; a
        miss copies the script's process-wide plan."""
        cache = self._compile_cache
        compiled = cache.get(script)
        if compiled is not None:
            self._m_compile_hits.value += 1
            cache.move_to_end(script)
            return compiled
        self._m_compile_misses.value += 1
        compiled = plan_script(script).instance()
        if len(cache) >= self._compile_limit:
            cache.popitem(last=False)
        cache[script] = compiled
        return compiled

    def _eval_command(self, command: parser.Command) -> str:
        argv = [self.substitute_word(word) for word in command.words]
        return self._invoke(argv, command.source)

    def _invoke(self, argv: List[str], source: str) -> str:
        if self._trace_on:
            tracer = self._tracer
            span = tracer.begin("cmd", argv[0], _span_widget(argv))
            try:
                return self._invoke_untraced(argv, source)
            finally:
                tracer.finish(span)
        return self._invoke_untraced(argv, source)

    def _invoke_untraced(self, argv: List[str], source: str) -> str:
        proc = self.commands.get(argv[0])
        if proc is None:
            unknown = self.commands.get("unknown")
            if unknown is not None:
                self._m_commands.value += 1
                return unknown(self, ["unknown"] + argv) or ""
            raise TclError('invalid command name "%s"' % argv[0])
        self._m_commands.value += 1
        try:
            result = proc(self, argv)
        except TclError as error:
            _append_error_info(error, source)
            raise
        except self.native_error_types as error:
            converted = TclError(str(error))
            _append_error_info(converted, source)
            raise converted from error
        return result if result is not None else ""

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------

    def substitute_word(self, word: parser.Word) -> str:
        parts = word.parts
        if len(parts) == 1 and isinstance(parts[0], parser.Literal):
            return parts[0].text
        pieces: List[str] = []
        for part in parts:
            if isinstance(part, parser.Literal):
                pieces.append(part.text)
            elif isinstance(part, parser.VarSub):
                pieces.append(self.value_of(part))
            else:
                pieces.append(self.eval(part.script))
        return "".join(pieces)

    def substitute(self, text: str) -> str:
        """Perform backslash/variable/command substitution on a string."""
        return self.substitute_word(parser.parse_substitution(text))

    def value_of(self, var: parser.VarSub) -> str:
        index = None
        if var.index is not None:
            index = self.substitute_word(var.index)
        return self.get_var(var.name, index)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    @property
    def current_frame(self) -> CallFrame:
        return self.frames[-1]

    def _resolve(self, frame: CallFrame, name: str) -> tuple:
        """Follow upvar/global links to the owning frame.

        Links live either in the frame's ``links`` dict or — for
        aliased formals on VM frames — in the local slot itself.
        """
        seen = 0
        while True:
            link = frame.links.get(name) if frame.links else None
            if link is None:
                slot_map = frame.slot_map
                if slot_map is not None:
                    ix = slot_map.get(name)
                    if ix is not None:
                        cell = frame.slots[ix]
                        if type(cell) is _SlotLink:
                            frame, name = cell.frame, cell.name
                            seen += 1
                            if seen > len(self.frames) + 1:
                                raise TclError(
                                    'circular variable link for "%s"'
                                    % name)
                            continue
                return frame, name
            frame, name = link
            seen += 1
            if seen > len(self.frames) + 1:
                raise TclError('circular variable link for "%s"' % name)

    def _read_cell(self, frame: CallFrame, name: str):
        """The raw stored value at a resolved (frame, name), or None."""
        slot_map = frame.slot_map
        if slot_map is not None:
            ix = slot_map.get(name)
            if ix is not None:
                cell = frame.slots[ix]
                return None if cell is _UNSET else cell
        return frame.variables.get(name)

    def get_var(self, name: str, index: Optional[str] = None,
                frame: Optional[CallFrame] = None) -> str:
        frame, name = self._resolve(frame or self.current_frame, name)
        slot_ix = None
        slot_map = frame.slot_map
        if slot_map is not None:
            slot_ix = slot_map.get(name)
        if slot_ix is not None:
            value = frame.slots[slot_ix]
            if value is _UNSET:
                value = None
        else:
            value = frame.variables.get(name)
        if value is None:
            raise TclError('can\'t read "%s": no such variable'
                           % _display_name(name, index))
        if index is None:
            cls = type(value)
            if cls is str or cls is _Value:
                return value
            if cls is dict:
                raise TclError(
                    'can\'t read "%s": variable is array' % name)
            # Dual-rep: the VM stores raw numbers; the string rep is
            # materialized (once) on the first string-level read and
            # written back so later reads return the same object.
            text = _to_value_str(value)
            if slot_ix is not None:
                frame.slots[slot_ix] = text
            else:
                frame.variables[name] = text
            return text
        if not isinstance(value, dict):
            raise TclError(
                'can\'t read "%s(%s)": variable isn\'t array'
                % (name, index))
        if index not in value:
            raise TclError('can\'t read "%s(%s)": no such element'
                           % (name, index))
        return value[index]

    def set_var(self, name: str, value: str,
                index: Optional[str] = None,
                frame: Optional[CallFrame] = None) -> str:
        frame, name = self._resolve(frame or self.current_frame, name)
        slot_ix = None
        slot_map = frame.slot_map
        if slot_map is not None:
            slot_ix = slot_map.get(name)
        if slot_ix is not None:
            existing = frame.slots[slot_ix]
            if existing is _UNSET:
                existing = None
            if index is None:
                if type(existing) is dict:
                    raise TclError(
                        'can\'t set "%s": variable is array' % name)
                frame.slots[slot_ix] = value
                return value
            if existing is None:
                existing = {}
                frame.slots[slot_ix] = existing
            elif not isinstance(existing, dict):
                raise TclError(
                    'can\'t set "%s(%s)": variable isn\'t array'
                    % (name, index))
            existing[index] = value
            return value
        if index is None:
            if isinstance(frame.variables.get(name), dict):
                raise TclError(
                    'can\'t set "%s": variable is array' % name)
            frame.variables[name] = value
            return value
        existing = frame.variables.get(name)
        if existing is None:
            existing = {}
            frame.variables[name] = existing
        elif not isinstance(existing, dict):
            raise TclError(
                'can\'t set "%s(%s)": variable isn\'t array'
                % (name, index))
        existing[index] = value
        return value

    def unset_var(self, name: str, index: Optional[str] = None,
                  frame: Optional[CallFrame] = None) -> None:
        frame, name = self._resolve(frame or self.current_frame, name)
        slot_map = frame.slot_map
        if slot_map is not None:
            slot_ix = slot_map.get(name)
            if slot_ix is not None:
                value = frame.slots[slot_ix]
                if value is _UNSET:
                    raise TclError('can\'t unset "%s": no such variable'
                                   % _display_name(name, index))
                if index is None:
                    frame.slots[slot_ix] = _UNSET
                    return
                if not isinstance(value, dict) or index not in value:
                    raise TclError(
                        'can\'t unset "%s(%s)": no such element'
                        % (name, index))
                del value[index]
                return
        if name not in frame.variables:
            raise TclError('can\'t unset "%s": no such variable'
                           % _display_name(name, index))
        if index is None:
            del frame.variables[name]
            return
        value = frame.variables[name]
        if not isinstance(value, dict) or index not in value:
            raise TclError('can\'t unset "%s(%s)": no such element'
                           % (name, index))
        del value[index]

    def var_exists(self, name: str, index: Optional[str] = None) -> bool:
        try:
            frame, name = self._resolve(self.current_frame, name)
        except TclError:
            return False
        value = self._read_cell(frame, name)
        if value is None:
            return False
        if index is None:
            return True
        return isinstance(value, dict) and index in value

    def set_global_var(self, name: str, value: str,
                       index: Optional[str] = None) -> str:
        return self.set_var(name, value, index, frame=self.global_frame)

    def get_global_var(self, name: str, index: Optional[str] = None) -> str:
        return self.get_var(name, index, frame=self.global_frame)

    def link_var(self, frame: CallFrame, local_name: str,
                 target_frame: CallFrame, target_name: str) -> None:
        """Create an upvar/global style alias."""
        slot_map = frame.slot_map
        if slot_map is not None:
            ix = slot_map.get(local_name)
            if ix is not None:
                cell = frame.slots[ix]
                if cell is not _UNSET and type(cell) is not _SlotLink:
                    raise TclError(
                        'variable "%s" already exists' % local_name)
                frame.slots[ix] = _SlotLink(target_frame, target_name)
                return
        if local_name in frame.variables:
            raise TclError(
                'variable "%s" already exists' % local_name)
        frame.links[local_name] = (target_frame, target_name)

    # ------------------------------------------------------------------
    # Procedures
    # ------------------------------------------------------------------

    def define_proc(self, name: str, args_spec: str, body: str) -> None:
        formals: List[List[str]] = []
        for formal in parse_list(args_spec):
            pieces = parse_list(formal)
            if len(pieces) not in (1, 2) or not pieces:
                raise TclError(
                    'procedure "%s" has argument with too many fields'
                    % name)
            formals.append(pieces)
        self.commands[name] = Proc(name, formals, body)
        self.commands_epoch = next(_EPOCHS)

    def call_proc(self, proc: Proc, argv: List[str]) -> str:
        if self._trace_on:
            tracer = self._tracer
            span = tracer.begin("proc", proc.name)
            try:
                return self._call_proc(proc, argv)
            finally:
                tracer.finish(span)
        return self._call_proc(proc, argv)

    def _call_proc(self, proc: Proc, argv: List[str]) -> str:
        if self.bytecode_enabled and self.compile_enabled and \
                not self._trace_on:
            return self._call_proc_vm(proc, argv)
        body: Union[str, CompiledScript] = proc.body
        if self.compile_enabled:
            body = proc.compiled = proc.compiled or plan_script(proc.body)
        frame = CallFrame(level=len(self.frames), proc_name=proc.name,
                          argv=argv)
        frame.variables.update(zip((formal[0] for formal in proc.formals),
                                   self._bind_slots(proc, argv)))
        self.frames.append(frame)
        try:
            try:
                return self.eval(body)
            except TclReturn as ret:
                return ret.value
            except TclBreak:
                raise TclError(
                    'invoked "break" outside of a loop')
            except TclContinue:
                raise TclError(
                    'invoked "continue" outside of a loop')
        finally:
            self.frames.pop()

    def _call_proc_vm(self, proc: Proc, argv: List[str]) -> str:
        """Procedure call on the bytecode path from outside the VM's
        dispatch loop (a call from bytecode pushes a frame record in
        the loop instead): body compiled to bytecode once (on the Proc,
        like ``compiled``), formals bound straight into indexed slots,
        no name-dict traffic."""
        code, frame = _vm.enter_proc(self, proc, argv)
        try:
            try:
                result = _vm.run(self, code, frame)
                if type(result) is str or type(result) is _Value:
                    return result
                return _to_value_str(result)
            except TclReturn as ret:
                return ret.value
            except TclBreak:
                raise TclError(
                    'invoked "break" outside of a loop')
            except TclContinue:
                raise TclError(
                    'invoked "continue" outside of a loop')
        finally:
            self.frames.pop()
            self.depth -= 1

    def _bind_slots(self, proc: Proc, argv: List[str]) -> list:
        """Argument values for ``proc``'s formals, in formal order: a
        trailing ``args`` collects the rest as a list, missing ones take
        their defaults; raises Tcl's arity errors."""
        supplied = argv[1:]
        formals = proc.formals
        n_supplied = len(supplied)
        slots: list = []
        for position, formal in enumerate(formals):
            name = formal[0]
            if name == "args" and position == len(formals) - 1:
                slots.append(format_list(supplied[position:]))
                return slots
            if position < n_supplied:
                slots.append(supplied[position])
            elif len(formal) == 2:
                slots.append(formal[1])
            else:
                raise TclError(
                    'no value given for parameter "%s" to "%s"'
                    % (name, proc.name))
        if n_supplied > len(formals):
            raise TclError(
                'called "%s" with too many arguments' % proc.name)
        return slots

    def frame_at_level(self, level_spec: str,
                       default_up_one: bool = True) -> CallFrame:
        """Resolve a level argument as used by uplevel/upvar.

        ``#n`` is absolute; a plain number is relative to the current
        frame; the default is one level up.
        """
        if level_spec.startswith("#"):
            try:
                level = int(level_spec[1:])
            except ValueError:
                raise TclError('bad level "%s"' % level_spec)
        else:
            try:
                up = int(level_spec)
            except ValueError:
                raise TclError('bad level "%s"' % level_spec)
            level = self.current_frame.level - up
        if level < 0 or level >= len(self.frames):
            raise TclError('bad level "%s"' % level_spec)
        return self.frames[level]

    # ------------------------------------------------------------------
    # Utilities used by command implementations
    # ------------------------------------------------------------------

    def write(self, text: str) -> None:
        """Write to the interpreter's standard output channel."""
        if self.stdout is not None:
            self.stdout.write(text)

    def timer(self) -> float:
        """Seconds counter used by the ``time`` command (overridable)."""
        return _time.perf_counter()


def _display_name(name: str, index: Optional[str]) -> str:
    return "%s(%s)" % (name, index) if index is not None else name


def _span_name(source: str, limit: int = 48) -> str:
    """A script condensed to one short line for span labels."""
    name = " ".join(source.split())
    if len(name) > limit:
        name = name[:limit - 3] + "..."
    return name


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


def _error_info(error: TclError) -> str:
    info = getattr(error, "info", None)
    if not info:
        return error.message
    return "\n".join(info)
