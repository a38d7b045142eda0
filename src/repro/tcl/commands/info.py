"""Introspection commands: info, rename, time.

Tcl "provides access to its own internals" (paper section 8): the body
of a procedure, the names of all commands and variables, and so on can
all be retrieved at runtime.
"""

from __future__ import annotations

from typing import List

from ..errors import TclError
from ..interp import Proc
from ..lists import format_list
from ..strings import glob_match, _to_int
from .variables import split_var_name

_VERSION = "6.1"


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def _filtered(names, pattern):
    if pattern is not None:
        names = [name for name in names if glob_match(pattern, name)]
    return format_list(sorted(names))


def cmd_info(interp, argv: List[str]) -> str:
    if len(argv) < 2:
        raise _wrong_args("info option ?arg ...?")
    option = argv[1]
    pattern = argv[2] if len(argv) > 2 else None
    if option == "commands":
        return _filtered(interp.commands.keys(), pattern)
    if option == "procs":
        names = [name for name, proc in interp.commands.items()
                 if isinstance(proc, Proc)]
        return _filtered(names, pattern)
    if option == "exists":
        if len(argv) != 3:
            raise _wrong_args("info exists varName")
        name, index = split_var_name(argv[2])
        return "1" if interp.var_exists(name, index) else "0"
    if option == "globals":
        return _filtered(interp.global_frame.variables.keys(), pattern)
    if option == "locals":
        return _filtered(interp.current_frame.local_names(), pattern)
    if option == "vars":
        return _filtered(interp.current_frame.var_names(), pattern)
    if option == "level":
        if len(argv) == 2:
            return str(interp.current_frame.level)
        level = _to_int(argv[2])
        if level < 0:
            level = interp.current_frame.level + level
        if level <= 0 or level >= len(interp.frames):
            raise TclError('bad level "%s"' % argv[2])
        return format_list(interp.frames[level].argv)
    if option == "body":
        proc = _lookup_proc(interp, argv, "body")
        return proc.body
    if option == "args":
        proc = _lookup_proc(interp, argv, "args")
        return proc.args_string()
    if option == "default":
        if len(argv) != 5:
            raise _wrong_args("info default procName arg varName")
        proc = interp.commands.get(argv[2])
        if not isinstance(proc, Proc):
            raise TclError('"%s" isn\'t a procedure' % argv[2])
        for formal in proc.formals:
            if formal[0] == argv[3]:
                if len(formal) == 2:
                    interp.set_var(argv[4], formal[1])
                    return "1"
                interp.set_var(argv[4], "")
                return "0"
        raise TclError(
            'procedure "%s" doesn\'t have an argument "%s"'
            % (argv[2], argv[3]))
    if option == "disassemble":
        # Bytecode listing of a procedure (by name) or a script
        # string; compiles on demand so the output is available even
        # before the first call.
        if len(argv) != 3:
            raise _wrong_args("info disassemble procOrScript")
        from .. import lower
        from ..compile import compile_script
        target = interp.commands.get(argv[2])
        if isinstance(target, Proc):
            return lower.disassemble(
                target.vm_code or lower.code_for_proc(interp, target))
        compiled = interp.compile(argv[2])
        if isinstance(compiled, str):
            compiled = compile_script(compiled)
        code = compiled.vm_code
        if code is None:
            code = lower.code_for_script(interp, compiled)
        return lower.disassemble(code)
    if option == "tclversion":
        return _VERSION
    if option == "cmdcount":
        if len(argv) != 2:
            raise _wrong_args("info cmdcount")
        return str(interp.cmd_count)
    if option == "compilecache":
        # Cache effectiveness in the same spirit as ResourceCache.stats():
        # a hits/misses list the EXPERIMENTS harnesses can parse.
        if len(argv) != 2:
            raise _wrong_args("info compilecache")
        return format_list(["hits", str(interp.compile_hits),
                            "misses", str(interp.compile_misses)])
    if option == "metrics":
        # Every metric the interpreter's observability hub can see, as
        # a flat name/value list (histograms report their observation
        # count).  ``info metrics ?pattern?`` filters glob-style.
        if len(argv) > 3:
            raise _wrong_args("info metrics ?pattern?")
        from ..strings import glob_match
        pattern = argv[2] if len(argv) == 3 else None
        pairs: List[str] = []
        for key, metric in sorted(interp.obs.metrics._all().items()):
            if pattern is not None and not glob_match(pattern, key):
                continue
            pairs.append(key)
            pairs.append(str(metric.value))
        return format_list(pairs)
    raise TclError(
        'bad option "%s": should be args, body, cmdcount, commands, '
        'compilecache, default, disassemble, exists, globals, level, '
        'locals, metrics, procs, tclversion, or vars'
        % option)


def _lookup_proc(interp, argv: List[str], what: str) -> Proc:
    if len(argv) != 3:
        raise _wrong_args("info %s procName" % what)
    proc = interp.commands.get(argv[2])
    if not isinstance(proc, Proc):
        raise TclError('"%s" isn\'t a procedure' % argv[2])
    return proc


def cmd_rename(interp, argv: List[str]) -> str:
    if len(argv) != 3:
        raise _wrong_args("rename oldName newName")
    interp.rename(argv[1], argv[2])
    return ""


def cmd_time(interp, argv: List[str]) -> str:
    if len(argv) not in (2, 3):
        raise _wrong_args("time command ?count?")
    count = _to_int(argv[2]) if len(argv) == 3 else 1
    if count <= 0:
        return "0 microseconds per iteration"
    start = interp.timer()
    for _ in range(count):
        interp.eval(argv[1])
    elapsed = interp.timer() - start
    per_iteration = int(elapsed * 1_000_000 / count)
    return "%d microseconds per iteration" % per_iteration


def register(interp) -> None:
    interp.register("info", cmd_info)
    interp.register("rename", cmd_rename)
    interp.register("time", cmd_time)
