"""Control-flow commands: if, while, for, foreach, proc, catch, etc.

Control constructs are ordinary commands that make recursive calls to
the interpreter (paper section 2): the command procedure for ``if``
evaluates its first argument as an expression and, if nonzero, calls
the interpreter recursively on the body argument.
"""

from __future__ import annotations

from typing import List

from ..errors import TclBreak, TclContinue, TclError, TclReturn
from ..expr import expr_as_bool
from ..lists import parse_list
from ..strings import glob_match


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def cmd_if(interp, argv: List[str]) -> str:
    """if expr ?then? body ?elseif expr ?then? body ...? ?else? body"""
    i = 1
    while True:
        if i >= len(argv):
            raise _wrong_args("if test script ?elseif test script? "
                             "?else script?")
        condition = argv[i]
        i += 1
        if i < len(argv) and argv[i] == "then":
            i += 1
        if i >= len(argv):
            raise TclError(
                'wrong # args: no script following "%s" argument'
                % condition)
        body = argv[i]
        i += 1
        if expr_as_bool(interp, condition):
            return interp.eval(body)
        if i >= len(argv):
            return ""
        if argv[i] == "elseif":
            i += 1
            continue
        if argv[i] == "else":
            i += 1
        if i >= len(argv):
            raise TclError("wrong # args: no script following \"else\""
                           " argument")
        if i != len(argv) - 1:
            raise _wrong_args("if test script ?elseif test script? "
                             "?else script?")
        return interp.eval(argv[i])


def cmd_while(interp, argv: List[str]) -> str:
    if len(argv) != 3:
        raise _wrong_args("while test command")
    test, body = argv[1], argv[2]
    while expr_as_bool(interp, test):
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def cmd_for(interp, argv: List[str]) -> str:
    if len(argv) != 5:
        raise _wrong_args("for start test next command")
    start, test, nxt, body = argv[1:]
    interp.eval(start)
    while expr_as_bool(interp, test):
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            pass
        try:
            interp.eval(nxt)
        except TclBreak:
            # Tcl_ForCmd: ``break`` in the next script ends the loop
            # normally; ``continue`` there propagates.
            break
    return ""


def cmd_foreach(interp, argv: List[str]) -> str:
    if len(argv) != 4:
        raise _wrong_args("foreach varName list command")
    names = parse_list(argv[1])
    if not names:
        raise TclError("foreach varlist is empty")
    values = parse_list(argv[2])
    body = argv[3]
    for chunk_start in range(0, len(values), len(names)):
        for offset, name in enumerate(names):
            position = chunk_start + offset
            value = values[position] if position < len(values) else ""
            interp.set_var(name, value)
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def cmd_break(interp, argv: List[str]) -> str:
    if len(argv) != 1:
        raise _wrong_args("break")
    raise TclBreak()


def cmd_continue(interp, argv: List[str]) -> str:
    if len(argv) != 1:
        raise _wrong_args("continue")
    raise TclContinue()


def cmd_proc(interp, argv: List[str]) -> str:
    if len(argv) != 4:
        raise _wrong_args("proc name args body")
    interp.define_proc(argv[1], argv[2], argv[3])
    return ""


def cmd_return(interp, argv: List[str]) -> str:
    if len(argv) > 2:
        raise _wrong_args("return ?value?")
    raise TclReturn(argv[1] if len(argv) == 2 else "")


def cmd_eval(interp, argv: List[str]) -> str:
    if len(argv) < 2:
        raise _wrong_args("eval arg ?arg ...?")
    script = " ".join(argv[1:])
    return interp.eval(script)


def cmd_catch(interp, argv: List[str]) -> str:
    if len(argv) not in (2, 3):
        raise _wrong_args("catch command ?varName?")
    code = 0
    result = ""
    try:
        result = interp.eval(argv[1])
    except TclError as error:
        code = 1
        result = error.message
    except TclReturn as ret:
        code = 2
        result = ret.value
    except TclBreak:
        code = 3
    except TclContinue:
        code = 4
    if len(argv) == 3:
        interp.set_var(argv[2], result)
    return str(code)


def cmd_error(interp, argv: List[str]) -> str:
    if len(argv) < 2 or len(argv) > 4:
        raise _wrong_args("error message ?errorInfo? ?errorCode?")
    error = TclError(argv[1])
    if len(argv) >= 3 and argv[2]:
        error.info = [argv[2]]
    if len(argv) == 4:
        interp.set_global_var("errorCode", argv[3])
    raise error


def cmd_uplevel(interp, argv: List[str]) -> str:
    if len(argv) < 2:
        raise _wrong_args("uplevel ?level? command ?arg ...?")
    level, rest = _parse_level(argv)
    if not rest:
        raise _wrong_args("uplevel ?level? command ?arg ...?")
    frame = interp.frame_at_level(level)
    script = " ".join(rest)
    saved = interp.frames
    interp.frames = interp.frames[:frame.level + 1]
    try:
        return interp.eval(script)
    finally:
        interp.frames = saved


def cmd_upvar(interp, argv: List[str]) -> str:
    if len(argv) < 3:
        raise _wrong_args("upvar ?level? otherVar localVar "
                         "?otherVar localVar ...?")
    level, rest = _parse_level(argv)
    if len(rest) % 2 != 0 or not rest:
        raise _wrong_args("upvar ?level? otherVar localVar "
                         "?otherVar localVar ...?")
    target = interp.frame_at_level(level)
    for position in range(0, len(rest), 2):
        interp.link_var(interp.current_frame, rest[position + 1],
                        target, rest[position])
    return ""


def _parse_level(argv: List[str]) -> tuple:
    """Split an optional leading level argument from uplevel/upvar."""
    candidate = argv[1]
    looks_like_level = candidate.startswith("#") or candidate.isdigit()
    if looks_like_level and len(argv) > 2:
        return candidate, argv[2:]
    return "1", argv[1:]


def cmd_global(interp, argv: List[str]) -> str:
    if len(argv) < 2:
        raise _wrong_args("global varName ?varName ...?")
    frame = interp.current_frame
    if frame.level == 0:
        return ""
    for name in argv[1:]:
        if not frame.has_link(name) and not frame.has_local(name):
            interp.link_var(frame, name, interp.global_frame, name)
    return ""


def cmd_case(interp, argv: List[str]) -> str:
    """case string ?in? patList body ?patList body ...?

    The old-Tcl ``case`` command: glob patterns, ``default`` as the
    fallback.  Pairs may also be supplied as one brace-quoted argument.
    """
    if len(argv) < 3:
        raise _wrong_args("case string ?in? patList body ?patList body ...?")
    subject = argv[1]
    rest = argv[2:]
    if rest and rest[0] == "in":
        rest = rest[1:]
    if len(rest) == 1:
        rest = parse_list(rest[0])
    if len(rest) % 2 != 0 or not rest:
        raise TclError("extra case pattern with no body")
    default_body = None
    for position in range(0, len(rest), 2):
        patterns, body = rest[position], rest[position + 1]
        for pattern in parse_list(patterns):
            if pattern == "default":
                default_body = body
            elif glob_match(pattern, subject):
                return interp.eval(body)
    if default_body is not None:
        return interp.eval(default_body)
    return ""


def cmd_source(interp, argv: List[str]) -> str:
    if len(argv) != 2:
        raise _wrong_args("source fileName")
    try:
        with open(argv[1], "r") as handle:
            script = handle.read()
    except OSError as error:
        raise TclError('couldn\'t read file "%s": %s'
                       % (argv[1], error.strerror or error))
    try:
        return interp.eval(script)
    except TclReturn as ret:
        return ret.value


def register(interp) -> None:
    interp.register("if", cmd_if)
    interp.register("while", cmd_while)
    interp.register("for", cmd_for)
    interp.register("foreach", cmd_foreach)
    interp.register("break", cmd_break)
    interp.register("continue", cmd_continue)
    interp.register("proc", cmd_proc)
    interp.register("return", cmd_return)
    interp.register("eval", cmd_eval)
    interp.register("catch", cmd_catch)
    interp.register("error", cmd_error)
    interp.register("uplevel", cmd_uplevel)
    interp.register("upvar", cmd_upvar)
    interp.register("global", cmd_global)
    interp.register("case", cmd_case)
    interp.register("source", cmd_source)
