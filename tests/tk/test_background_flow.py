"""``return``, ``break`` and ``continue`` at the top of a script that
nothing else is evaluating: a timer or binding handler, a sent command,
or a script evaluated with no evaluation in progress (Tcl's
``numLevels == 0``).

``return`` completes normally with its value; ``break`` and
``continue`` become ``invoked "break" outside of a loop`` errors,
reported through ``bgerror``/``tkerror`` when one is defined.  Inside a
running evaluation a widget ``-command`` still propagates them, so
``.b invoke`` from a loop body can end that loop.  Every case runs on
the VM, the tree walker and the uncompiled evaluator.
"""

import io

import pytest

from repro.tcl import Interp, TclError
from repro.tk import TkApp
from repro.x11 import XServer

TIERS = pytest.mark.parametrize(
    "options", [{}, {"bytecode_enabled": False}, {"compile_enabled": False}],
    ids=["vm", "tree", "nocompile"])


def _app(server, name, options):
    application = TkApp(server, name=name, interp=Interp(**options))
    application.interp.stdout = io.StringIO()
    return application


@pytest.fixture
def server():
    return XServer()


@TIERS
@pytest.mark.parametrize("word", ["break", "continue"])
def test_timer_break_without_handler_is_a_tcl_error(server, options, word):
    app = _app(server, "a", options)
    app.interp.eval("after 0 {%s}" % word)
    with pytest.raises(TclError) as caught:
        app.update()
    assert type(caught.value) is TclError
    assert caught.value.message == \
        'invoked "%s" outside of a loop' % word


@TIERS
@pytest.mark.parametrize("handler", ["bgerror", "tkerror"])
def test_timer_break_and_continue_reach_the_handler(server, options,
                                                    handler):
    app = _app(server, "a", options)
    app.interp.eval("proc %s {msg} {global seen; lappend seen $msg}"
                    % handler)
    app.interp.eval("set seen {}\nafter 0 {break}\nafter 0 {continue}")
    app.update()
    assert app.interp.eval("set seen") == \
        '{invoked "break" outside of a loop} ' \
        '{invoked "continue" outside of a loop}'


@TIERS
def test_timer_return_completes_normally(server, options):
    app = _app(server, "a", options)
    app.interp.eval("proc bgerror {msg} {global seen; lappend seen $msg}")
    app.interp.eval("set seen {}\nafter 0 {set ran 1; return 5; set ran 2}")
    app.update()
    assert app.interp.eval("list $ran $seen") == "1 {}"


@TIERS
def test_binding_break_reaches_bgerror(server, options):
    app = _app(server, "a", options)
    app.interp.eval("proc bgerror {msg} {global seen; set seen $msg}")
    app.interp.eval("frame .f -geometry 40x40\npack append . .f {top}")
    app.update()
    app.interp.eval("bind .f x {break}")
    server.press_key("x", window_id=app.window(".f").id)
    app.update()
    assert app.interp.eval("set seen") == \
        'invoked "break" outside of a loop'


@TIERS
def test_background_break_does_not_end_an_updating_loop(server, options):
    """A timer fired by ``update`` inside a loop body is a script of
    its own: its ``break`` is reported, the loop runs on."""
    app = _app(server, "a", options)
    app.interp.eval("proc bgerror {msg} {global seen; lappend seen $msg}")
    assert app.interp.eval(
        "set seen {}\nset n 0\n"
        "foreach x {1 2 3} {incr n; after 0 {break}; update}\n"
        "list $n [llength $seen]") == "3 3"


@TIERS
def test_widget_command_break_still_ends_the_running_loop(server, options):
    app = _app(server, "a", options)
    app.interp.eval("button .b -command {break}")
    assert app.interp.eval(
        "set n 0\nforeach x {1 2 3} {incr n; .b invoke}\nset n") == "1"


@TIERS
def test_eval_top_settles_stray_flow_at_level_zero(server, options):
    app = _app(server, "a", options)
    interp = app.interp
    assert interp.eval_top("set x 1; return 7; set x 2") == "7"
    assert interp.eval("set x") == "1"
    for word in ("break", "continue"):
        with pytest.raises(TclError,
                           match='invoked "%s" outside of a loop' % word):
            interp.eval_top(word)
        assert interp.get_global_var("errorInfo") == \
            'invoked "%s" outside of a loop' % word


@TIERS
def test_sent_return_break_and_continue(server, options):
    sender = _app(server, "a", options)
    _app(server, "b", options)
    assert sender.interp.eval("send b {return 5}") == "5"
    for word in ("break", "continue"):
        with pytest.raises(TclError) as caught:
            sender.interp.eval("send b %s" % word)
        assert caught.value.message == \
            'invoked "%s" outside of a loop' % word


@TIERS
def test_sent_return_while_the_target_is_itself_waiting(server, options):
    """A→B→A: the inner send runs in A while A's own evaluation is in
    progress; its ``return`` still ends at the sent script's top."""
    sender = _app(server, "a", options)
    peer = _app(server, "b", options)
    peer.interp.eval("proc relay {} {send a {return 9}}")
    assert sender.interp.eval("send b relay") == "9"
