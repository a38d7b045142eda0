"""One span tracer per X server.

A tracer covers one display: the applications on that server share it,
traffic on any other server never reaches it, and nothing outside the
server holds it.  These tests pin each half of that scope.
"""

import gc
import io
import weakref
from collections import deque

import pytest

from repro.tcl import Interp
from repro.tk import TkApp
from repro.x11 import XServer
from repro.x11.transport import shutdown_host

SCRIPT = """
frame .f
button .f.b -text hi
pack append .f .f.b {top}
pack append . .f {top}
update
.f.b configure -text bye
update
"""


def _new_app(server, name, transport=None):
    app = TkApp(server, name=name, transport=transport)
    app.interp.stdout = io.StringIO()
    return app


def _frames(kind):
    """The frames of SCRIPT on a fresh server over ``kind``."""
    server = XServer()
    try:
        app = _new_app(server, "b", kind)
        frames = app.display.transport.capture_wire()
        app.interp.eval(SCRIPT)
        app.display.sync()
        app.destroy()
        return list(frames)
    finally:
        shutdown_host(server)


@pytest.mark.parametrize("kind", ["loopback", "socket"])
def test_other_servers_frames_stay_untraced(kind):
    traced = XServer()
    watched = _new_app(traced, "a")
    tracer = traced.obs.tracer
    tracer.start()
    try:
        watched.interp.eval(SCRIPT)
        during = _frames(kind)
    finally:
        tracer.stop()
    assert any(span.kind == "xhandle" for span in tracer.spans)
    spans = len(tracer.spans)
    untraced = _frames(kind)
    assert len(during) > 5
    assert during == untraced
    # Nor did the other server's traffic reach this tracer.
    assert len(tracer.spans) == spans


def test_dropped_standalone_interp_is_collected():
    interp = Interp()
    interp.eval("obs trace start")
    assert interp.obs.tracer.enabled
    ref = weakref.ref(interp)
    del interp
    gc.collect()
    assert ref() is None


def test_destroying_one_app_keeps_tracing_the_other():
    server = XServer()
    first = _new_app(server, "a")
    second = _new_app(server, "b")
    assert first.obs.tracer is second.obs.tracer is server.obs.tracer
    first.interp.eval("obs trace start")
    ref = weakref.ref(first.interp)
    first.destroy()
    del first
    gc.collect()
    assert ref() is None
    second.interp.eval("frame .g; pack append . .g {top}; update")
    tracer = second.obs.tracer
    assert tracer.enabled
    frames = [span for span in tracer.spans
              if span.kind == "cmd" and span.name == "frame"]
    assert [span.widget for span in frames] == [".g"]
    assert frames[0].requests["create_window"] == 1


def test_tracer_started_from_the_server_hub_switches_the_interpreter():
    server = XServer()
    app = _new_app(server, "a")
    dispatches = app.interp._m_vm_dispatches
    before = dispatches.value
    app.interp.eval_top("set x 1; incr x")
    assert dispatches.value > before
    tracer = server.obs.tracer
    tracer.start()
    try:
        before = dispatches.value
        app.interp.eval_top("set x 1; frame .g")
        # Traced, the interpreter walks the tree: no VM dispatch.
        assert dispatches.value == before
    finally:
        tracer.stop()
    spans = list(tracer.spans)
    (top,) = [span for span in spans if span.kind == "eval"]
    assert top.name == "set x 1; frame .g"
    cmds = [(span.name, span.widget, span.parent_id) for span in spans
            if span.kind == "cmd"]
    assert cmds == [("set", None, top.id), ("frame", ".g", top.id)]
    before = dispatches.value
    app.interp.eval_top("set x 1; incr x")
    assert dispatches.value > before
    assert len(tracer.spans) == len(spans)


def test_app_registry_reports_the_display_tracers_evictions():
    server = XServer()
    app = _new_app(server, "a")
    tracer = server.obs.tracer
    tracer.spans = deque(maxlen=4)
    app.interp.eval("obs trace start")
    app.interp.eval(SCRIPT)
    assert tracer.evicted_spans > 0
    # The interpreter's own tracer is left behind when it joins the
    # application; its counters must not hide the display tracer's.
    assert app.obs.metrics.value("obs.trace.evicted", ring="spans") == \
        tracer.evicted_spans


def _subtree(spans, root):
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    found, todo = [], [root]
    while todo:
        span = todo.pop()
        found.append(span)
        todo.extend(children.get(span.id, ()))
    return found


def test_send_nests_target_spans_under_the_senders_send():
    server = XServer()
    sender = _new_app(server, "a")
    target = _new_app(server, "b")
    target.interp.eval("proc hello {} {frame .f}")
    sender.update()
    target.update()
    sender.interp.eval("obs trace start")
    sender.interp.eval("send b hello")
    sender.interp.eval("obs trace stop")
    spans = list(server.obs.tracer.spans)
    (send,) = [span for span in spans if span.kind == "send"]
    assert send.name == "b"
    chain = []
    span = next(span for span in spans
                if span.kind == "cmd" and span.name == "frame")
    by_id = {span.id: span for span in spans}
    while span is not send:
        chain.append((span.kind, span.name))
        span = by_id[span.parent_id]
    assert chain == [("cmd", "frame"), ("proc", "hello"),
                     ("cmd", "hello"), ("eval", "hello")]
    subtree = _subtree(spans, send)
    # The same traffic the send cost before its target's spans nested
    # under it: 8 requests of its own plus the target's create_window
    # and select_input, and 4 round trips.
    assert sum(sum(span.requests.values()) for span in subtree) == 10
    assert sum(span.round_trips for span in subtree) == 4
    assert send.round_trips == 4
