"""Per-layer wall-time spans, recorded from outside the program.

The benchmark never edits ``src/``: it wraps public entry points of each
layer (see :data:`SITES`) with a function that records one span per
call.  A span is ``(id, parent, site, start_ns, end_ns, thread)``; span
stacks are thread-local because the socket transport runs the X server
on its own thread.  Spans stay in memory; :meth:`Recorder.take` hands
over the spans of one op and :func:`self_times` attributes its wall time.

Self time uses a timeline sweep rather than parent links: at every
instant the op's time belongs to the most recently started span that is
still open, on any thread.  The socket protocol is ack-synchronous, so
while the server thread works the client thread is blocked inside a
transport span; the sweep charges that interval to the server-side
layer, and only the genuine wait (socket, thread hand-off) stays with
``x11.transport``.  Time inside no span is reported as uncovered.

Which end-to-end metric each layer metric should move:

* ``x11.wire`` and ``tk.pack`` self time: ``op_ms.p50`` on
  ``button_churn`` and ``golden_replay``; ``input_socket`` and
  ``tcl_compute`` should not move.
* ``x11.transport`` wait, ``x11.wire`` codec time, ``tk.bind`` and
  ``tk.dispatch``: ``op_ms.p50`` and ``op_ms.p95`` on ``input_socket``.
* ``tk.send``: ``send_ms.p50``.
* ``obs.journal``: ``op_ms.p50`` and ``peak_rss_mb`` on
  ``golden_replay``.
* ``tcl.*``: ``ops_per_s`` on ``tcl_compute``, and ``golden_replay``
  through its cold compiles.
* ``x11.display.coalesced_ratio`` and ``requests_per_op``:
  ``button_churn``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Dict, List, Tuple

#: layer -> [(module, class or None, attribute names)].  Module-level
#: functions are patched in every module that imported them by name.
SITES: Dict[str, List[Tuple[str, object, Tuple[str, ...]]]] = {
    "tcl.interp": [("repro.tcl.interp", "Interp", ("eval",))],
    "tcl.parser": [("repro.tcl.parser", None, ("parse_script",))],
    "tcl.compile": [("repro.tcl.compile", None, ("compile_script",)),
                    ("repro.tcl.interp", None, ("compile_script",)),
                    ("repro.tcl.vm", None, ("compile_script",))],
    "tk.dispatch": [("repro.tk.dispatch", "EventDispatcher",
                     ("do_one_event",))],
    "tk.bind": [("repro.tk.bind", "BindingTable", ("dispatch",))],
    "tk.pack": [("repro.tk.pack", "Packer", ("arrange",))],
    "tk.send": [("repro.tk.send", "SendManager", ("send",))],
    "x11.display": [("repro.x11.display", "Display", ("flush",))],
    "x11.transport": [
        ("repro.x11.transport", "LoopbackTransport",
         ("deliver_batch", "request", "oneway")),
        ("repro.x11.transport", "SocketTransport",
         ("deliver_batch", "request", "oneway")),
        # input injection over the socket: the client thread blocks
        # here while the server thread injects and drains
        ("repro.x11.transport", "ServerHost", ("call",)),
    ],
    "x11.wire": [("repro.x11.wire", None,
                  ("frame_size", "encode_frame", "decode_frame",
                   "decode_frame_ex", "extract_frames"))],
    "x11.xserver": [("repro.x11.xserver", "XServer", "public")],
    "obs.journal": [("repro.obs.journal", "Journal", ("record",))],
    "obs.replay": [("repro.obs.replay", None, ("replay_journal",))],
}

LAYERS: Tuple[str, ...] = tuple(SITES)

#: XServer public names that are lookups or lifecycle plumbing, not
#: requests; ``window`` is also called on every request internally.
_XSERVER_SKIP = frozenset(("window", "window_exists", "resource_census",
                           "install_fault_plan", "clear_fault_plan",
                           "attach_journal", "detach_journal"))


def _xserver_methods(cls) -> Tuple[str, ...]:
    return tuple(sorted(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and name not in _XSERVER_SKIP))


class Recorder:
    """Installs the span wrappers and collects their spans."""

    def __init__(self):
        self.spans: list = []
        #: site index -> (layer index, qualified function name)
        self.sites: List[Tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> "Recorder":
        """Wrap every site.  Call before any application is built:
        transports bind their event sinks at construction."""
        for layer_index, layer in enumerate(LAYERS):
            for module_name, class_name, names in SITES[layer]:
                module = importlib.import_module(module_name)
                owner = module if class_name is None \
                    else getattr(module, class_name)
                if names == "public":
                    names = _xserver_methods(owner)
                for name in names:
                    original = vars(owner)[name]
                    qualname = "%s.%s" % (owner.__name__, name)
                    self._patch(owner, name, self._wrap(
                        original, layer_index, qualname))
        return self

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, layer_index: int, qualname: str):
        site = len(self.sites)
        self.sites.append((layer_index, qualname))
        tls = self._tls
        ids = self._ids
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, parent, site, start, end,
                                   ident()))
        return span

    # -- collection ----------------------------------------------------

    def take(self) -> list:
        """Hand over (and forget) every span recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list, sites: List[Tuple[int, str]],
               window: Tuple[int, int]) -> Tuple[List[int], List[int], int]:
    """Attribute the wall interval ``window`` (ns) to layers.

    Returns ``(self_ns per layer, calls per layer, uncovered_ns)``.
    Calls count spans that start inside the window.
    """
    lo, hi = window
    self_ns = [0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    events = []
    for sid, _parent, site, start, end, _thread in spans:
        if end <= lo or start >= hi:
            continue
        layer = sites[site][0]
        if start >= lo:
            calls[layer] += 1
        start, end = max(start, lo), min(end, hi)
        if end > start:
            events.append((start, 1, sid, layer))
            events.append((end, 0, sid, layer))
    events.sort()
    open_spans: List[Tuple[int, int]] = []
    uncovered = 0
    last = lo
    for when, is_start, sid, layer in events:
        elapsed = when - last
        if elapsed:
            if open_spans:
                self_ns[open_spans[-1][1]] += elapsed
            else:
                uncovered += elapsed
            last = when
        if is_start:
            open_spans.append((sid, layer))
        else:
            for index in range(len(open_spans) - 1, -1, -1):
                if open_spans[index][0] == sid:
                    del open_spans[index]
                    break
    uncovered += hi - last
    return self_ns, calls, uncovered
