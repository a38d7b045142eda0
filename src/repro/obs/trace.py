"""The span tracer: causal traces across the whole toolkit stack.

A *span* is one timed unit of work — a script evaluation, a command
invocation, a binding fire, an event dispatch, a ``send`` RPC — linked
to its parent so a button click reads as a tree::

    event ButtonPress [.b] 3ms
      binding <ButtonPress-1> [.b] 3ms
        eval {doClick} 3ms
          proc doClick 3ms
            cmd .b 2ms  x11: change_window_attributes=1 ...

Durations are *virtual* milliseconds from the simulated server clock
(one request ≈ one tick), so traces are deterministic and comparable
run to run.  Finished spans live in a bounded ring buffer.

X-request attribution works like a context propagation layer: started
tracers register in the module-level ``_ACTIVE`` list, and the server's
``_tick``/``round_trip`` hot paths check ``if _ACTIVE:`` — a single
falsy test when no one is tracing — before attributing the request to
whichever span is open on each active tracer.  *Wire mode* additionally
records every request server-wide (named tick, originating widget) in
the spirit of ``xmon``, even between spans.

Since the Display→XServer boundary became a byte-level wire
(:mod:`repro.x11.wire`), traces cross it: the transport opens a *wire
span* per frame (:func:`open_wire`), stamps its id into the frame's
trace-context field, and the server records a *handle span* per
request it executes under that id (:func:`record_handle`) — so a tree
reads client issue → wire → server handle, with identical structure on
the loopback and socket transports.  Wire and handle spans are
*synthetic*: they never join the open-span stack, so request
attribution still lands on the client span that issued the work.
Cross-boundary spans carry ``link="wire"`` and keep their explicit
parent id even when the parent has been evicted from the ring — they
are never silently re-rooted as if they were top-level work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from .report import build_forest

#: Tracers currently started; consulted by the X server's hot paths.
_ACTIVE: List["Tracer"] = []

#: Default capacity of the finished-span ring buffer.
SPAN_RING = 4096

#: Default capacity of the wire-log ring buffer.
WIRE_RING = 8192


class Span:
    """One timed, attributed unit of work."""

    __slots__ = ("id", "kind", "name", "widget", "parent_id",
                 "start", "end", "requests", "round_trips",
                 "link", "queue_ms")

    def __init__(self, span_id: int, kind: str, name: str,
                 widget: Optional[str], parent_id: Optional[int],
                 start: int):
        self.id = span_id
        self.kind = kind
        self.name = name
        self.widget = widget
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.requests: Dict[str, int] = {}
        self.round_trips = 0
        #: "wire" on spans whose parent link crosses the client/server
        #: boundary (server handle spans, fault spans fired inside a
        #: traced request); None for ordinary same-side spans
        self.link: Optional[str] = None
        #: virtual ms the first op of a batch sat in the output buffer
        #: before the flush that carried it (wire spans only)
        self.queue_ms = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        entry = {"id": self.id, "kind": self.kind, "name": self.name,
                 "parent": self.parent_id, "start_ms": self.start,
                 "end_ms": self.end, "duration_ms": self.duration}
        if self.widget:
            entry["widget"] = self.widget
        if self.requests:
            entry["requests"] = dict(sorted(self.requests.items()))
        if self.round_trips:
            entry["round_trips"] = self.round_trips
        if self.link is not None:
            entry["link"] = self.link
        if self.queue_ms:
            entry["queue_ms"] = self.queue_ms
        return entry


class Tracer:
    """Collects spans (and optionally the raw X wire) while started.

    ``begin``/``finish`` bracket a unit of work; the open-span stack
    provides parent links and request attribution.  The tracer is a
    no-op unless ``enabled`` — callers on hot paths are expected to
    guard with ``if tracer is not None and tracer.enabled:`` so the
    disabled cost is one attribute test.
    """

    def __init__(self, clock: Callable[[], int],
                 max_spans: int = SPAN_RING,
                 max_wire: int = WIRE_RING):
        self.clock = clock
        self.enabled = False
        self.wire = False
        self.spans: deque = deque(maxlen=max_spans)
        self.wire_log: deque = deque(maxlen=max_wire)
        self._stack: List[Span] = []
        self._next_id = 1
        #: open wire spans by propagated trace context; the context is
        #: the *first* active tracer's span id, shared as the lookup
        #: key by every tracer so frames carry one id regardless of
        #: how many tracers watch the session
        self._inflight: Dict[int, Span] = {}
        #: spans/wire entries silently pushed off the bounded rings —
        #: surfaced as ``obs.trace.evicted{ring=...}`` once bound
        self.evicted_spans = 0
        self.evicted_wire = 0
        self._m_evicted_spans = None
        self._m_evicted_wire = None
        #: called with the new enabled state on every start/stop, so
        #: instrumented hot paths (the interpreter's command loop) can
        #: keep a precomputed local flag instead of re-reading
        #: ``tracer.enabled`` on every invocation
        self.listeners: List[Callable[[bool], None]] = []

    def bind_metrics(self, registry) -> None:
        """Mirror ring evictions as ``obs.trace.evicted{ring=...}``.

        Counters are seeded from evictions recorded before binding, so
        the metric and the ``evicted_*`` attributes always agree.
        """
        self._m_evicted_spans = registry.counter("obs.trace.evicted",
                                                 ring="spans")
        self._m_evicted_spans.value = self.evicted_spans
        self._m_evicted_wire = registry.counter("obs.trace.evicted",
                                                ring="wire")
        self._m_evicted_wire.value = self.evicted_wire

    def _note_span_eviction(self) -> None:
        if len(self.spans) == self.spans.maxlen:
            self.evicted_spans += 1
            if self._m_evicted_spans is not None:
                self._m_evicted_spans.value += 1

    def _note_wire_eviction(self) -> None:
        if len(self.wire_log) == self.wire_log.maxlen:
            self.evicted_wire += 1
            if self._m_evicted_wire is not None:
                self._m_evicted_wire.value += 1

    # -- lifecycle -----------------------------------------------------

    def start(self, wire: bool = False) -> None:
        self.enabled = True
        self.wire = wire
        if self not in _ACTIVE:
            _ACTIVE.append(self)
        for listener in self.listeners:
            listener(True)

    def stop(self) -> None:
        self.enabled = False
        self.wire = False
        # Abandon any open spans: a stop inside a handler must not
        # leave dangling parents for the next start.
        self._stack = []
        self._inflight.clear()
        if self in _ACTIVE:
            _ACTIVE.remove(self)
        for listener in self.listeners:
            listener(False)

    def clear(self) -> None:
        self.spans.clear()
        self.wire_log.clear()
        self._stack = []
        self._inflight.clear()
        # Safe to reuse ids only because every ring is now empty: a
        # surviving span's explicit parent link must never alias a
        # later span that happens to get the same id.
        self._next_id = 1

    # -- span API ------------------------------------------------------

    def begin(self, kind: str, name: str,
              widget: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if widget is None and parent is not None:
            widget = parent.widget
        span = Span(self._next_id, kind, name, widget,
                    parent.id if parent else None, self.clock())
        self._next_id += 1
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        # Pop through in case an exception skipped inner finishes.
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break
        # A span still open when the tracer stopped (e.g. the very
        # `obs trace stop` invocation) is dropped, not half-recorded.
        if self.enabled:
            self._note_span_eviction()
            self.spans.append(span)

    def begin_wire(self, name: str, queue_ms: int = 0) -> Span:
        """Open a wire span: the client edge of one outbound frame.

        Wire spans are synthetic — they parent under the open span but
        never join the stack, so request attribution keeps landing on
        the client span that issued the work.  The caller registers
        the span in :attr:`_inflight` under the propagated context and
        closes it via :func:`close_wire`.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, "wire", name,
                    parent.widget if parent else None,
                    parent.id if parent else None, self.clock())
        self._next_id += 1
        span.queue_ms = queue_ms
        return span

    # -- server-side attribution (called via _ACTIVE) ------------------

    def record_request(self, name: str) -> None:
        if self._stack:
            span = self._stack[-1]
            span.requests[name] = span.requests.get(name, 0) + 1
            widget = span.widget
        else:
            widget = None
        if self.wire:
            self._note_wire_eviction()
            self.wire_log.append((self.clock(), name, widget))

    def record_queued(self, name: str) -> None:
        """Attribute a buffered one-way request to the active span.

        With output buffering the wire write happens later (at flush),
        possibly under an unrelated span — but the *issuer* is the span
        that enqueued the request, so attribution happens here and the
        wire log entry at delivery time (:meth:`record_delivery`).
        """
        if self._stack:
            span = self._stack[-1]
            span.requests[name] = span.requests.get(name, 0) + 1

    def record_delivery(self, name: str) -> None:
        """Log a request delivered from a batch to the wire log only
        (it was attributed to its issuing span when enqueued)."""
        if self.wire:
            widget = self._stack[-1].widget if self._stack else None
            self._note_wire_eviction()
            self.wire_log.append((self.clock(), name, widget))

    def record_round_trip(self) -> None:
        if self._stack:
            self._stack[-1].round_trips += 1

    # -- output --------------------------------------------------------

    def tree(self) -> List[Dict[str, object]]:
        """Finished spans as nested dicts (roots in start order).

        The spans deque is bounded: when a long session evicts a parent
        span, its surviving children are *re-rooted* rather than
        dropped, and marked ``orphaned`` so a reader can tell a true
        root from a child whose ancestry fell off the ring.
        """
        return build_forest([span.to_dict() for span in self.spans])

    def format_tree(self) -> str:
        """The span tree as indented text (``obs trace dump``)."""
        lines = []
        total_requests = sum(sum(span.requests.values())
                             for span in self.spans)
        total_round_trips = sum(span.round_trips for span in self.spans)
        lines.append("TRACE: %d spans, %d x11 requests, %d round trips"
                     % (len(self.spans), total_requests,
                        total_round_trips))

        def emit(node, depth):
            pad = "  " * depth
            widget = " [%s]" % node["widget"] if node.get("widget") else ""
            head = "%s%s %s%s %dms" % (pad, node["kind"], node["name"],
                                       widget, node["duration_ms"])
            if node.get("round_trips"):
                head += " %d-rt" % node["round_trips"]
            if node.get("queue_ms"):
                head += " queue=%dms" % node["queue_ms"]
            if node.get("orphaned"):
                head += " (orphaned: parent span evicted)"
            if node.get("parent_evicted"):
                head += " (cross-boundary: parent %d evicted)" \
                    % node["parent"]
            lines.append(head)
            if node.get("requests"):
                lines.append("%s  x11: %s" % (pad, " ".join(
                    "%s=%d" % item
                    for item in sorted(node["requests"].items()))))
            for child in node["children"]:
                emit(child, depth + 1)

        for root in self.tree():
            emit(root, 1)
        return "\n".join(lines)

    def format_wire(self) -> str:
        """The wire log as ``tick  request  widget`` lines."""
        lines = ["WIRE: %d requests" % len(self.wire_log)]
        for tick, name, widget in self.wire_log:
            lines.append("%8d  %-28s %s" % (tick, name, widget or "-"))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spans": [span.to_dict() for span in self.spans],
            "wire": [{"tick": tick, "request": name, "widget": widget}
                     for tick, name, widget in self.wire_log],
        }


def record_request(name: str) -> None:
    """Attribute one named X request to every active tracer."""
    for tracer in _ACTIVE:
        tracer.record_request(name)


def record_queued(name: str) -> None:
    """Attribute one buffered (not yet delivered) request."""
    for tracer in _ACTIVE:
        tracer.record_queued(name)


def record_delivery(name: str) -> None:
    """Wire-log one request delivered as part of a batch."""
    for tracer in _ACTIVE:
        tracer.record_delivery(name)


def record_round_trip() -> None:
    """Attribute one server round trip to every active tracer."""
    for tracer in _ACTIVE:
        tracer.record_round_trip()


# ----------------------------------------------------------------------
# cross-boundary propagation (transport + server hooks)
# ----------------------------------------------------------------------

def open_wire(name: str, queue_ms: int = 0):
    """Open a wire span in every active tracer for one outbound frame.

    Returns ``(ctx, pairs)``: ``ctx`` is the propagated trace context
    (the first tracer's wire-span id, stamped into the frame by the
    transport; None when no tracer is active) and ``pairs`` the
    ``(tracer, span)`` list :func:`close_wire` needs.  Every tracer
    registers its own span under the *shared* context, so a single
    on-the-wire id resolves to the right span in each tracer — tracer
    identity never leaks into the bytes, keeping traced wire traffic
    identical run to run regardless of how many tracers watch.
    """
    ctx = None
    pairs = []
    for tracer in _ACTIVE:
        span = tracer.begin_wire(name, queue_ms)
        if ctx is None:
            ctx = span.id
        tracer._inflight[ctx] = span
        pairs.append((tracer, span))
    return ctx, pairs


def close_wire(ctx, pairs) -> None:
    """Close the wire spans of one frame once its reply is in."""
    for tracer, span in pairs:
        tracer._inflight.pop(ctx, None)
        span.end = tracer.clock()
        # Mirror Tracer.finish: a tracer stopped mid-flight drops the
        # span rather than half-recording it.
        if tracer.enabled:
            tracer._note_span_eviction()
            tracer.spans.append(span)


def record_handle(ctx: int, name: str, start: int, end: int) -> None:
    """Record one server-side handle span under a propagated context.

    Called from the server's ``_tick`` when the frame being handled
    carried a trace context.  The span is complete on arrival (the
    tick *is* the handling) and parents under each tracer's own
    in-flight wire span for ``ctx``.  It does not populate
    ``Span.requests`` — the request was already attributed to its
    issuing client span — so request counts never double-count.
    """
    for tracer in _ACTIVE:
        wire_span = tracer._inflight.get(ctx)
        if wire_span is None:
            continue
        span = Span(tracer._next_id, "xhandle", name, wire_span.widget,
                    wire_span.id, start)
        tracer._next_id += 1
        span.end = end
        span.link = "wire"
        tracer._note_span_eviction()
        tracer.spans.append(span)


def record_fault(action: str, detail: str,
                 ctx: Optional[int] = None) -> None:
    """Record one fault-plan action as a zero-duration span.

    Parents under the in-flight wire span when the fault fired inside
    a traced request (``ctx`` from the server), else under the open
    client span, else as a root.
    """
    for tracer in _ACTIVE:
        parent_id = None
        widget = None
        link = None
        if ctx is not None:
            wire_span = tracer._inflight.get(ctx)
            if wire_span is not None:
                parent_id = wire_span.id
                widget = wire_span.widget
                link = "wire"
        if parent_id is None and tracer._stack:
            top = tracer._stack[-1]
            parent_id = top.id
            widget = top.widget
        name = "%s %s" % (action, detail) if detail else action
        span = Span(tracer._next_id, "fault", name, widget, parent_id,
                    tracer.clock())
        tracer._next_id += 1
        span.link = link
        tracer._note_span_eviction()
        tracer.spans.append(span)


__all__ = ["Span", "Tracer", "record_request", "record_queued",
           "record_delivery", "record_round_trip", "open_wire",
           "close_wire", "record_handle", "record_fault",
           "_ACTIVE", "SPAN_RING", "WIRE_RING"]
