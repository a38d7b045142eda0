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

X-request attribution: each :class:`~repro.x11.XServer` owns one
tracer, shared by every application on that display, and the server's
``_tick``/``round_trip`` hot paths (and the Display's output buffer)
test ``tracer.enabled`` — one attribute test when no one is tracing —
before attributing the request to the span open on that tracer.  A
tracer therefore sees exactly one display's traffic, and a cross-app
``send`` nests the target's work under the sender's span, because both
applications push onto the same stack.  The tracer keeps no list of
requests of its own: the ordered record of every request on the
display is the session journal (:mod:`repro.obs.journal`), which the
flight dump reads for its ``wire`` section.

Since the Display→XServer boundary became a byte-level wire
(:mod:`repro.x11.wire`), traces cross it: the transport opens a *wire
span* per frame (:meth:`Tracer.open_wire`), stamps its id into the
frame's trace-context field, and the server records a *handle span*
per request it executes under that id (:meth:`Tracer.record_handle`)
— so a tree reads client issue → wire → server handle, with identical
structure on the loopback and socket transports.  Wire and handle
spans are *synthetic*: they never join the open-span stack, so request
attribution still lands on the client span that issued the work.
Cross-boundary spans carry ``link="wire"`` and keep their explicit
parent id even when the parent has been evicted from the ring — they
are never silently re-rooted as if they were top-level work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from .report import build_forest

#: Default capacity of the finished-span ring buffer.
SPAN_RING = 4096


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
    """Collects spans while started.

    ``begin``/``finish`` bracket a unit of work; the open-span stack
    provides parent links and request attribution.  The tracer is a
    no-op unless ``enabled`` — callers on hot paths hold the tracer
    and guard with ``if tracer.enabled:`` so the disabled cost is one
    attribute test.
    """

    def __init__(self, clock: Callable[[], int],
                 max_spans: int = SPAN_RING):
        self.clock = clock
        self.enabled = False
        self.spans: deque = deque(maxlen=max_spans)
        self._stack: List[Span] = []
        self._next_id = 1
        #: open wire spans by id, the trace context their frames carry
        self._inflight: Dict[int, Span] = {}
        #: spans silently pushed off the bounded ring — surfaced as
        #: ``obs.trace.evicted{ring=spans}`` once bound
        self.evicted_spans = 0
        self._m_evicted_spans = None

    def bind_metrics(self, registry) -> None:
        """Mirror ring evictions as ``obs.trace.evicted{ring=spans}``.

        The counter is seeded from evictions recorded before binding,
        so the metric and :attr:`evicted_spans` always agree.
        """
        self._m_evicted_spans = registry.counter("obs.trace.evicted",
                                                 ring="spans")
        self._m_evicted_spans.value = self.evicted_spans

    def _keep(self, span: Span) -> None:
        """Append a finished span to the ring, counting an eviction."""
        if len(self.spans) == self.spans.maxlen:
            self.evicted_spans += 1
            if self._m_evicted_spans is not None:
                self._m_evicted_spans.value += 1
        self.spans.append(span)

    def _span(self, kind: str, name: str, parent: Optional[Span],
              widget: Optional[str] = None) -> Span:
        """A new span under ``parent``, whose widget it inherits."""
        if widget is None and parent is not None:
            widget = parent.widget
        span = Span(self._next_id, kind, name, widget,
                    parent.id if parent else None, self.clock())
        self._next_id += 1
        return span

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        # Abandon any open spans: a stop inside a handler must not
        # leave dangling parents for the next start.
        self._stack = []
        self._inflight.clear()

    def clear(self) -> None:
        self.spans.clear()
        self._stack = []
        self._inflight.clear()
        # Safe to reuse ids only because the ring is now empty: a
        # surviving span's explicit parent link must never alias a
        # later span that happens to get the same id.
        self._next_id = 1

    # -- span API ------------------------------------------------------

    def begin(self, kind: str, name: str,
              widget: Optional[str] = None) -> Span:
        span = self._span(kind, name,
                          self._stack[-1] if self._stack else None, widget)
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
            self._keep(span)

    # -- cross-boundary propagation (transport and server hooks) ------

    def open_wire(self, name: str, queue_ms: int = 0) -> Span:
        """Open a wire span: the client edge of one outbound frame.

        Wire spans are synthetic — they parent under the open span but
        never join the stack, so request attribution keeps landing on
        the client span that issued the work.  The transport stamps the
        span's id into the frame as its trace context, the server finds
        the span again by that id, and :meth:`close_wire` closes it.
        """
        span = self._span("wire", name,
                          self._stack[-1] if self._stack else None)
        span.queue_ms = queue_ms
        self._inflight[span.id] = span
        return span

    def close_wire(self, span: Span) -> None:
        """Close a frame's wire span once its answer is in."""
        self._inflight.pop(span.id, None)
        span.end = self.clock()
        # As in finish: a tracer stopped mid-flight drops the span
        # rather than half-recording it.
        if self.enabled:
            self._keep(span)

    def record_handle(self, ctx: int, name: str, start: int,
                      end: int) -> None:
        """Record one server-side handle span under a trace context.

        Called from the server's ``_tick`` when the frame being handled
        carried a trace context.  The span is complete on arrival (the
        tick *is* the handling) and parents under the in-flight wire
        span ``ctx``.  It does not populate ``Span.requests`` — the
        request was already attributed to its issuing client span — so
        request counts never double-count.
        """
        wire_span = self._inflight.get(ctx)
        if wire_span is None:
            return
        span = self._span("xhandle", name, wire_span)
        span.start = start
        span.end = end
        span.link = "wire"
        self._keep(span)

    def record_fault(self, action: str, detail: str,
                     ctx: Optional[int] = None) -> None:
        """Record one fault-plan action as a zero-duration span.

        Parents under the in-flight wire span when the fault fired
        inside a traced request (``ctx`` from the server), else under
        the open client span, else as a root.
        """
        wire_span = self._inflight.get(ctx)
        span = self._span("fault",
                          "%s %s" % (action, detail) if detail else action,
                          wire_span or (self._stack[-1] if self._stack
                                        else None))
        if wire_span is not None:
            span.link = "wire"
        self._keep(span)

    # -- server-side attribution ---------------------------------------

    def record_request(self, name: str) -> None:
        """Attribute one request to the span that issued it.

        A buffered one-way request reaches the server later (at flush),
        possibly under an unrelated span, so the Display calls this
        when it enqueues the request and the server only for requests
        it does not receive in a batch.
        """
        if self._stack:
            span = self._stack[-1]
            span.requests[name] = span.requests.get(name, 0) + 1

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

    def to_dict(self) -> Dict[str, object]:
        return {"spans": [span.to_dict() for span in self.spans]}


__all__ = ["Span", "Tracer", "SPAN_RING"]
