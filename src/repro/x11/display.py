"""Client-side display connection — the simulator's "Xlib".

A :class:`Display` is what an application (Tk) holds: it wraps one
client connection to an :class:`~repro.x11.xserver.XServer` and exposes
Xlib-shaped calls.  Requests that Xlib would answer from the wire
without waiting are plain calls; requests that need a server reply go
through the server's round-trip counter, so the traffic-saving claims
of the paper's section 3.3 can be measured per display.

Every request leaves through the transport (:mod:`repro.x11.transport`)
as one of three frames: a reply-bearing request as a REQUEST
(``transport.request``), an unbuffered one-way request as a ONEWAY
(``transport.oneway``), and the output buffer as a BATCH
(``transport.deliver_batch``).  All three take the same path into the
server, which journals each request under this display's client.

Output buffering (the Xlib cost model the paper's §3.3 argument rests
on): with ``buffering_enabled``, one-way requests do not touch the
server at all — they enqueue into a per-display output buffer that is
delivered as a single wire *batch* by :meth:`flush`.  The flush
discipline is Xlib's own:

* any reply-bearing request flushes first (the reply must sort after
  everything already written);
* :meth:`pending`/:meth:`next_event` flush when the event queue is
  empty (``XPending``/``XNextEvent`` reading from the wire);
* the Tk event loop flushes at idle, and :meth:`close` flushes before
  disconnecting.

Coalescing: draw requests superseded by a later ``clear_window`` on
the same window are dropped, duplicate ``select_input``/non-append
``change_property`` writes to the same key keep only the last, and
``configure_window`` requests on the same window merge (later fields
win).  A configure merges at enqueue time into the window's buffered
configure while that configure is still the last buffered request
addressing the window, so :meth:`pending_output` counts the buffer
after that merge; the flush-time pass (:func:`_coalesce`, called only
by :meth:`flush`, over a buffer of one-way requests) does the rest,
including the configure merges only a later ``clear_window`` can
allow.  Every dropped or merged request is counted in
``x11.requests_coalesced`` at flush.  Coalescing never reorders the
surviving requests, so event-generation order is preserved.

Bare ``Display`` objects default to the synchronous path (protocol
tests drive the server request-by-request); :class:`~repro.tk.TkApp`
turns buffering on by default and owns the idle-flush discipline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .events import Event
from .resources import Bitmap, Color, Cursor, Font, GraphicsContext
from .xserver import Client, XConnectionLost, XProtocolError, XServer

#: One-way requests whose drawing output a later clear_window wipes.
_DRAW_OPS = frozenset(("fill_rectangle", "draw_rectangle", "draw_line",
                       "draw_string", "clear_window"))


def _coalesce(ops: List[tuple]) -> Tuple[List[tuple], int]:
    """Flush-time coalescing pass over ``(name, window, args, kwargs)``.

    Returns the surviving ops (original order preserved) and the number
    of requests dropped or merged away.  Rules — each one chosen so the
    server-visible end state is identical and no surviving request is
    reordered:

    * ``clear_window`` wipes a window's recorded drawing, so draw
      requests (and earlier clears) on the same window that precede a
      later clear are dead weight.  A ``destroy_window`` breaks the
      chain: requests addressed to the old window must still be
      delivered (and fail) in order.
    * ``select_input`` is last-write-wins per (client, window) and
      generates no events.
    * non-append ``change_property`` overwrites: an earlier write to
      the same (window, property) key is superseded if nothing else
      (append, delete, destroy) touches that key in between.
    * ``configure_window`` requests on the same window merge (later
      fields win) when no intervening buffered request addresses that
      window, turning a resize storm into one configure + one
      ConfigureNotify/Expose.

    The buffer holds one-way requests only (a reply-bearing request
    flushes it first), so no rule has a reply to keep ordered.
    """
    dropped = 0
    keep = [True] * len(ops)

    # Backward pass: clear_window supersedes earlier draws; later
    # non-append change_property supersedes earlier writes to the key;
    # later select_input supersedes earlier ones for the same client.
    cleared: Set[int] = set()
    overwritten: Set[Tuple[int, int]] = set()
    selected: Set[Tuple[int, int]] = set()
    for index in range(len(ops) - 1, -1, -1):
        name, window, args, kwargs = ops[index]
        if name == "destroy_window":
            cleared.discard(window)
            overwritten = {key for key in overwritten
                           if key[0] != window}
        elif name in _DRAW_OPS:
            if window in cleared:
                keep[index] = False
                dropped += 1
            elif name == "clear_window":
                cleared.add(window)
        elif name == "select_input":
            key = (id(args[0]), window)
            if key in selected:
                keep[index] = False
                dropped += 1
            else:
                selected.add(key)
        elif name == "change_property":
            key = (window, args[1])
            if key in overwritten:
                keep[index] = False
                dropped += 1
            elif kwargs.get("append"):
                overwritten.discard(key)
            else:
                overwritten.add(key)
        elif name == "delete_property":
            overwritten.discard((window, args[1]))

    # Forward pass: merge configure_window runs per window.  A window's
    # pending configure stays mergeable until any other surviving
    # request addresses the same window.
    merge_into: Dict[int, int] = {}
    for index, (name, window, args, kwargs) in enumerate(ops):
        if not keep[index]:
            continue
        if name == "configure_window":
            target = merge_into.get(window)
            if target is not None:
                merged = dict(ops[target][3])
                merged.update(kwargs)
                ops[target] = (name, window, args, merged)
                keep[index] = False
                dropped += 1
            else:
                merge_into[window] = index
        elif window is not None:
            merge_into.pop(window, None)

    return ([op for index, op in enumerate(ops) if keep[index]], dropped)


class Display:
    """One application's connection to the (simulated) display."""

    def __init__(self, server: Optional[XServer] = None,
                 buffering_enabled: bool = False, transport=None):
        from .transport import resolve_transport
        if not hasattr(transport, "deliver_batch"):
            # None, a spec string ("loopback"/"socket"), or a factory
            # callable — anything but a built transport object.
            if server is None:
                raise ValueError("Display needs a server or a transport")
            transport = resolve_transport(server, transport)
        #: how frames reach the server (see repro.x11.transport)
        self.transport = transport
        #: the shared control plane (virtual clock, obs registry);
        #: with a SocketTransport the *data* plane no longer goes
        #: through this object's request methods.
        self.server: XServer = transport.server
        self.client = transport.client
        #: the event queue itself when it lives in this process (the
        #: loopback transport); None when events must be read off a
        #: socket first
        self._local_events = transport.local_events
        self._round_trips_at_connect = self.server.round_trips
        self.buffering_enabled = buffering_enabled
        #: buffered one-way requests: (name, window, args, kwargs)
        self._buffer: List[tuple] = []
        #: window -> kwargs of its buffered configure_window, while no
        #: later buffered request addresses the window (it can merge)
        self._configures: Dict[int, dict] = {}
        #: configures merged at enqueue since the last flush
        self._merged = 0
        #: virtual time the oldest buffered request was enqueued;
        #: tracked only while the tracer is started, so the flush can
        #: stamp the batch's wire span with its queue latency
        self._queued_since: Optional[int] = None
        #: the server's span tracer, held for the enqueue hot path
        self._tracer = self.server._tracer
        self._closed = False
        #: protocol error from a server-driven flush (input injection),
        #: re-raised at this client's next flush point — the simulator's
        #: asynchronous X error delivery.
        self._async_error: Optional[XProtocolError] = None
        transport.register_flush_hook(self._flush_for_server)
        self._m_coalesced = self.server.obs.metrics.counter(
            "x11.requests_coalesced")

    # -- bookkeeping -----------------------------------------------------

    @property
    def root(self) -> int:
        return self.transport.root

    @property
    def screen_width(self) -> int:
        return self.transport.screen_width

    @property
    def screen_height(self) -> int:
        return self.transport.screen_height

    @property
    def closed(self) -> bool:
        """True once closed locally *or* disconnected by the server.

        A fault-injected disconnect closes the server-side client; every
        subsequent call on this display must surface that, not quietly
        pretend the connection is alive.
        """
        return self._closed or self.client.closed

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.flush()
        except XProtocolError:
            self._buffer = []   # connection already gone; nothing to send
        self._closed = True
        self.transport.close()

    def _require_open(self) -> None:
        if self._closed or self.client.closed:
            raise XConnectionLost("connection to X server lost")

    # -- the output buffer ------------------------------------------------

    def _oneway(self, name: str, window: Optional[int], *args,
                **kwargs) -> None:
        """Issue a one-way request: buffer it, or deliver it directly."""
        self._require_open()
        if self.buffering_enabled:
            if self._tracer.enabled:
                # Attribute the request to the span issuing it now: the
                # flush that delivers it may run under another span.
                self._tracer.record_request(name)
                if self._queued_since is None:
                    self._queued_since = self.server.time_ms
            if window in self._configures:
                del self._configures[window]
            self._buffer.append((name, window, args, kwargs))
        else:
            self.transport.oneway(name, window, args, kwargs)

    def _sync_request(self) -> None:
        """Front half of every reply-bearing request (auto-flush).

        The transport attributes the reply-bearing request that follows
        to this client in the journal (one-ways are attributed at batch
        delivery).
        """
        self._require_open()
        if self._buffer or self._async_error is not None:
            self.flush()

    def pending_output(self) -> int:
        """Number of buffered requests not yet delivered."""
        return len(self._buffer)

    def _flush_for_server(self) -> None:
        """Flush on the server's behalf (before input injection).

        An ordinary protocol error raised by the batch is stashed and
        re-raised at this client's next flush point, where the
        application's error handling can see it; a lost connection needs
        no stash — every subsequent call notices ``closed``.
        """
        try:
            self.flush()
        except XConnectionLost:
            pass
        except XProtocolError as error:
            if self._async_error is None:
                self._async_error = error

    def flush(self) -> int:
        """Deliver the output buffer to the server as one batch.

        Returns the number of requests delivered.  Raises
        :class:`XConnectionLost` if the connection died with requests
        still buffered (they are discarded — there is no wire to write
        them to).
        """
        if self._async_error is not None:
            error, self._async_error = self._async_error, None
            raise error
        if not self._buffer:
            return 0
        # Consume the buffer before anything below can raise.  Once a
        # flush is attempted the requests are on the wire (or lost with
        # it): if deliver_batch aborts mid-batch with XConnectionLost,
        # a retry must NOT re-deliver the surviving prefix — real Xlib
        # never rewrites bytes it already handed to the kernel.
        ops, merged = self._buffer, self._merged
        self._buffer = []
        self._configures = {}
        self._merged = 0
        queued_since, self._queued_since = self._queued_since, None
        if self.closed:
            raise XConnectionLost("connection to X server lost "
                                  "(%d buffered requests discarded)"
                                  % (len(ops) + merged))
        ops, dropped = _coalesce(ops)
        dropped += merged
        if dropped:
            self._m_coalesced.value += dropped
        if queued_since is not None:
            queue_ms = self.server.time_ms - queued_since
            if queue_ms:
                return self.transport.deliver_batch(ops, queue_ms)
        return self.transport.deliver_batch(ops)

    # -- event queue -----------------------------------------------------

    def pending(self) -> int:
        self._require_open()
        self.transport.poll()
        if not self.transport.has_queued() and \
                (self._buffer or self._async_error is not None):
            self.flush()
        return self.transport.pending()

    def next_event(self) -> Optional[Event]:
        events = self._local_events
        if events:
            # An in-process queue: a closed connection has none left,
            # and nothing buffered needs flushing while one is queued.
            return events.popleft()
        self._require_open()
        self.transport.poll()
        if not self.transport.has_queued() and \
                (self._buffer or self._async_error is not None):
            self.flush()
        return self.transport.next_event()

    def sync(self) -> None:
        """A full round trip, as XSync performs."""
        self._sync_request()
        self.transport.request("sync")

    # -- windows -----------------------------------------------------------

    def create_window(self, parent: int, x: int, y: int, width: int,
                      height: int, border_width: int = 0) -> int:
        self._sync_request()
        return self.transport.request("create_window", self.client,
                                      parent, x, y, width, height,
                                      border_width)

    def destroy_window(self, window: int) -> None:
        self._oneway("destroy_window", window, window, client=self.client)

    def map_window(self, window: int) -> None:
        self._oneway("map_window", window, window)

    def unmap_window(self, window: int) -> None:
        self._oneway("unmap_window", window, window)

    def configure_window(self, window: int, **kwargs) -> None:
        pending = self._configures.get(window)
        if pending is None:
            self._oneway("configure_window", window, window,
                         client=self.client, **kwargs)
            if self.buffering_enabled:
                self._configures[window] = self._buffer[-1][3]
            return
        # _coalesce's forward rule, decided now: nothing buffered since
        # the pending configure addresses this window, so merge into it.
        self._require_open()
        if self._tracer.enabled:
            self._tracer.record_request("configure_window")
            if self._queued_since is None:
                self._queued_since = self.server.time_ms
        pending.update(kwargs)
        self._merged += 1

    def select_input(self, window: int, mask: int) -> None:
        self._oneway("select_input", window, self.client, window, mask)

    def raise_window(self, window: int) -> None:
        self._oneway("raise_window", window, window)

    def lower_window(self, window: int) -> None:
        self._oneway("lower_window", window, window)

    def get_geometry(self, window: int) -> Tuple[int, int, int, int, int]:
        self._sync_request()
        return self.transport.request("get_geometry", window)

    def window_exists(self, window: int) -> bool:
        """True if ``window`` still exists on the server (a round trip)."""
        self._sync_request()
        return self.transport.request("window_exists", window)

    def query_tree(self, window: int) -> Tuple[int, int, List[int]]:
        self._sync_request()
        return self.transport.request("query_tree", window)

    def set_window_background(self, window: int, pixel: int) -> None:
        self._oneway("set_window_background", window, window, pixel)

    # -- atoms and properties ---------------------------------------------

    def intern_atom(self, name: str, only_if_exists: bool = False) -> int:
        self._sync_request()
        return self.transport.request("intern_atom", name, only_if_exists,
                                      client=self.client)

    def get_atom_name(self, atom: int) -> str:
        self._sync_request()
        return self.transport.request("get_atom_name", atom)

    def change_property(self, window: int, property_atom: int,
                        type_atom: int, value: object,
                        append: bool = False) -> None:
        self._oneway("change_property", window, window, property_atom,
                     type_atom, value, append=append, client=self.client)

    def get_property(self, window: int, property_atom: int,
                     delete: bool = False) -> Optional[Tuple[int, object]]:
        self._sync_request()
        return self.transport.request("get_property", window,
                                      property_atom, delete)

    def delete_property(self, window: int, property_atom: int) -> None:
        self._oneway("delete_property", window, window, property_atom,
                     client=self.client)

    def set_property_access(self, window: int, open_: bool = True) -> None:
        """Grant (or revoke) other clients write access to a window's
        properties — the mailbox declaration of the send/selection
        protocols."""
        self._oneway("set_property_access", window, window, open_,
                     client=self.client)

    # -- selections ----------------------------------------------------------

    def set_selection_owner(self, selection: int, window: int) -> None:
        self._oneway("set_selection_owner", window, self.client,
                     selection, window)

    def get_selection_owner(self, selection: int) -> int:
        self._sync_request()
        return self.transport.request("get_selection_owner", selection)

    def convert_selection(self, selection: int, target: int,
                          property_atom: int, requestor: int) -> None:
        self._oneway("convert_selection", None, self.client, selection,
                     target, property_atom, requestor)

    def send_event(self, window: int, event: Event,
                   event_mask: int = 0) -> None:
        self._oneway("send_event", window, window, event, event_mask)

    def set_input_focus(self, window: int) -> None:
        self._oneway("set_input_focus", window, window)

    # -- resources ----------------------------------------------------------

    def alloc_named_color(self, name: str) -> Color:
        self._sync_request()
        return self.transport.request("alloc_named_color", name)

    def load_font(self, name: str) -> Font:
        self._sync_request()
        return self.transport.request("load_font", name,
                                      client=self.client)

    def create_cursor(self, name: str) -> Cursor:
        self._sync_request()
        return self.transport.request("create_cursor", name,
                                      client=self.client)

    def create_bitmap(self, name: str, width: int = 0,
                      height: int = 0) -> Bitmap:
        self._sync_request()
        return self.transport.request("create_bitmap", name, width,
                                      height, client=self.client)

    def create_gc(self, **values) -> GraphicsContext:
        self._sync_request()
        return self.transport.request("create_gc", client=self.client,
                                      **values)

    def free_resource(self, rid: int) -> None:
        self._oneway("free_resource", None, rid)

    # -- drawing ----------------------------------------------------------

    def clear_window(self, window: int) -> None:
        self._oneway("clear_window", window, window, client=self.client)

    def fill_rectangle(self, window: int, gc: GraphicsContext, x: int,
                       y: int, width: int, height: int) -> None:
        self._oneway("fill_rectangle", window, window, gc, x, y,
                     width, height, client=self.client)

    def draw_rectangle(self, window: int, gc: GraphicsContext, x: int,
                       y: int, width: int, height: int) -> None:
        self._oneway("draw_rectangle", window, window, gc, x, y,
                     width, height, client=self.client)

    def draw_line(self, window: int, gc: GraphicsContext, x1: int, y1: int,
                  x2: int, y2: int) -> None:
        self._oneway("draw_line", window, window, gc, x1, y1, x2, y2,
                     client=self.client)

    def draw_string(self, window: int, gc: GraphicsContext, x: int, y: int,
                    text: str) -> None:
        self._oneway("draw_string", window, window, gc, x, y, text,
                     client=self.client)


__all__ = ["Display", "XProtocolError", "XConnectionLost"]
