"""Transports: how a Display's frames reach the XServer.

Two interchangeable implementations of the same contract sit between
:class:`~repro.x11.display.Display` and
:class:`~repro.x11.xserver.XServer`; both derive the opt-in frame
capture and wall-clock RTT sampling from :class:`Transport`:

:class:`LoopbackTransport`
    The default.  Requests still execute as direct method calls — so
    every existing test, golden journal, and fleet snapshot stays
    byte-identical — but each request, reply, event, and error is
    *also* accounted at its exact :mod:`repro.x11.wire` frame size
    (``wire.frame_size``; frames are materialised only under
    ``capture_wire``), so bytes-in/out per client and round-trip
    latency are first-class metrics even in-process.

:class:`SocketTransport`
    The real thing: a :class:`ServerHost` runs the XServer on its own
    thread, serving any number of client Displays over per-client
    ``socket.socketpair()`` connections with read/write buffering and
    backpressure accounting.  The protocol is ack-synchronous — a
    BATCH is answered by the events it generated and then a BATCH_ACK,
    a REQUEST by events and then a REPLY or ERROR — which keeps the
    virtual-clock simulation deterministic and gives the transport
    inherent flow control.

Both transports install themselves as the client's event sink, so the
fault plan's drop/delay decisions act on *frames* at the transport
layer rather than on in-server method calls; released delayed events
bypass the plan through the client's direct sink (a release must not
be re-dropped).

Metrics (on the server's registry, labeled by client number and
transport kind): ``x11.wire.bytes_out`` / ``x11.wire.bytes_in`` count
payload traffic from the client's point of view (the handshake is
uncounted, so loopback and socket byte counts agree);
``x11.wire.rtt_ms`` is a virtual-clock histogram over reply-bearing
requests; ``x11.wire.backpressure`` counts short writes on a
connection whose peer is slow to read.  The ``transport=`` label keeps
mixed-transport fleets from folding both paths into one series.

When a span tracer is active (:mod:`repro.obs.trace`), both transports
open a *wire span* per outbound BATCH/REQUEST/ONEWAY frame, stamp its
id into the frame's trace-context field, and set ``server._trace_ctx``
for the duration of the server-side handling, so the server's per-tick
handle spans stitch into the client's causal tree identically on both
transports.  With no tracer active the frames carry no context and are
byte-identical to the untraced codec.

Input injection (``warp_pointer`` and friends) runs on the server
thread, and requests a client has already buffered must reach the
server before the input (the Xlib output discipline).
:meth:`ServerHost.inject` keeps that rule on the calling thread: it
flushes every socket Display that holds buffered output, in connection
order, before it hands the injector to the server thread.  Each flush
is an ordinary ack-synchronous BATCH, served by the host's one read
loop, so the server journals the drained requests before the input,
as the loopback path does.  Idle Displays send nothing.

A request frame naming no public server request, or whose handler
fails with anything but an X error, is answered with an ERROR frame
carrying :class:`~repro.x11.xserver.XProtocolError`; the host keeps
serving.  (Over loopback the same mistakes raise in-process.)
"""

from __future__ import annotations

import queue
import selectors
import socket
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

from . import wire
from .xserver import (XConnectionLost, XProtocolError, XServer,
                      lost_if_closed)
from ..obs import trace as _trace

__all__ = [
    "Transport", "LoopbackTransport", "SocketTransport", "ServerHost",
    "ensure_host", "shutdown_host", "resolve_transport", "RTT_BUCKETS",
]

#: Bucket edges (virtual ms) for the round-trip latency histogram.
RTT_BUCKETS = (1, 2, 5, 10, 20, 50, 100)

_LOST = "connection to X server lost"

#: Outbound buffer cap per connection; past this the server closes the
#: unresponsive client down, as a real server does when a consumer
#: stops reading.
WRITE_LIMIT = 1 << 20

_RECV_CHUNK = 65536

#: How long a blocking client-side read waits for the server thread
#: before declaring the connection dead.  Generous: the virtual-clock
#: simulation never legitimately takes seconds per round trip.
_REPLY_TIMEOUT = 30.0


class _Telemetry:
    """Per-connection wire metrics on the server's registry."""

    def __init__(self, server: XServer, number: int, kind: str):
        registry = server.obs.metrics
        self.bytes_out = registry.counter("x11.wire.bytes_out",
                                          client=number, transport=kind)
        self.bytes_in = registry.counter("x11.wire.bytes_in",
                                         client=number, transport=kind)
        self.rtt_ms = registry.histogram("x11.wire.rtt_ms",
                                         buckets=RTT_BUCKETS,
                                         client=number, transport=kind)


class Transport:
    """What every transport shares: the opt-in frame capture log and
    wall-clock RTT sampling."""

    #: the client's event queue when it can be popped directly (no
    #: frames to read first); see Display.next_event
    local_events: Optional[deque] = None

    def __init__(self):
        #: captured frames when :meth:`capture_wire` is active
        self.wire_log: Optional[List[bytes]] = None
        #: wall-clock RTT samples (ns) when :meth:`enable_wall_rtt` is on;
        #: never fed into a metrics registry — registries must stay
        #: bit-identical across same-seed runs.
        self.wall_rtt_ns: Optional[List[int]] = None
        self._wall_clock: Optional[Callable[[], int]] = None

    def capture_wire(self) -> List[bytes]:
        """Start logging every frame; returns the live log list."""
        self.wire_log = []
        return self.wire_log

    def enable_wall_rtt(self, clock: Callable[[], int]) -> List[int]:
        self._wall_clock = clock
        self.wall_rtt_ns = []
        return self.wall_rtt_ns


# ----------------------------------------------------------------------
# loopback
# ----------------------------------------------------------------------

class LoopbackTransport(Transport):
    """In-process transport: wire accounting over direct method calls."""

    kind = "loopback"

    def __init__(self, server: XServer, client=None):
        super().__init__()
        self.server = server
        self.client = client if client is not None else server.connect()
        self._telemetry = _Telemetry(server, self.client.number,
                                     self.kind)
        self.client.transport_sink = self._sink_event
        self.client.direct_sink = self._ship_event
        self.local_events = self.client.queue

    # -- connection facts ----------------------------------------------

    @property
    def root(self) -> int:
        return self.server.root.id

    @property
    def screen_width(self) -> int:
        return self.server.root.width

    @property
    def screen_height(self) -> int:
        return self.server.root.height

    def register_flush_hook(self, hook: Callable[[], object]) -> None:
        self.client.flush_output = hook

    # -- frame accounting ----------------------------------------------
    #
    # Counting goes through wire.frame_size on the hot path; frames are
    # only materialised when a capture log needs the actual bytes.
    # frame_size raises the same WireError encode_frame would, so
    # unencodable values fail identically either way.

    def _count_out(self, ftype: int, value=None,
                   ctx: Optional[int] = None) -> None:
        if self.wire_log is None:
            self._telemetry.bytes_out.value += wire.frame_size(ftype,
                                                               value,
                                                               ctx)
            return
        frame = wire.encode_frame(ftype, value, ctx)
        self._telemetry.bytes_out.value += len(frame)
        self.wire_log.append(frame)

    def _count_in(self, ftype: int, value=None) -> None:
        if self.wire_log is None:
            self._telemetry.bytes_in.value += wire.frame_size(ftype,
                                                              value)
            return
        frame = wire.encode_frame(ftype, value)
        self._telemetry.bytes_in.value += len(frame)
        self.wire_log.append(frame)

    # -- event delivery (installed as the client's sinks) --------------

    def _sink_event(self, event) -> None:
        # Every delivered event passes here, so the whole hop is this
        # one call: the fault plan's gate, the byte count (or the
        # captured frame), the queue.
        plan = self.server.fault_plan
        if plan is not None and not plan.on_event(self.server,
                                                  self.client, event):
            return
        if self.wire_log is None:
            self._telemetry.bytes_in.value += wire.frame_size(wire.EVENT,
                                                              event)
        else:
            self._count_in(wire.EVENT, event)
        self.client.queue.append(event)

    def _ship_event(self, event) -> None:
        self._count_in(wire.EVENT, event)
        self.client.queue.append(event)

    # -- request paths -------------------------------------------------

    def deliver_batch(self, ops, queue_ms: int = 0) -> int:
        ops = list(ops)
        ctx, spans = (_trace.open_wire("batch", queue_ms)
                      if _trace._ACTIVE else (None, ()))
        server = self.server
        prev_ctx = server._trace_ctx
        try:
            self._count_out(wire.BATCH, ops, ctx)
            server._trace_ctx = ctx
            try:
                delivered = server.deliver_batch(self.client, ops)
            except XProtocolError as error:
                self._count_in(wire.ERROR, wire.error_value(error))
                raise
            self._count_in(wire.BATCH_ACK, delivered)
            return delivered
        finally:
            server._trace_ctx = prev_ctx
            if spans:
                _trace.close_wire(ctx, spans)

    def request(self, name: str, *args, **kwargs):
        ctx, spans = (_trace.open_wire(name)
                      if _trace._ACTIVE else (None, ()))
        server = self.server
        prev_ctx = server._trace_ctx
        try:
            self._count_out(wire.REQUEST, (name, args, kwargs), ctx)
            server._jclient = self.client.number
            started = server.time_ms
            wall = self._wall_clock() \
                if self._wall_clock is not None else None
            server._trace_ctx = ctx
            try:
                result = getattr(server, name)(*args, **kwargs)
            except XProtocolError as error:
                error = lost_if_closed(self.client, error)
                self._count_in(wire.ERROR, wire.error_value(error))
                self._observe_rtt(started, wall)
                self._scrub_if_closed()
                raise error
            self._count_in(wire.REPLY, result)
            self._observe_rtt(started, wall)
            self._scrub_if_closed()
            return result
        finally:
            server._trace_ctx = prev_ctx
            if spans:
                _trace.close_wire(ctx, spans)

    def oneway(self, name: str, window, args, kwargs) -> None:
        ctx, spans = (_trace.open_wire(name)
                      if _trace._ACTIVE else (None, ()))
        server = self.server
        prev_ctx = server._trace_ctx
        try:
            self._count_out(wire.ONEWAY, (name, window, args, kwargs),
                            ctx)
            server._trace_ctx = ctx
            try:
                getattr(server, name)(*args, **kwargs)
            except XProtocolError as error:
                error = lost_if_closed(self.client, error)
                self._count_in(wire.ERROR, wire.error_value(error))
                self._scrub_if_closed()
                raise error
            self._count_in(wire.ONEWAY_ACK, None)
            self._scrub_if_closed()
        finally:
            server._trace_ctx = prev_ctx
            if spans:
                _trace.close_wire(ctx, spans)

    def _observe_rtt(self, started: int, wall: Optional[int]) -> None:
        self._telemetry.rtt_ms.observe(self.server.time_ms - started)
        if wall is not None:
            self.wall_rtt_ns.append(self._wall_clock() - wall)

    def _scrub_if_closed(self) -> None:
        # A scripted fault may have closed this connection during the
        # request's own tick, after close-down but before the request
        # body re-registered state; nothing may survive for a closed
        # client (the fuzzer's census oracle checks exactly this).
        if self.client.closed:
            self.server._scrub_closed(self.client)

    # -- event queue ---------------------------------------------------

    def poll(self) -> None:
        """Pull pending inbound traffic (a no-op in-process)."""

    def has_queued(self) -> bool:
        return bool(self.client.queue)

    def pending(self) -> int:
        return self.client.pending()

    def next_event(self):
        return self.client.next_event()

    # -- close-down ----------------------------------------------------

    def close(self) -> None:
        if not self.client.closed:
            self._count_out(wire.BYE, None)
        self.server.disconnect(self.client)


# ----------------------------------------------------------------------
# socket server host
# ----------------------------------------------------------------------

class _Conn:
    """Server-side state of one socket connection (server thread only)."""

    def __init__(self, host: "ServerHost", sock: socket.socket):
        self.host = host
        self.sock = sock
        self.client = None  # bound by the SETUP frame
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.closed = False
        self.lost_sent = False
        self._m_backpressure = None

    def resolve(self, number: int):
        for client in self.host.server.clients:
            if client.number == number:
                return client
        return wire.ClientRef(number)

    # -- writing -------------------------------------------------------

    def send(self, frame: bytes) -> None:
        if self.closed:
            return
        self.wbuf += frame
        self.flush_writes()
        if len(self.wbuf) > WRITE_LIMIT:
            self.host._drop_conn(self)

    def send_error(self, error: Exception) -> None:
        self.send(wire.encode_frame(wire.ERROR, wire.error_value(error)))

    def flush_writes(self) -> None:
        while self.wbuf and not self.closed:
            try:
                sent = self.sock.send(self.wbuf)
            except BlockingIOError:
                self._note_backpressure()
                break
            except OSError:
                self.close()
                break
            if sent <= 0:
                self._note_backpressure()
                break
            del self.wbuf[:sent]

    def _note_backpressure(self) -> None:
        if self._m_backpressure is None:
            number = self.client.number if self.client is not None else 0
            self._m_backpressure = self.host.server.obs.metrics.counter(
                "x11.wire.backpressure", client=number)
        self._m_backpressure.value += 1

    # -- event delivery (installed as the client's sinks) --------------

    def sink_event(self, event) -> None:
        server = self.host.server
        plan = server.fault_plan
        if plan is not None and not plan.on_event(server, self.client,
                                                  event):
            return
        self.ship_event(event)

    def ship_event(self, event) -> None:
        if not self.closed:
            self.send(wire.encode_frame(wire.EVENT, event))

    # -- teardown ------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.host._sel.unregister(self.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        if self in self.host._conns:
            self.host._conns.remove(self)


class _HostCall:
    """A callable marshalled to the server thread, plus its results."""

    __slots__ = ("fn", "result", "error", "done")

    def __init__(self, fn):
        self.fn = fn
        self.result = None
        self.error = None
        #: gets one item once ``fn`` has run on the server thread
        self.done: "queue.SimpleQueue" = queue.SimpleQueue()


class ServerHost:
    """Runs an XServer on its own thread, serving socket clients.

    The control plane (virtual clock, metrics registry, journal) stays
    shared memory — the host is a thread, not a separate process — but
    the data plane crosses a real socketpair per client as
    length-prefixed frames.  Callers must not touch the server's
    request API directly while the host is running; use
    :class:`SocketTransport` for session traffic and :meth:`call` /
    :meth:`inject` for server-side operations such as input injection.
    """

    def __init__(self, server: XServer):
        self.server = server
        self.running = False
        self._thread: Optional[threading.Thread] = None
        self._sel: Optional[selectors.BaseSelector] = None
        self._conns: List[_Conn] = []
        self._commands: deque = deque()
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        #: client number -> the Display's flush hook, in connection order
        self._flushers: Dict[int, Callable[[], None]] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ServerHost":
        if self.running:
            return self
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._wake_r, selectors.EVENT_READ, None)
        self.running = True
        self._thread = threading.Thread(target=self._loop,
                                        name="xserver-host", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if not self.running:
            return
        with self._lock:
            self._commands.append(("stop", None))
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.running = False

    def open_connection(self) -> socket.socket:
        """Create a socketpair, hand the server end to the host loop,
        and return the client end (called from a client thread)."""
        server_end, client_end = socket.socketpair()
        with self._lock:
            self._commands.append(("conn", server_end))
        self._wake()
        return client_end

    def register_display(self, number: int, flush_hook: Callable) -> None:
        # The hook is a Display's bound _flush_for_server; its
        # pending_output tells an injection whether a flush would send
        # anything.
        self._flushers[number] = flush_hook

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass

    # -- cross-thread calls --------------------------------------------

    def call(self, fn: Callable[[], object]):
        """Run ``fn`` on the server thread and return its result."""
        if threading.current_thread() is self._thread:
            return fn()
        if not self.running:
            raise RuntimeError("ServerHost is not running")
        call = _HostCall(fn)
        with self._lock:
            self._commands.append(("call", call))
        self._wake()
        call.done.get()
        if call.error is not None:
            raise call.error
        return call.result

    def inject(self, name: str, *args):
        """Run a server input injector (``warp_pointer`` etc.) on the
        server thread.

        Socket Displays that hold buffered output are flushed first, on
        this thread and in connection order: their requests were issued
        before the input, so they must reach the server before it.  A
        flush's protocol error is stashed by the Display for its next
        flush point, and a lost connection surfaces at its next call;
        neither stops the input.  Idle Displays send nothing.  Called
        from the host thread, the injector just runs.
        """
        if threading.current_thread() is not self._thread:
            for flush in list(self._flushers.values()):
                if flush.__self__.pending_output():
                    flush()
        server = self.server
        return self.call(lambda: getattr(server, name)(*args))

    # -- server thread loop --------------------------------------------

    def _loop(self) -> None:
        while self.running:
            try:
                events = self._sel.select(timeout=0.2)
            except OSError:  # pragma: no cover - selector torn down
                break
            for key, mask in events:
                conn = key.data
                if conn is None:
                    self._drain_wake()
                    self._process_commands()
                    continue
                if conn.closed:
                    continue
                if mask & selectors.EVENT_WRITE:
                    conn.flush_writes()
                    self._update_interest(conn)
                if mask & selectors.EVENT_READ:
                    self._read_conn(conn)
            self._sweep()
        for conn in list(self._conns):
            conn.close()
        try:
            self._sel.close()
        except OSError:  # pragma: no cover
            pass

    def _drain_wake(self) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _process_commands(self) -> None:
        while True:
            with self._lock:
                if not self._commands:
                    return
                kind, payload = self._commands.popleft()
            if kind == "conn":
                payload.setblocking(False)
                conn = _Conn(self, payload)
                self._conns.append(conn)
                self._sel.register(payload, selectors.EVENT_READ, conn)
            elif kind == "call":
                self._run_call(payload)
            elif kind == "stop":
                self.running = False

    def _run_call(self, call: _HostCall) -> None:
        try:
            call.result = call.fn()
        except BaseException as error:
            call.error = error
        self._sweep()
        call.done.put(None)

    def _update_interest(self, conn: _Conn) -> None:
        if conn.closed:
            return
        interest = selectors.EVENT_READ
        if conn.wbuf:
            interest |= selectors.EVENT_WRITE
        try:
            self._sel.modify(conn.sock, interest, conn)
        except (KeyError, ValueError, OSError):
            pass

    def _read_conn(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop_conn(conn)
            return
        conn.rbuf += data
        try:
            frames = wire.extract_frames(conn.rbuf)
        except wire.WireError:
            self._drop_conn(conn)
            return
        for frame in frames:
            if conn.closed:
                break
            self._handle_frame(conn, frame)
        self._update_interest(conn)
        self._sweep()

    # -- frame handling ------------------------------------------------

    def _handle_frame(self, conn: _Conn, frame: bytes) -> None:
        try:
            ftype, value, ctx = wire.decode_frame_ex(frame, conn.resolve)
        except wire.WireError:
            self._drop_conn(conn)
            return
        server = self.server
        if ftype == wire.SETUP:
            client = server.connect()
            conn.client = client
            client.transport_sink = conn.sink_event
            client.direct_sink = conn.ship_event
            conn.send(wire.encode_frame(wire.SETUP_ACK, (
                client.number, server.root.id, server.root.width,
                server.root.height)))
            return
        if conn.client is None:
            self._drop_conn(conn)
            return
        if ftype in (wire.BATCH, wire.REQUEST, wire.ONEWAY):
            self._serve_request(conn, ftype, value, ctx)
            return
        if ftype == wire.BYE:
            server.disconnect(conn.client)
            conn.flush_writes()
            conn.close()  # EOF is the close-down acknowledgement
            return
        self._drop_conn(conn)

    def _serve_request(self, conn: _Conn, ftype: int, value,
                       ctx: Optional[int]) -> None:
        """Run a BATCH, REQUEST or ONEWAY frame and answer it.

        X errors cross the wire typed.  Anything else the request does
        wrong — naming no public server request, a malformed payload, a
        handler raising a non-X exception — is answered with an
        XProtocolError naming the request, so one bad frame cannot kill
        the host thread.
        """
        server = self.server
        name = wire.frame_name(ftype)
        prev_ctx = server._trace_ctx
        server._trace_ctx = ctx
        try:
            if ftype == wire.BATCH:
                ops = [tuple(op) for op in value]
                for op in ops:
                    self._handler(op[0])
                reply = wire.encode_frame(
                    wire.BATCH_ACK, server.deliver_batch(conn.client, ops))
            elif ftype == wire.REQUEST:
                name, args, kwargs = value
                server._jclient = conn.client.number
                result = self._handler(name)(*args, **kwargs)
                try:
                    reply = wire.encode_frame(wire.REPLY, result)
                except wire.WireError as error:
                    raise XProtocolError("unencodable reply from %s: %s"
                                         % (name, error))
            else:
                name, _window, args, kwargs = value
                self._handler(name)(*args, **kwargs)
                reply = wire.encode_frame(wire.ONEWAY_ACK, None)
        except XProtocolError as error:
            error = lost_if_closed(conn.client, error)
            if isinstance(error, XConnectionLost):
                conn.lost_sent = True
                conn.send_error(error)
                conn.flush_writes()
                conn.close()
            else:
                conn.send_error(error)
        except Exception as error:
            conn.send_error(XProtocolError(
                "BadRequest: %s failed: %s: %s"
                % (name, type(error).__name__, error)))
        else:
            conn.send(reply)
        finally:
            server._trace_ctx = prev_ctx
        if ftype != wire.BATCH and conn.client.closed:
            server._scrub_closed(conn.client)

    def _handler(self, name):
        """The server method a request names; private names are refused."""
        handler = None
        if type(name) is str and not name.startswith("_"):
            handler = getattr(self.server, name, None)
        if not callable(handler):
            raise XProtocolError("BadRequest: no such request %r" % (name,))
        return handler

    def _drop_conn(self, conn: _Conn) -> None:
        """Protocol violation or EOF without BYE: server-side close."""
        if conn.client is not None and not conn.client.closed:
            self.server.disconnect(conn.client)
        conn.close()

    def _sweep(self) -> None:
        """Notify connections whose client a fault plan closed."""
        for conn in list(self._conns):
            if conn.closed or conn.client is None:
                continue
            if conn.client.closed and not conn.lost_sent:
                conn.lost_sent = True
                conn.send_error(XConnectionLost(_LOST))
                conn.flush_writes()
                conn.close()


# ----------------------------------------------------------------------
# socket client transport
# ----------------------------------------------------------------------

class _RemoteClient(wire.ClientRef):
    """Client-side stand-in for the server-side Client object."""

    __slots__ = ("_transport",)

    def __init__(self, transport: "SocketTransport"):
        super().__init__(transport.number)
        self._transport = transport

    @property
    def closed(self) -> bool:
        return self._transport._closed

    @property
    def queue(self):
        return self._transport.queue

    def pending(self) -> int:
        return len(self._transport.queue)

    def next_event(self):
        q = self._transport.queue
        return q.popleft() if q else None


class SocketTransport(Transport):
    """A Display's connection to a thread-hosted XServer over a socket."""

    kind = "socket"

    def __init__(self, host):
        super().__init__()
        if isinstance(host, XServer):
            host = ensure_host(host)
        self.host: ServerHost = host
        self.server = host.server  # shared control plane (clock, obs)
        self.queue: deque = deque()
        self._rbuf = bytearray()
        self._frames: deque = deque()
        self._closed = False
        self._sock = host.open_connection()
        self._sock.settimeout(_REPLY_TIMEOUT)
        # Handshake; connection setup, like a real X connection block,
        # is not session traffic and stays uncounted.
        try:
            self._sock.sendall(wire.encode_frame(wire.SETUP, None))
            ftype, value = self._handshake_read()
        except OSError:
            raise XConnectionLost(_LOST)
        if ftype != wire.SETUP_ACK:
            raise wire.WireError("expected SETUP_ACK, got %s"
                                 % wire.frame_name(ftype))
        self.number, self._root, self._width, self._height = value
        self.client = _RemoteClient(self)
        self._telemetry = _Telemetry(self.server, self.number, self.kind)

    def _handshake_read(self):
        while True:
            if self._frames:
                return wire.decode_frame(self._frames.popleft())
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise XConnectionLost(_LOST)
            self._rbuf += data
            self._frames.extend(wire.extract_frames(self._rbuf))

    # -- connection facts ----------------------------------------------

    @property
    def root(self) -> int:
        return self._root

    @property
    def screen_width(self) -> int:
        return self._width

    @property
    def screen_height(self) -> int:
        return self._height

    def register_flush_hook(self, hook: Callable[[], object]) -> None:
        self.host.register_display(self.number, hook)

    # -- raw socket I/O ------------------------------------------------

    def _mark_lost(self) -> None:
        self._closed = True
        self.queue.clear()  # disconnect clears undelivered events

    def _send(self, frame: bytes) -> None:
        if self._closed:
            raise XConnectionLost(_LOST)
        try:
            self._sock.sendall(frame)
        except OSError:
            self._mark_lost()
            raise XConnectionLost(_LOST)
        self._telemetry.bytes_out.value += len(frame)
        if self.wire_log is not None:
            self.wire_log.append(frame)

    def _next_frame(self, block: bool) -> Optional[bytes]:
        while True:
            if self._frames:
                return self._frames.popleft()
            if self._closed:
                return None
            if block:
                try:
                    data = self._sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    self._mark_lost()
                    raise XConnectionLost(
                        "wire timeout: no reply from server host")
                except OSError:
                    data = b""
            else:
                self._sock.setblocking(False)
                try:
                    data = self._sock.recv(_RECV_CHUNK)
                except (BlockingIOError, socket.timeout):
                    return None
                except OSError:
                    data = b""
                finally:
                    self._sock.settimeout(_REPLY_TIMEOUT)
            if not data:
                self._mark_lost()
                return None
            self._rbuf += data
            try:
                self._frames.extend(wire.extract_frames(self._rbuf))
            except wire.WireError:
                self._mark_lost()
                raise

    def _absorb(self, frame: bytes):
        """Count and log one inbound frame; queue events."""
        self._telemetry.bytes_in.value += len(frame)
        if self.wire_log is not None:
            self.wire_log.append(frame)
        ftype, value = wire.decode_frame(frame)
        if ftype == wire.EVENT:
            self.queue.append(value)
        return ftype, value

    def _await_reply(self, expected: int):
        while True:
            frame = self._next_frame(block=True)
            if frame is None:
                raise XConnectionLost(_LOST)
            ftype, value = self._absorb(frame)
            if ftype == wire.EVENT:
                continue
            if ftype == wire.ERROR:
                error = wire.error_from_value(value)
                if isinstance(error, XConnectionLost):
                    self._mark_lost()
                raise error
            if ftype == expected:
                return value
            raise wire.WireError("unexpected %s frame while awaiting %s"
                                 % (wire.frame_name(ftype),
                                    wire.frame_name(expected)))

    # -- request paths -------------------------------------------------

    def deliver_batch(self, ops, queue_ms: int = 0) -> int:
        ctx, spans = (_trace.open_wire("batch", queue_ms)
                      if _trace._ACTIVE else (None, ()))
        try:
            self._send(wire.encode_frame(wire.BATCH, list(ops), ctx))
            return self._await_reply(wire.BATCH_ACK)
        finally:
            if spans:
                _trace.close_wire(ctx, spans)

    def request(self, name: str, *args, **kwargs):
        ctx, spans = (_trace.open_wire(name)
                      if _trace._ACTIVE else (None, ()))
        try:
            started = self.server.time_ms
            wall = self._wall_clock() \
                if self._wall_clock is not None else None
            self._send(wire.encode_frame(wire.REQUEST,
                                         (name, args, kwargs), ctx))
            try:
                return self._await_reply(wire.REPLY)
            finally:
                self._telemetry.rtt_ms.observe(
                    self.server.time_ms - started)
                if wall is not None:
                    self.wall_rtt_ns.append(self._wall_clock() - wall)
        finally:
            if spans:
                _trace.close_wire(ctx, spans)

    def oneway(self, name: str, window, args, kwargs) -> None:
        ctx, spans = (_trace.open_wire(name)
                      if _trace._ACTIVE else (None, ()))
        try:
            self._send(wire.encode_frame(wire.ONEWAY,
                                         (name, window, args, kwargs),
                                         ctx))
            self._await_reply(wire.ONEWAY_ACK)
        finally:
            if spans:
                _trace.close_wire(ctx, spans)

    # -- event queue ---------------------------------------------------

    def poll(self) -> None:
        """Absorb any frames the server has already written."""
        while not self._closed:
            frame = self._next_frame(block=False)
            if frame is None:
                return
            ftype, value = self._absorb(frame)
            if ftype == wire.ERROR:
                error = wire.error_from_value(value)
                if isinstance(error, XConnectionLost):
                    self._mark_lost()
                else:
                    raise error
            elif ftype != wire.EVENT:
                raise wire.WireError("unsolicited %s frame"
                                     % wire.frame_name(ftype))

    def has_queued(self) -> bool:
        return bool(self.queue)

    def pending(self) -> int:
        return len(self.queue)

    def next_event(self):
        return self.queue.popleft() if self.queue else None

    # -- close-down ----------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._send(wire.encode_frame(wire.BYE, None))
        except XProtocolError:
            return
        # Synchronous close-down: wait for the host's EOF so the
        # journal's disconnect entry lands before the caller's next
        # action, exactly as the in-process path orders it.
        try:
            while True:
                frame = self._next_frame(block=True)
                if frame is None:
                    break
                self._absorb(frame)
        except (XProtocolError, wire.WireError):
            pass
        self._mark_lost()
        try:
            self._sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def ensure_host(server: XServer) -> ServerHost:
    """The server's running ServerHost, started on first use."""
    host = getattr(server, "_wire_host", None)
    if host is None or not host.running:
        host = ServerHost(server).start()
        server._wire_host = host
    return host


def shutdown_host(server: XServer) -> None:
    """Stop the server's host thread, if one was ever started."""
    host = getattr(server, "_wire_host", None)
    if host is not None:
        host.stop()
        server._wire_host = None


def resolve_transport(server: XServer, spec=None):
    """Build a transport from a spec.

    ``None`` or ``"loopback"`` → a fresh :class:`LoopbackTransport`;
    ``"socket"`` → a :class:`SocketTransport` over the server's
    (started-on-demand) host thread; a callable is invoked with the
    server and must return a transport; an already-built transport
    passes through.
    """
    if spec is None or spec == "loopback":
        return LoopbackTransport(server)
    if spec == "socket":
        return SocketTransport(ensure_host(server))
    if isinstance(spec, Transport):
        return spec
    if callable(spec):
        return resolve_transport(server, spec(server))
    raise ValueError("unknown transport %r" % (spec,))
