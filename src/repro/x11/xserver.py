"""The simulated X display server.

One :class:`XServer` instance plays the role of the X11 server process:
it owns the window tree, the atom and property tables, the colormap,
fonts, cursors, selections, and the per-client event queues.  Multiple
clients (applications) connect to the same server, which is what makes
cross-application features — the ICCCM selection (paper section 3.6)
and Tk's ``send`` (section 6) — work exactly as they do on a real
display.

Round-trip accounting: every request that would require the client to
wait for a server reply calls :meth:`XServer.round_trip`.  Tk's
resource caches (section 3.3) exist to avoid those waits; the counter
makes their effect measurable (see benchmarks/test_ablation_cache.py).

Observability: each server owns a :class:`repro.obs.Observability` hub
on its virtual clock.  ``_tick`` counts every named request as
``x11.requests{type=name}`` and ``round_trip`` as ``x11.round_trips``;
both also feed the server's span tracer when it is started, which is
how a trace attributes wire traffic to the widget and script that
caused it.  The hub's tracer is the display's one tracer: every
application on the server shares it.  The legacy
``requests``/``round_trips`` integers are now read-only views of those
metrics.

Event serials: every event the server generates takes the next serial,
selected or not, so a delivered serial (Tk's ``%#``) does not depend on
who listens elsewhere; a structure or Expose event nobody selected
takes its serial but is never built.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..obs import Observability
from ..obs.journal import args_digest
from . import events as _events
from .atoms import AtomTable
from .events import (ALWAYS_DELIVERED, BUTTON_PRESS, BUTTON_RELEASE,
                     CONFIGURE_NOTIFY, DESTROY_NOTIFY, ENTER_NOTIFY, EXPOSE,
                     EXPOSURE_MASK, Event, KEY_PRESS, KEY_RELEASE,
                     LEAVE_NOTIFY, MAP_NOTIFY, MASK_FOR_TYPE, MOTION_NOTIFY,
                     PROPERTY_NOTIFY, SELECTION_CLEAR, SELECTION_NOTIFY,
                     SELECTION_REQUEST, STRUCTURE_NOTIFY_MASK,
                     SUBSTRUCTURE_NOTIFY_MASK, UNMAP_NOTIFY)
from .resources import (BUILTIN_BITMAPS, CURSOR_NAMES, Bitmap, Color, Cursor,
                        Font, GraphicsContext, font_exists, font_metrics,
                        parse_color)
from .window import Rect, Window, bands, clip_region, subtract_rect


class VirtualClock:
    """The simulated millisecond clock one or more servers tick.

    Every server owns a clock; by default each creates its own, which
    is the historical one-server-one-timeline behavior.  A fleet of
    servers can instead be constructed over a single shared clock
    (``XServer(clock=shared)``), putting hundreds of isolated sessions
    on one common virtual timeline — cross-session latency comparisons
    and fleet-wide timeouts then mean the same thing in every session,
    which is what makes per-session latency distributions under
    concurrent load comparable (Gunther's "X-Files" methodology).
    """

    __slots__ = ("now",)

    def __init__(self, now: int = 0):
        self.now = now


class XProtocolError(Exception):
    """A request referenced a bad resource or argument."""


class XConnectionLost(XProtocolError):
    """The client's connection to the server is gone.

    Unlike an ordinary protocol error (which a script can catch and the
    event loop can survive), a lost connection is fatal to the client:
    the Tk dispatcher reports it through ``bgerror`` once and then tears
    the application down, exactly as real Tk exits on an X I/O error.
    """


def _batch_lost(delivered: int, total: int) -> XConnectionLost:
    return XConnectionLost("connection to X server lost (batch aborted "
                           "after %d of %d requests)" % (delivered, total))


def _selects(window: Window, mask: int) -> bool:
    """True if some client selected an event of ``mask`` on ``window``."""
    for selected in window.event_selections.values():
        if selected & mask:
            return True
    return False


class Client:
    """One connected application's view of the server."""

    def __init__(self, server: "XServer", number: int):
        self.server = server
        self.number = number
        self.queue: deque = deque()
        self.closed = False
        #: atoms this client interned (census bookkeeping only — atoms
        #: themselves are server-global and permanent)
        self.atom_refs: set = set()
        #: set by a loopback Display: delivers the client's output
        #: buffer.  The server calls it before injecting user input, so
        #: requests the client already issued always precede the input
        #: on the virtual timeline (they were written before the input
        #: happened).  Socket Displays are flushed by
        #: ``ServerHost.inject`` before the injector starts instead.
        self.flush_output = None
        #: transport hooks (see repro.x11.transport).  When a transport
        #: owns this connection, ``transport_sink`` carries the fault
        #: plan's drop/delay decisions and frame/byte accounting for
        #: every delivered event, and ``direct_sink`` ships an event
        #: past the fault plan (a released delayed event must not be
        #: re-dropped).  Bare clients from :meth:`XServer.connect` keep
        #: the in-server delivery path below.
        self.transport_sink = None
        self.direct_sink = None

    def enqueue(self, event: Event) -> None:
        if self.closed:
            return
        sink = self.transport_sink
        if sink is not None:
            sink(event)
            return
        plan = self.server.fault_plan
        if plan is not None and not plan.on_event(self.server, self, event):
            return          # dropped or delayed by the fault plan
        self.queue.append(event)

    def deliver_direct(self, event: Event) -> None:
        """Deliver bypassing the fault plan (fault-release path)."""
        if self.closed:
            return
        sink = self.direct_sink
        if sink is not None:
            sink(event)
            return
        self.queue.append(event)

    def pending(self) -> int:
        return len(self.queue)

    def next_event(self) -> Optional[Event]:
        if self.queue:
            return self.queue.popleft()
        return None


class XServer:
    """The display server."""

    def __init__(self, width: int = 1152, height: int = 900,
                 clock: Optional[VirtualClock] = None):
        self.atoms = AtomTable()
        self.resources: Dict[int, object] = {}
        #: creating client of each non-window resource (fonts, cursors,
        #: bitmaps, GCs carry no creator field of their own; windows
        #: record theirs on the Window object)
        self.resource_creators: Dict[int, Client] = {}
        self._next_resource_id = 0x100
        self.clients: List[Client] = []
        #: the virtual clock; shared between servers when a fleet
        #: driver passes the same VirtualClock to each of them
        self.clock = clock if clock is not None else VirtualClock()
        self.obs = Observability(clock=lambda: self.clock.now)
        self.obs.server = self
        #: the display's span tracer (the hub's), held for the hot paths
        self._tracer = self.obs.tracer
        #: session journal (repro.obs.journal); ``_jrec`` is the hot
        #: handle — None unless recording, so ``_tick`` pays one test.
        self.journal = None
        self._jrec = None
        #: number of the client whose frame :meth:`_serve` is serving
        #: (None outside one: input injection, bare-client calls), and
        #: the operand window / argument digest of the next batched tick
        self._jclient: Optional[int] = None
        self._jwindow: Optional[int] = None
        self._jdetail: Optional[str] = None
        self._m_round_trips = self.obs.metrics.counter("x11.round_trips")
        self._m_batches = self.obs.metrics.counter("x11.batches")
        self._h_batch_size = self.obs.metrics.histogram(
            "x11.batch_size", buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500))
        #: True while requests from a client batch are executing, so
        #: the tracer logs deliveries instead of re-attributing them
        self._delivering_batch = False
        #: propagated trace context of the frame being handled; set by
        #: :meth:`_serve` around each BATCH/REQUEST/ONEWAY frame so
        #: ``_tick`` can record server-side handle spans under the
        #: issuing client's wire span (None = untraced traffic)
        self._trace_ctx = None
        #: optional time-series recorder (repro.obs.timeseries),
        #: sampled from the tick hot paths; None costs one test
        self._recorder = None
        #: plain tick totals, cheap enough to read per-input without a
        #: tracer: the fleet harness diffs them to decompose a step's
        #: latency into handle/wire/wait phases
        self.tick_count = 0
        self.idle_count = 0
        #: per-request-type Counter handles, keyed by request name, so
        #: the _tick hot path does one dict probe + one attribute store
        self._request_counters: Dict[str, object] = {}
        self.root = Window(self._new_id(), None, 0, 0, width, height)
        self.root.mapped = True
        self.resources[self.root.id] = self.root
        #: selection atom -> (window, owning client)
        self.selections: Dict[int, Tuple[Window, Client]] = {}
        #: pointer state for Enter/Leave synthesis
        self.pointer_x = 0
        self.pointer_y = 0
        self.pointer_window: Window = self.root
        self.focus_window: Window = self.root
        #: optional fault-injection schedule (see repro.x11.faults)
        self.fault_plan = None

    # ------------------------------------------------------------------
    # connection and bookkeeping
    # ------------------------------------------------------------------

    def connect(self) -> Client:
        client = Client(self, len(self.clients) + 1)
        self.clients.append(client)
        return client

    def disconnect(self, client: Client) -> None:
        if client.closed:
            return
        client.closed = True
        client.queue.clear()
        if self._jrec is not None:
            # The close-down itself goes on the record: the dead-client
            # oracle checks no request is delivered for this client
            # after this entry.
            self._jrec.disconnected(client.number)
        if self.fault_plan is not None:
            self.fault_plan.forget_client(client)
        # Drop the client's selections.
        for atom, (window, owner) in list(self.selections.items()):
            if owner is client:
                del self.selections[atom]
        # Destroy the client's windows, as a real server does at
        # close-down.  This is what lets surviving applications notice
        # a crashed peer: its comm window disappears.
        self._destroy_client_windows(client)
        # Free the client's server-side resources (fonts, cursors,
        # bitmaps, GCs) — close-down frees everything the connection
        # allocated.
        for rid, owner in list(self.resource_creators.items()):
            if owner is client:
                del self.resource_creators[rid]
                self.resources.pop(rid, None)
        client.atom_refs.clear()
        # Drop the client's event interests everywhere else.
        for window in list(self.resources.values()):
            if isinstance(window, Window):
                window.event_selections.pop(client, None)
        self._update_pointer_window()

    def _scrub_closed(self, client: Client) -> None:
        """Remove anything still attributed to a closed connection.

        A scripted disconnect can fire at a request's own tick — after
        :meth:`disconnect` ran its close-down but *before* the request
        body executed.  The remainder of that body then re-registers
        state for a connection that no longer exists (an event
        selection on the root window, a selection claim, a window),
        and the fuzzer's post-destroy resource census would count it
        as a close-down leak.  :meth:`_serve` calls this after serving
        any frame for a now-closed client; it is idempotent and a no-op
        when close-down left nothing behind.
        """
        if not client.closed:
            return
        client.queue.clear()
        for atom, (window, owner) in list(self.selections.items()):
            if owner is client:
                del self.selections[atom]
        self._destroy_client_windows(client)
        for rid, owner in list(self.resource_creators.items()):
            if owner is client:
                del self.resource_creators[rid]
                self.resources.pop(rid, None)
        client.atom_refs.clear()
        for window in list(self.resources.values()):
            if isinstance(window, Window):
                window.event_selections.pop(client, None)
        self._update_pointer_window()

    def install_fault_plan(self, plan) -> "FaultPlan":
        """Attach a :class:`~repro.x11.faults.FaultPlan` to this server."""
        self.fault_plan = plan
        plan.bind_metrics(self.obs.metrics)
        return plan

    def clear_fault_plan(self) -> None:
        self.fault_plan = None

    # ------------------------------------------------------------------
    # session journal (repro.obs.journal)
    # ------------------------------------------------------------------

    def attach_journal(self, journal) -> "Journal":
        """Start recording the session into ``journal``.

        Every request tick, input injection, delivered batch, round
        trip, fault, and send RPC is appended until
        :meth:`detach_journal`; the journal object stays reachable at
        :attr:`journal` afterwards for dumps and replay.
        """
        self.journal = journal
        self._jrec = journal
        journal.recording = True
        # Ring evictions are silent telemetry loss; surface them next
        # to every other server metric (obs.journal.dropped).
        journal.bind_metrics(self.obs.metrics)
        return journal

    def detach_journal(self) -> None:
        """Stop recording; the journal stays attached for reads."""
        if self.journal is not None:
            self.journal.recording = False
        self._jrec = None

    # ------------------------------------------------------------------
    # resource census (invariant oracle API — see repro.fuzz.oracles)
    # ------------------------------------------------------------------

    def resource_census(self) -> Dict[int, dict]:
        """Per-client map of every live server-side resource.

        Purely introspective: no request tick, no round trip, no event
        traffic — safe for a fuzzer to call after every step without
        perturbing the wire.  Keys are client numbers (``0`` collects
        server-owned / unattributed state, e.g. root-window
        properties); each bucket lists the client's live windows,
        non-window resources (fonts/cursors/bitmaps/GCs), properties on
        its windows, selection claims, event-mask registrations on any
        window, and interned-atom references, plus its ``closed`` flag.

        The invariant the fuzzer enforces: a closed client's bucket is
        empty — anything still attributed to a closed connection is a
        close-down leak.
        """
        census: Dict[int, dict] = {}

        def bucket(client: Optional[Client]) -> dict:
            number = client.number if client is not None else 0
            entry = census.get(number)
            if entry is None:
                entry = census[number] = {
                    "closed": bool(client.closed)
                    if client is not None else False,
                    "windows": [], "resources": [], "properties": [],
                    "selections": [], "event_selections": [],
                    "atoms": [],
                }
            return entry

        for client in self.clients:
            bucket(client)
        for rid, resource in self.resources.items():
            if isinstance(resource, Window):
                entry = bucket(resource.creator)
                if resource is not self.root:
                    entry["windows"].append(rid)
                for atom in resource.properties:
                    entry["properties"].append((rid, atom))
                for sel_client in resource.event_selections:
                    bucket(sel_client)["event_selections"].append(rid)
            else:
                entry = bucket(self.resource_creators.get(rid))
                entry["resources"].append(rid)
        for atom, (window, owner) in self.selections.items():
            bucket(owner)["selections"].append((atom, window.id))
        for client in self.clients:
            for atom in sorted(client.atom_refs):
                bucket(client)["atoms"].append(atom)
        return census

    def _new_id(self) -> int:
        self._next_resource_id += 1
        return self._next_resource_id

    @property
    def time_ms(self) -> int:
        """The current virtual time (delegates to :attr:`clock`)."""
        return self.clock.now

    @time_ms.setter
    def time_ms(self, value: int) -> None:
        self.clock.now = value

    def _tick(self, name: str = "request") -> int:
        self.clock.now += 1
        self.tick_count += 1
        counter = self._request_counters.get(name)
        if counter is None:
            counter = self._request_counters[name] = \
                self.obs.metrics.counter("x11.requests", type=name)
        counter.value += 1
        jrec = self._jrec
        if jrec is not None:
            jrec.request(name, self._jclient, self._jwindow,
                         self._jdetail)
            self._jwindow = None
            self._jdetail = None
        if self._tracer.enabled:
            tracer = self._tracer
            if not self._delivering_batch:
                # Batched requests were attributed to their issuing
                # span at enqueue time.
                tracer.record_request(name)
            ctx = self._trace_ctx
            if ctx is not None:
                # The handle span *is* the tick: complete on arrival,
                # parented across the boundary under the issuing wire
                # span.  It touches no counters and no journal, so
                # traced and untraced replays stay byte-identical.
                now = self.clock.now
                tracer.record_handle(ctx, name, now - 1, now)
        recorder = self._recorder
        if recorder is not None:
            recorder.maybe_sample()
        plan = self.fault_plan
        if plan is not None:
            plan.on_request(self, name)
        return self.time_ms

    def idle_tick(self) -> int:
        """Advance the virtual clock without issuing a request.

        Used by waits (e.g. ``send``) when the system is quiescent, so
        timeouts expire and fault-delayed events are eventually
        released even though no client is generating requests.
        """
        self.clock.now += 1
        self.idle_count += 1
        recorder = self._recorder
        if recorder is not None:
            recorder.maybe_sample()
        if self.fault_plan is not None:
            self.fault_plan.release_due(self)
        return self.time_ms

    def round_trip(self) -> None:
        """Record that a request required a reply from the server."""
        self._m_round_trips.value += 1
        if self._jrec is not None:
            self._jrec.round_trip()
        if self._tracer.enabled:
            self._tracer.record_round_trip()

    def sync(self) -> None:
        """XSync: a named no-op request whose only point is the reply.

        The round trip is accounted against an ``x11.requests{type=sync}``
        tick, so ``x11.round_trips`` never exceeds the sum of
        reply-bearing request counts and the traffic tables add up.
        """
        self._tick("sync")
        self.round_trip()

    def deliver_batch(self, client: Client, ops) -> int:
        """Deliver one client's output buffer as a single wire batch.

        ``ops`` is a sequence of ``(name, window, args, kwargs)`` tuples
        built by :meth:`Display.flush`; ``name`` is the server method to
        invoke with ``args``/``kwargs`` (the ``window`` operand rides
        along for the client-side coalescer and is ignored here).  The
        batch itself costs one ``_tick("batch")`` — the write() that
        moves the whole buffer — and each delivered request then ticks
        under its own name, so fault plans fire at *delivery* time, in
        delivery order, exactly as they would for unbuffered requests.

        A client disconnected mid-batch (e.g. by a fault plan) aborts
        the remainder with :class:`XConnectionLost`; so does a request
        that fails after the plan closed its connection at the
        request's own tick (it failed on the client's destroyed
        windows: the lost connection is the error).  An ordinary
        protocol error from one request does not abort the rest — on a
        real wire the later requests were already written and the
        server processes them — but the first error is re-raised once
        the batch completes, which is this simulator's stand-in for the
        asynchronous X error event.  Transports reach it through
        :meth:`_serve`, which attributes the batch's ticks to ``client``.
        """
        if not ops:
            return 0
        first_error: Optional[XProtocolError] = None
        if self._jrec is not None:
            self._jrec.batch(client.number, ops)
        try:
            self._tick("batch")
        except XProtocolError as error:
            # An injected error on the batch write is asynchronous like
            # any other: the requests were already written, so deliver
            # them and re-raise the error afterwards.
            first_error = error
        self._m_batches.value += 1
        self._h_batch_size.observe(len(ops))
        delivered = 0
        self._delivering_batch = True
        try:
            for name, _window, args, kwargs in ops:
                if client.closed:
                    raise _batch_lost(delivered, len(ops))
                if self._jrec is not None:
                    self._jwindow = _window
                    self._jdetail = args_digest(args, kwargs)
                try:
                    getattr(self, name)(*args, **kwargs)
                except XConnectionLost:
                    raise
                except XProtocolError as error:
                    if client.closed:
                        raise _batch_lost(delivered, len(ops)) from error
                    if first_error is None:
                        first_error = error
                delivered += 1
        finally:
            self._delivering_batch = False
            self._jwindow = None
            self._jdetail = None
        if first_error is not None:
            raise first_error
        return delivered

    def _serve(self, client: Client, ctx, name: Optional[str], args,
               kwargs=None):
        """Serve one BATCH, REQUEST or ONEWAY frame of ``client``: the
        one path both transports take into the server.

        ``name`` None is a BATCH, whose op list ``args`` goes to
        :meth:`deliver_batch`; otherwise the request handler ``name``
        runs with ``args`` and ``kwargs``.  While it runs, the frame's
        trace context ``ctx`` parents the server's handle spans and
        ``client`` is the journal's client for every tick; both are
        restored afterwards.

        A fault plan can close the connection at the frame's own tick;
        the request then fails on the client's destroyed windows, and
        the lost connection is the error, not the ``BadWindow`` it
        caused.  A closed client is scrubbed on every exit path:
        requests that ran after the close-down may have re-registered
        state for it, and the census oracle would count the remnants
        as a leak.  Any other exception propagates unchanged (loopback
        raises it in-process; the socket host answers it as a bad
        request).
        """
        prev_ctx, prev_client = self._trace_ctx, self._jclient
        self._trace_ctx = ctx
        self._jclient = client.number
        try:
            if name is None:
                return self.deliver_batch(client, args)
            return getattr(self, name)(*args, **kwargs)
        except XProtocolError as error:
            if client.closed and not isinstance(error, XConnectionLost):
                raise XConnectionLost("connection to X server lost")
            raise
        finally:
            if client.closed:
                self._scrub_closed(client)
            self._trace_ctx = prev_ctx
            self._jclient = prev_client

    @property
    def round_trips(self) -> int:
        """Total requests that waited for a reply (``x11.round_trips``)."""
        return self._m_round_trips.value

    @property
    def requests(self) -> int:
        """Total requests of every type (sum of ``x11.requests``)."""
        return self.obs.metrics.total("x11.requests")

    def window(self, wid: int) -> Window:
        resource = self.resources.get(wid)
        if not isinstance(resource, Window) or resource.destroyed:
            raise XProtocolError("BadWindow: %d" % wid)
        return resource

    # ------------------------------------------------------------------
    # resource ownership
    # ------------------------------------------------------------------

    def _check_owner(self, window: Window, client: Optional[Client],
                     request: str) -> None:
        """Reject destructive requests on another client's window.

        ``client=None`` marks a trusted, server-internal caller (tests
        drive the server directly this way).  The root window — which no
        client created — is always writable.
        """
        if client is None or window.creator is None:
            return
        if window.creator is not client:
            raise XProtocolError(
                "BadAccess: window %d belongs to client %d (%s from "
                "client %d)" % (window.id, window.creator.number,
                                request, client.number))

    def _check_property_writer(self, window: Window,
                               client: Optional[Client],
                               request: str) -> None:
        """Property writes need ownership or an explicit mailbox grant.

        Cross-client property traffic is how ICCCM selections and Tk's
        ``send`` move data, so a window's owner can open its properties
        to other clients with :meth:`set_property_access`; every other
        cross-client write is the "scribble on a stranger's window" bug
        and is rejected.
        """
        if window.properties_open:
            return
        self._check_owner(window, client, request)

    def window_exists(self, wid: int) -> bool:
        """Liveness probe for a window id (a round trip, like real Xlib
        checks that issue a request and watch for BadWindow)."""
        self._tick("window_exists")
        self.round_trip()
        resource = self.resources.get(wid)
        return isinstance(resource, Window) and not resource.destroyed

    # ------------------------------------------------------------------
    # window requests
    # ------------------------------------------------------------------

    def create_window(self, client: Client, parent_id: int, x: int, y: int,
                      width: int, height: int,
                      border_width: int = 0) -> int:
        self._tick("create_window")
        parent = self.window(parent_id)
        window = Window(self._new_id(), parent, x, y, width, height,
                        border_width, creator=client)
        self.resources[window.id] = window
        return window.id

    def destroy_window(self, wid: int, client: Optional[Client] = None
                       ) -> None:
        self._tick("destroy_window")
        window = self.window(wid)
        self._check_owner(window, client, "destroy_window")
        self._destroy(window)

    def _destroy_client_windows(self, client: Client) -> None:
        """Destroy every window ``client`` created, one at a time."""
        for resource in list(self.resources.values()):
            if isinstance(resource, Window) and \
                    resource.creator is client and not resource.destroyed:
                self._destroy(resource)

    def _destroy(self, window: Window) -> None:
        before = self._free_area(window)
        self._destroy_recursive(window)
        self._window_changed(window, before)

    def _destroy_recursive(self, window: Window) -> None:
        for child in list(window.children):
            self._destroy_recursive(child)
        window.destroyed = True
        window.mapped = False
        if window.parent is not None:
            window.parent.children.remove(window)
        self.resources.pop(window.id, None)
        for atom, (owner_window, _) in list(self.selections.items()):
            if owner_window is window:
                del self.selections[atom]
        if self.focus_window is window:
            # No FocusOut machinery in the simulator: focus reverts to
            # the root, as _key_event would have treated it anyway, so
            # no stale reference survives (the census checks this).
            self.focus_window = self.root
        self._structure_notify(window, DESTROY_NOTIFY)

    def map_window(self, wid: int) -> None:
        self._tick("map_window")
        window = self.window(wid)
        if window.mapped:
            return
        before = self._free_area(window)
        window.mapped = True
        self._structure_notify(window, MAP_NOTIFY)
        self._window_changed(window, before)

    def unmap_window(self, wid: int) -> None:
        self._tick("unmap_window")
        window = self.window(wid)
        if not window.mapped:
            return
        before = self._free_area(window)
        window.mapped = False
        self._structure_notify(window, UNMAP_NOTIFY)
        self._window_changed(window, before)

    def configure_window(self, wid: int, x: Optional[int] = None,
                         y: Optional[int] = None,
                         width: Optional[int] = None,
                         height: Optional[int] = None,
                         border_width: Optional[int] = None,
                         client: Optional[Client] = None) -> None:
        self._tick("configure_window")
        window = self.window(wid)
        self._check_owner(window, client, "configure_window")
        # Clamp before comparing: asking for the size a window already
        # has once clamped changes nothing.
        new_x = window.x if x is None else x
        new_y = window.y if y is None else y
        new_width = window.width if width is None else max(1, width)
        new_height = window.height if height is None else max(1, height)
        new_border = window.border_width if border_width is None \
            else border_width
        resized = (new_width, new_height) != (window.width, window.height)
        if not resized and (new_x, new_y, new_border) == \
                (window.x, window.y, window.border_width):
            return
        before = self._free_area(window)
        window.x, window.y = new_x, new_y
        window.width, window.height = new_width, new_height
        window.border_width = new_border
        self._structure_notify(window, CONFIGURE_NOTIFY, x=new_x, y=new_y,
                               width=new_width, height=new_height)
        self._window_changed(window, before, resized)

    def raise_window(self, wid: int) -> None:
        """Restack a window above all its siblings."""
        self._tick("raise_window")
        window = self.window(wid)
        parent = window.parent
        if parent is not None and parent.children[-1] is not window:
            before = self._free_area(window)
            parent.children.remove(window)
            parent.children.append(window)
            self._window_changed(window, before)

    def lower_window(self, wid: int) -> None:
        """Restack a window below all its siblings."""
        self._tick("lower_window")
        window = self.window(wid)
        parent = window.parent
        if parent is not None and parent.children[0] is not window:
            before = self._free_area(window)
            parent.children.remove(window)
            parent.children.insert(0, window)
            self._window_changed(window, before)

    def select_input(self, client: Client, wid: int, mask: int) -> None:
        self._tick("select_input")
        window = self.window(wid)
        if mask == 0:
            window.event_selections.pop(client, None)
        else:
            window.event_selections[client] = mask

    def get_geometry(self, wid: int) -> Tuple[int, int, int, int, int]:
        self._tick("get_geometry")
        self.round_trip()
        window = self.window(wid)
        return (window.x, window.y, window.width, window.height,
                window.border_width)

    def query_tree(self, wid: int) -> Tuple[int, int, List[int]]:
        self._tick("query_tree")
        self.round_trip()
        window = self.window(wid)
        parent_id = window.parent.id if window.parent is not None else 0
        return (self.root.id, parent_id,
                [child.id for child in window.children])

    def set_window_background(self, wid: int, pixel: int) -> None:
        self._tick("set_window_background")
        self.window(wid).background = pixel

    # ------------------------------------------------------------------
    # atoms and properties
    # ------------------------------------------------------------------

    def intern_atom(self, name: str, only_if_exists: bool = False,
                    client: Optional[Client] = None) -> int:
        self._tick("intern_atom")
        self.round_trip()
        if only_if_exists:
            atom = self.atoms.lookup(name)
        else:
            atom = self.atoms.intern(name)
        if client is not None and atom:
            client.atom_refs.add(atom)
        return atom

    def get_atom_name(self, atom: int) -> str:
        self._tick("get_atom_name")
        self.round_trip()
        try:
            return self.atoms.name(atom)
        except KeyError:
            raise XProtocolError("BadAtom: %d" % atom)

    def change_property(self, wid: int, property_atom: int, type_atom: int,
                        value: object, append: bool = False,
                        client: Optional[Client] = None) -> None:
        self._tick("change_property")
        window = self.window(wid)
        self._check_property_writer(window, client, "change_property")
        if append and property_atom in window.properties:
            old_type, old_value = window.properties[property_atom]
            if isinstance(old_value, str) and isinstance(value, str):
                value = old_value + value
            elif isinstance(old_value, (list, tuple)):
                value = list(old_value) + list(value)
        window.properties[property_atom] = (type_atom, value)
        self._property_notify(window, property_atom, deleted=False)

    def get_property(self, wid: int, property_atom: int,
                     delete: bool = False) -> Optional[Tuple[int, object]]:
        self._tick("get_property")
        self.round_trip()
        window = self.window(wid)
        entry = window.properties.get(property_atom)
        if delete and entry is not None:
            del window.properties[property_atom]
            self._property_notify(window, property_atom, deleted=True)
        return entry

    def delete_property(self, wid: int, property_atom: int,
                        client: Optional[Client] = None) -> None:
        self._tick("delete_property")
        window = self.window(wid)
        self._check_property_writer(window, client, "delete_property")
        if property_atom in window.properties:
            del window.properties[property_atom]
            self._property_notify(window, property_atom, deleted=True)

    def set_property_access(self, wid: int, open_: bool,
                            client: Optional[Client] = None) -> None:
        """Open (or close) a window's properties to other clients.

        Only the window's owner may change the grant.  Mailbox windows —
        ``send`` comm windows, ICCCM selection requestors — declare
        themselves writable this way; everything else stays protected.
        """
        self._tick("set_property_access")
        window = self.window(wid)
        self._check_owner(window, client, "set_property_access")
        window.properties_open = bool(open_)

    def _property_notify(self, window: Window, atom: int,
                         deleted: bool) -> None:
        event = Event(PROPERTY_NOTIFY, window=window.id, atom=atom,
                      state=1 if deleted else 0, time=self.time_ms)
        self._deliver(window, event)

    # ------------------------------------------------------------------
    # selections (ICCCM substrate, paper section 3.6)
    # ------------------------------------------------------------------

    def set_selection_owner(self, client: Client, selection: int,
                            wid: int) -> None:
        self._tick("set_selection_owner")
        previous = self.selections.get(selection)
        if wid == 0:
            if previous is not None:
                del self.selections[selection]
            return
        window = self.window(wid)
        if previous is not None and previous[0].id != wid:
            old_window, old_client = previous
            old_client.enqueue(Event(SELECTION_CLEAR, window=old_window.id,
                                     selection=selection,
                                     time=self.time_ms))
        self.selections[selection] = (window, client)

    def get_selection_owner(self, selection: int) -> int:
        self._tick("get_selection_owner")
        self.round_trip()
        entry = self.selections.get(selection)
        return entry[0].id if entry is not None else 0

    def convert_selection(self, client: Client, selection: int, target: int,
                          property_atom: int, requestor: int) -> None:
        self._tick("convert_selection")
        entry = self.selections.get(selection)
        if entry is None:
            client.enqueue(Event(SELECTION_NOTIFY, window=requestor,
                                 selection=selection, target=target,
                                 property=0, time=self.time_ms))
            return
        owner_window, owner_client = entry
        owner_client.enqueue(Event(SELECTION_REQUEST, window=owner_window.id,
                                   selection=selection, target=target,
                                   property=property_atom,
                                   requestor=requestor, time=self.time_ms))

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def send_event(self, wid: int, event: Event,
                   event_mask: int = 0) -> None:
        """SendEvent request: deliver a synthetic event.

        With a zero mask the event goes to the client that created the
        window (this is how SelectionNotify and Tk's send transport
        their replies); otherwise it goes to clients selecting the mask.
        """
        self._tick("send_event")
        window = self.window(wid)
        event = event.for_window(wid)
        event.send_event = True
        if event_mask == 0:
            if window.creator is not None:
                window.creator.enqueue(event)
            elif window is self.root:
                # Events "sent to the root" go to everyone listening.
                for client in self.clients:
                    client.enqueue(event)
            return
        for client, mask in window.event_selections.items():
            if mask & event_mask:
                client.enqueue(event)

    def _deliver(self, window: Window, event: Event) -> bool:
        """Deliver to clients selecting this event's mask on ``window``."""
        selections = window.event_selections
        if not selections:
            return False
        mask = MASK_FOR_TYPE.get(event.type)
        delivered = False
        for client, selected in list(selections.items()):
            if mask == ALWAYS_DELIVERED or (selected & mask):
                client.enqueue(event.for_window(window.id))
                delivered = True
        return delivered

    def _structure_notify(self, window: Window, kind: int,
                          **fields) -> None:
        """Deliver a structure event to StructureNotify on ``window``
        and SubstructureNotify on its parent; build it only if one of
        them is selected (the serial is taken either way)."""
        parent = window.parent
        if not _selects(window, STRUCTURE_NOTIFY_MASK) and (
                parent is None or
                not _selects(parent, SUBSTRUCTURE_NOTIFY_MASK)):
            next(_events._serial)
            return
        event = Event(kind, window=window.id, time=self.clock.now, **fields)
        self._deliver(window, event)
        if parent is not None:
            for client, selected in list(parent.event_selections.items()):
                if selected & SUBSTRUCTURE_NOTIFY_MASK:
                    client.enqueue(event)

    def _deliver_propagating(self, window: Window, event: Event) -> bool:
        """Key/button/motion delivery with upward propagation."""
        target: Optional[Window] = window
        while target is not None:
            if self._deliver(target, event):
                return True
            target = target.parent
        return False

    # -- exposure ------------------------------------------------------
    #
    # A window's visible region is where it is the topmost viewable
    # window: its rectangle, clipped by its ancestors and by the mapped
    # siblings above it and above each ancestor, less its own mapped
    # children.  Regions are kept in the window's own coordinates, so
    # content moves with the window.
    #
    # A window request changes one window W.  Call W's free area the
    # pixels its subtree owns: W's rectangle clipped by its ancestors,
    # less the mapped siblings above W and above each ancestor.  Only
    # ownership inside the old and the new free area can change:
    #   - pixels W's subtree lost go to W's parent or the parent's other
    #     descendants, none of which owned them before;
    #   - inside W's subtree ownership is fixed in W's coordinates, so a
    #     window there gains exactly its part of the new free area that
    #     was not free before, both taken in W's coordinates.
    # Sharing those two areas out below W's parent therefore yields
    # each window's gain without looking at the visibility before.

    def _free_area(self, window: Window) -> Optional[Tuple[List[Rect], Rect]]:
        """``window``'s free area in its own coordinates, and its
        rectangle in root coordinates; None unless it is viewable."""
        if not window.mapped:
            return None
        free = [(0, 0, window.width, window.height)]
        # (x, y): the origin of ``parent`` in ``window``'s coordinates
        x = y = 0
        level, parent = window, window.parent
        while parent is not None:
            if not parent.mapped:
                return None
            x -= level.x
            y -= level.y
            if free:
                # Clip by the parent unless the area lies inside it.
                x1, y1 = x + parent.width, y + parent.height
                a, b, c, d = free[0]
                if len(free) > 1 or a < x or b < y or c > x1 or d > y1:
                    free = clip_region(free, x, y, x1, y1)
            siblings = parent.children
            if free and siblings[-1] is not level:
                for sibling in siblings[siblings.index(level) + 1:]:
                    if not sibling.mapped:
                        continue
                    left, top = x + sibling.x, y + sibling.y
                    right = left + sibling.width
                    bottom = top + sibling.height
                    # subtract_rect only when the sibling overlaps: it
                    # is called for every sibling above every ancestor.
                    for a, b, c, d in free:
                        if a < right and left < c and b < bottom and top < d:
                            free = subtract_rect(free, left, top, right,
                                                 bottom)
                            break
                    if not free:
                        break
            level, parent = parent, parent.parent
        return free, (-x, -y, window.width - x, window.height - y)

    def _window_changed(self, window: Window,
                        before: Optional[Tuple[List[Rect], Rect]],
                        resized: bool = False) -> None:
        """Expose what a request on ``window`` uncovered, given its
        :meth:`_free_area` from before, then re-pick the pointer window.

        Each window is exposed for the part of its visible region it
        did not have before; a ``resized`` window for all of it (X's
        default ForgetGravity).  One Expose per banded rectangle,
        windows in pre-order.  Each band takes the next event serial
        whether or not anyone selected it, but the event is built only
        for a window some client selected Exposure on; the first
        selecting client gets it as built and only a further one needs
        a copy.
        """
        after = self._free_area(window)
        if after is None:
            if before is None:
                # Invisible throughout: the pointer's descent never
                # enters an unviewable window either.
                return
            after = [], before[1]
        elif before is None:
            before = [], after[1]
        old_free, old_rect = before
        free, rect = after
        dx, dy = rect[0] - old_rect[0], rect[1] - old_rect[1]
        lost = gained = ()
        if resized or dx or dy or free != old_free:
            # Both areas in the window's own coordinates, after.
            gained = free
            for area in old_free:
                gained = subtract_rect(gained, *area)
            lost = [(a - dx, b - dy, c - dx, d - dy)
                    for a, b, c, d in old_free] if dx or dy else old_free
            for area in free:
                lost = subtract_rect(lost, *area)
            regions: Dict[Window, List[Rect]] = {}
            if window.parent is None:
                if gained:
                    self._clip_walk(window, gained, regions)
            elif lost or gained:
                wx, wy = window.x, window.y
                self._clip_walk(window.parent,
                                [(a + wx, b + wy, c + wx, d + wy)
                                 for a, b, c, d in lost + gained],
                                regions)
            if resized and free:
                for child in window.children:
                    if child.mapped:
                        free = subtract_rect(free, child.x, child.y,
                                             child.x + child.width,
                                             child.y + child.height)
                # Keeps the window's pre-order place if it gained
                # anything; otherwise it goes last, which is its place:
                # nothing after it in pre-order gains from a resize.
                regions[window] = free
            time = self.clock.now
            for owner, region in regions.items():
                if not region:
                    continue
                if not _selects(owner, EXPOSURE_MASK):
                    for _band in bands(region):
                        next(_events._serial)
                    continue
                for x, y, width, height in bands(region):
                    event = Event(EXPOSE, window=owner.id, x=x, y=y,
                                  width=width, height=height, time=time)
                    shipped = False
                    for client, selected in list(
                            owner.event_selections.items()):
                        if selected & EXPOSURE_MASK:
                            client.enqueue(event.for_window(owner.id)
                                           if shipped else event)
                            shipped = True
        # The window under the pointer can only have changed where the
        # window lost or gained pixels, or anywhere in its old or new
        # rectangle if it moved.  The free areas end at the root's
        # edge; the rectangles also hold off the screen.
        x, y = self.pointer_x, self.pointer_y
        root = self.root
        if dx or dy or not (0 <= x < root.width and 0 <= y < root.height):
            suspect = (old_rect, rect)
        else:
            x -= rect[0]
            y -= rect[1]
            suspect = lost + gained
        for x0, y0, x1, y1 in suspect:
            if x0 <= x < x1 and y0 <= y < y1:
                self._update_pointer_window()
                break

    def _clip_walk(self, window: Window, free: List[Rect],
                   regions: Dict[Window, List[Rect]]) -> None:
        """Share ``free`` (in ``window``'s coordinates, inside it and not
        covered from above) between ``window``'s mapped children,
        topmost first, and ``window`` itself.  Record each share in its
        owner's coordinates, in pre-order."""
        left, top, right, bottom = free[0]
        for a, b, c, d in free:
            if a < left:
                left = a
            if b < top:
                top = b
            if c > right:
                right = c
            if d > bottom:
                bottom = d
        shares = []
        for child in reversed(window.children):
            if not child.mapped:
                continue
            x0, y0 = child.x, child.y
            x1, y1 = x0 + child.width, y0 + child.height
            if x0 >= right or x1 <= left or y0 >= bottom or y1 <= top:
                continue
            share = clip_region(free, x0, y0, x1, y1)
            if share:
                free = subtract_rect(free, x0, y0, x1, y1)
                shares.append((child, share))
                if not free:
                    break
        regions[window] = free
        for child, share in reversed(shares):
            x, y = child.x, child.y
            self._clip_walk(child, [(a - x, b - y, c - x, d - y)
                                    for a, b, c, d in share], regions)

    # ------------------------------------------------------------------
    # input device simulation
    # ------------------------------------------------------------------

    def _drain_client_output(self) -> None:
        """Deliver every client's buffered output before user input.

        Requests sitting in a client's output buffer were issued before
        the input device event about to be injected, so they must reach
        the server first — otherwise a ``select_input`` the client
        already wrote could miss the very event a test is injecting.
        Injectors drain before they journal their input, so the journal
        lists the drained requests first, in their real time order.
        """
        for client in list(self.clients):
            hook = client.flush_output
            if hook is None or client.closed:
                continue
            try:
                hook()
            except XProtocolError:
                # Asynchronous from the client's point of view — the
                # Display stashes it and re-raises at the client's next
                # flush point; it must not unwind the input injector.
                pass

    def warp_pointer(self, root_x: int, root_y: int, state: int = 0) -> None:
        """Move the pointer, generating Enter/Leave and Motion events."""
        self._drain_client_output()
        if self._jrec is not None:
            self._jrec.input("warp_pointer", (root_x, root_y, state))
        self._tick("warp_pointer")
        self.pointer_x = root_x
        self.pointer_y = root_y
        old = self.pointer_window
        new = self.root.window_at(root_x, root_y)
        if new is not old:
            self._crossing(old, new, state)
        self.pointer_window = new
        x, y = new.root_position()
        event = Event(MOTION_NOTIFY, window=new.id, x=root_x - x,
                      y=root_y - y, x_root=root_x, y_root=root_y,
                      state=state, time=self.time_ms)
        self._deliver_propagating(new, event)

    def _crossing(self, old: Window, new: Window, state: int) -> None:
        old_chain = [old] + list(old.ancestors())
        new_chain = [new] + list(new.ancestors())
        for window in old_chain:
            if window not in new_chain and not window.destroyed:
                self._deliver(window, Event(LEAVE_NOTIFY, window=window.id,
                                            state=state, time=self.time_ms))
        for window in reversed(new_chain):
            if window not in old_chain:
                self._deliver(window, Event(ENTER_NOTIFY, window=window.id,
                                            state=state, time=self.time_ms))

    def _update_pointer_window(self) -> None:
        current = self.root.window_at(self.pointer_x, self.pointer_y)
        if current is not self.pointer_window:
            old = self.pointer_window
            if old.destroyed:
                old = self.root
            self._crossing(old, current, 0)
            self.pointer_window = current

    def press_button(self, button: int, state: int = 0) -> None:
        """Press a pointer button at the current pointer position."""
        self._button_event("press_button", BUTTON_PRESS, button, state)

    def release_button(self, button: int, state: int = 0) -> None:
        self._button_event("release_button", BUTTON_RELEASE, button, state)

    def _button_event(self, name: str, event_type: int, button: int,
                      state: int) -> None:
        self._drain_client_output()
        if self._jrec is not None:
            self._jrec.input(name, (button, state))
        self._tick("button_event")
        window = self.pointer_window
        x, y = window.root_position()
        event = Event(event_type, window=window.id,
                      x=self.pointer_x - x, y=self.pointer_y - y,
                      x_root=self.pointer_x, y_root=self.pointer_y,
                      button=button, state=state, time=self.time_ms)
        self._deliver_propagating(window, event)

    def press_key(self, keysym: str, state: int = 0,
                  window_id: Optional[int] = None) -> None:
        """Press a key; delivered to the focus window (or an override)."""
        self._key_event("press_key", KEY_PRESS, keysym, state, window_id)

    def release_key(self, keysym: str, state: int = 0,
                    window_id: Optional[int] = None) -> None:
        self._key_event("release_key", KEY_RELEASE, keysym, state,
                        window_id)

    def _key_event(self, name: str, event_type: int, keysym: str,
                   state: int, window_id: Optional[int]) -> None:
        self._drain_client_output()
        if self._jrec is not None:
            self._jrec.input(name, (keysym, state, window_id))
        self._tick("key_event")
        from .keysyms import char_for_keysym
        if window_id is not None:
            window = self.window(window_id)
        else:
            window = self.focus_window
            if window.destroyed:
                window = self.root
        char = char_for_keysym(keysym) or ""
        event = Event(event_type, window=window.id, keysym=keysym,
                      keychar=char, state=state, time=self.time_ms,
                      x_root=self.pointer_x, y_root=self.pointer_y)
        self._deliver_propagating(window, event)

    def set_input_focus(self, wid: int) -> None:
        self._tick("set_input_focus")
        self.focus_window = self.window(wid)

    # ------------------------------------------------------------------
    # server resources
    # ------------------------------------------------------------------

    def alloc_named_color(self, name: str) -> Color:
        self._tick("alloc_named_color")
        self.round_trip()
        rgb = parse_color(name)
        if rgb is None:
            raise XProtocolError('unknown color name "%s"' % name)
        red, green, blue = rgb
        pixel = (red << 16) | (green << 8) | blue
        return Color(pixel, red, green, blue)

    def load_font(self, name: str,
                  client: Optional[Client] = None) -> Font:
        self._tick("load_font")
        self.round_trip()
        if not font_exists(name):
            raise XProtocolError('font "%s" doesn\'t exist' % name)
        char_width, ascent, descent = font_metrics(name)
        font = Font(self._new_id(), name, char_width, ascent, descent)
        self.resources[font.fid] = font
        self._record_creator(font.fid, client)
        return font

    def create_cursor(self, name: str,
                      client: Optional[Client] = None) -> Cursor:
        self._tick("create_cursor")
        self.round_trip()
        if name not in CURSOR_NAMES:
            raise XProtocolError('bad cursor name "%s"' % name)
        cursor = Cursor(self._new_id(), name)
        self.resources[cursor.cid] = cursor
        self._record_creator(cursor.cid, client)
        return cursor

    def create_bitmap(self, name: str, width: int = 0,
                      height: int = 0,
                      client: Optional[Client] = None) -> Bitmap:
        self._tick("create_bitmap")
        self.round_trip()
        if name in BUILTIN_BITMAPS:
            width, height = BUILTIN_BITMAPS[name]
        elif width <= 0 or height <= 0:
            raise XProtocolError('bad bitmap "%s"' % name)
        bitmap = Bitmap(self._new_id(), name, width, height)
        self.resources[bitmap.bid] = bitmap
        self._record_creator(bitmap.bid, client)
        return bitmap

    def create_gc(self, client: Optional[Client] = None,
                  **values) -> GraphicsContext:
        self._tick("create_gc")
        gc = GraphicsContext(self._new_id(), dict(values))
        self.resources[gc.gid] = gc
        self._record_creator(gc.gid, client)
        return gc

    def _record_creator(self, rid: int,
                        client: Optional[Client]) -> None:
        if client is not None:
            self.resource_creators[rid] = client

    def free_resource(self, rid: int) -> None:
        self._tick("free_resource")
        self.resources.pop(rid, None)
        self.resource_creators.pop(rid, None)

    # ------------------------------------------------------------------
    # drawing (recorded for the renderer)
    # ------------------------------------------------------------------

    def clear_window(self, wid: int, client: Optional[Client] = None
                     ) -> None:
        self._tick("clear_window")
        window = self.window(wid)
        self._check_owner(window, client, "clear_window")
        window.clear_drawing()

    def fill_rectangle(self, wid: int, gc: GraphicsContext, x: int, y: int,
                       width: int, height: int,
                       client: Optional[Client] = None) -> None:
        self._tick("fill_rectangle")
        window = self.window(wid)
        self._check_owner(window, client, "fill_rectangle")
        window.record("fill", (x, y, width, height), gc.values)

    def draw_rectangle(self, wid: int, gc: GraphicsContext, x: int, y: int,
                       width: int, height: int,
                       client: Optional[Client] = None) -> None:
        self._tick("draw_rectangle")
        window = self.window(wid)
        self._check_owner(window, client, "draw_rectangle")
        window.record("rect", (x, y, width, height), gc.values)

    def draw_line(self, wid: int, gc: GraphicsContext, x1: int, y1: int,
                  x2: int, y2: int,
                  client: Optional[Client] = None) -> None:
        self._tick("draw_line")
        window = self.window(wid)
        self._check_owner(window, client, "draw_line")
        window.record("line", (x1, y1, x2, y2), gc.values)

    def draw_string(self, wid: int, gc: GraphicsContext, x: int, y: int,
                    text: str, client: Optional[Client] = None) -> None:
        self._tick("draw_string")
        window = self.window(wid)
        self._check_owner(window, client, "draw_string")
        window.record("text", (x, y, text), gc.values)
