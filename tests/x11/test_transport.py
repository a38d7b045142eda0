"""Tests for the transport layer: loopback accounting, the socket
server host, fault routing at the frame level, and backpressure.

The loopback/socket pair must be observably interchangeable: same
requests, same events, same byte counts.  Socket-specific machinery —
the pre-flush that puts buffered output ahead of injected input, the
sweep that turns a fault-plan disconnect into an on-wire
XConnectionLost, write backpressure — gets targeted coverage of its
own.
"""

import os
import selectors
import time

import pytest

from repro.x11 import (Display, FaultPlan, XConnectionLost,
                       XProtocolError, XServer)
from repro.x11 import events as ev
from repro.x11 import wire
from repro.x11.transport import (LoopbackTransport, ServerHost,
                                 SocketTransport, _Conn, WRITE_LIMIT,
                                 ensure_host, resolve_transport,
                                 shutdown_host)


@pytest.fixture
def server():
    srv = XServer()
    yield srv
    shutdown_host(srv)


def socket_display(server, **flags):
    return Display(server, transport="socket", **flags)


class TestResolveTransport:
    def test_default_is_loopback(self, server):
        assert isinstance(resolve_transport(server, None),
                          LoopbackTransport)
        assert isinstance(resolve_transport(server, "loopback"),
                          LoopbackTransport)

    def test_socket_spec_starts_host(self, server):
        transport = resolve_transport(server, "socket")
        assert isinstance(transport, SocketTransport)
        assert server._wire_host.running

    def test_factory_callable_and_passthrough(self, server):
        made = []

        def factory(srv):
            transport = LoopbackTransport(srv)
            made.append(transport)
            return transport

        assert resolve_transport(server, factory) is made[0]
        assert resolve_transport(server, made[0]) is made[0]

    def test_host_is_cached_and_shut_down(self, server):
        host = ensure_host(server)
        assert ensure_host(server) is host
        shutdown_host(server)
        assert not host.running
        assert getattr(server, "_wire_host", None) is None


class TestLoopbackAccounting:
    def test_bytes_counted_per_client(self, server):
        display = Display(server)
        display.create_window(display.root, 0, 0, 10, 10)
        registry = server.obs.metrics
        label = {"client": str(display.client.number),
                 "transport": "loopback"}
        assert registry.value("x11.wire.bytes_out", **label) > 0
        assert registry.value("x11.wire.bytes_in", **label) > 0

    def test_rtt_observed_on_reply_bearing_requests_only(self, server):
        display = Display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 10, 10)
        registry = server.obs.metrics
        label = {"client": display.client.number,
                 "transport": "loopback"}
        count = registry.histogram("x11.wire.rtt_ms", **label).value
        display.map_window(win)       # buffered oneway: no round trip
        assert registry.histogram("x11.wire.rtt_ms",
                                  **label).value == count
        display.get_geometry(win)     # reply-bearing
        assert registry.histogram("x11.wire.rtt_ms",
                                  **label).value > count

    def test_capture_wire_frames_decode(self, server):
        display = Display(server)
        log = display.transport.capture_wire()
        display.create_window(display.root, 0, 0, 10, 10)
        assert log, "no frames captured"
        types = [wire.decode_frame(frame)[0] for frame in log]
        assert wire.REQUEST in types and wire.REPLY in types


#: frame types a client receives; everything else it sends
_INBOUND = frozenset((wire.BATCH_ACK, wire.ONEWAY_ACK, wire.REPLY,
                      wire.ERROR, wire.EVENT))


def _churn(app, count=50):
    """Table II row 3: create, pack, show and destroy ``count``
    buttons."""
    for index in range(count):
        app.interp.eval("button .b%d -text b%d" % (index, index))
        app.interp.eval("pack append . .b%d {top}" % index)
    app.update()
    for index in range(count):
        app.interp.eval("destroy .b%d" % index)
    app.update()


class TestLoopbackEventHop:
    """The loopback event sink sizes each event with wire.frame_size
    and the server hands a built Expose to its first receiver; neither
    may change a byte count or a serial."""

    @staticmethod
    def session(capture, plan=None):
        """Bytes in and out of one churn op after a warm-up op, and the
        captured frames when ``capture``."""
        from repro.tk import TkApp
        server = XServer()
        if plan is not None:
            server.install_fault_plan(plan())
        app = TkApp(server, name="churn")
        _churn(app)
        registry = server.obs.metrics
        before = (registry.total("x11.wire.bytes_in"),
                  registry.total("x11.wire.bytes_out"))
        frames = app.display.transport.capture_wire() if capture else None
        _churn(app)
        if plan is not None:
            for _ in range(4):          # let every delayed event out
                server.time_ms += 50
                app.display.sync()
                app.update()
        after = (registry.total("x11.wire.bytes_in"),
                 registry.total("x11.wire.bytes_out"))
        return (after[0] - before[0], after[1] - before[1]), frames, \
            server.fault_plan

    @staticmethod
    def frame_totals(frames):
        inbound = sum(len(frame) for frame in frames
                      if frame[4] in _INBOUND)
        return inbound, sum(len(frame) for frame in frames) - inbound

    def test_churn_op_bytes_match_captured_frames(self):
        counted, _, _ = self.session(capture=False)
        captured, frames, _ = self.session(capture=True)
        assert counted == captured == self.frame_totals(frames)
        assert sum(frame[4] == wire.EVENT for frame in frames) > 100

    def test_fault_plan_session_bytes_match_captured_frames(self):
        def plan():
            return FaultPlan(seed=7, drop_rate=0.2, delay_rate=0.2,
                             delay_ms=30)
        counted, _, used = self.session(capture=False, plan=plan)
        captured, frames, _ = self.session(capture=True, plan=plan)
        assert counted == captured == self.frame_totals(frames)
        assert used.counters["drop"] > 0 and used.counters["delay"] > 0
        assert used.held_count() == 0

    def test_each_expose_receiver_gets_its_own_event(self, server):
        first, second = LoopbackTransport(server), LoopbackTransport(server)
        watcher = server.connect()          # a bare client, no transport
        wid = server.create_window(first.client, server.root.id,
                                   0, 0, 30, 20)
        for client in (first.client, second.client, watcher):
            server.select_input(client, wid, ev.EXPOSURE_MASK)
        server.map_window(wid)
        received = [client.queue[-1] for client in
                    (first.client, second.client, watcher)]
        assert len({id(event) for event in received}) == 3
        assert len({event.serial for event in received}) == 1
        assert {(event.type, event.window, event.width, event.height)
                for event in received} == {(ev.EXPOSE, wid, 30, 20)}
        received[0].width = 99          # no receiver shares its fields
        assert received[1].width == received[2].width == 30


class TestCountersMatchFrames:
    """Every loopback byte count is the length of the frame it stands
    for: each ``wire.frame_size`` call the transport makes is checked
    against ``len(wire.encode_frame(...))`` of the same arguments."""

    @pytest.fixture
    def sized(self, monkeypatch):
        """The frame types sized so far and the mismatches found.

        Mismatches are collected rather than asserted in place: an
        exception raised inside a transport may be reported through
        bgerror or a send error reply instead of reaching the test.
        """
        frame_size = wire.frame_size
        seen, mismatches = [], []

        def checked(ftype, value=None, ctx=None):
            size = frame_size(ftype, value, ctx)
            seen.append(ftype)
            if size != len(wire.encode_frame(ftype, value, ctx)):
                mismatches.append((wire.frame_name(ftype), value))
            return size

        monkeypatch.setattr(wire, "frame_size", checked)
        return seen, mismatches

    def test_every_frame_of_the_golden_session(self, sized):
        from repro.obs.journal import Journal
        from repro.obs.replay import replay_journal
        seen, mismatches = sized
        journal = Journal.load(os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "examples",
            "golden.journal"))
        assert replay_journal(journal).matched
        assert mismatches == []
        assert {wire.BATCH, wire.REQUEST, wire.EVENT} <= set(seen)

    def test_every_frame_of_a_churn_op(self, sized):
        from repro.tk import TkApp
        seen, mismatches = sized
        app = TkApp(XServer(), name="churn")
        _churn(app)
        assert mismatches == []
        assert seen.count(wire.BATCH) > 1 and seen.count(wire.EVENT) > 40

    def test_every_frame_of_fuzz_seeds_0_to_99(self, sized):
        from repro.fuzz import generate_scenario, run_scenario
        seen, mismatches = sized
        for seed in range(100):
            run_scenario(generate_scenario(seed), check_replay=False)
        assert mismatches == []
        assert seen.count(wire.BATCH) > 1000

    def test_batch_of_every_fallback_value(self):
        from repro.tcl.value import Value
        from repro.x11.resources import GraphicsContext
        server = XServer()
        client = server.connect()
        gc = GraphicsContext(7, {"foreground": 1})
        ops = [
            ("draw_string", 5, (5, gc, 1, 2, Value("tcl")),
             {"client": client}),
            ("draw_string", 5, (5, gc, 1, 2, "h\u00e9llo \u2603"),
             {"client": client, "text": Value("caf\u00e9")}),
            ("change_property", 6, (6, 1 << 70, -(1 << 63) - 1, [1, "a"]),
             {"append": True, "client": client}),
            ("configure_window", 7, (7, False, 2.5, b"raw"),
             {"width": 1.0, "height": b"\x00\x01", "flag": True,
              "big": 1 << 64, "none": None}),
            ("map_window", None, (), {}),
            # ops of another shape: sized by the general path
            ["map_window", 8, (8,), {}],
            ("map_window", 8, [8], {}),
            ("map_window", 8),
        ]
        for ctx in (None, 42):
            assert wire.frame_size(wire.BATCH, ops, ctx) == \
                len(wire.encode_frame(wire.BATCH, ops, ctx))
            for op in ops:
                assert wire.frame_size(wire.BATCH, [op], ctx) == \
                    len(wire.encode_frame(wire.BATCH, [op], ctx))
        with pytest.raises(wire.WireError):
            wire.frame_size(wire.BATCH, [("map_window", 1, (object(),),
                                          {})])
        with pytest.raises(wire.WireError):
            wire.frame_size(wire.BATCH, [("map_window", 1, (),
                                          {"x": {1, 2}})])


class TestLegacyClientPath:
    def test_bare_client_enqueue_still_works(self, server):
        """Clients without a transport keep the pre-wire behaviour."""
        display = Display(server)
        watcher = server.connect()
        assert watcher.transport_sink is None
        win = display.create_window(display.root, 0, 0, 10, 10)
        server.select_input(watcher, win, ev.STRUCTURE_NOTIFY_MASK)
        display.map_window(win)
        assert watcher.pending() == 1
        assert watcher.next_event().type == ev.MAP_NOTIFY

    def test_deliver_direct_bypasses_plan(self, server):
        plan = server.install_fault_plan(FaultPlan())
        plan.drop_events(5)
        client = server.connect()
        client.deliver_direct(ev.Event(type=ev.EXPOSE, window=1))
        assert client.pending() == 1


class TestSocketTransport:
    def test_connection_facts_match_server(self, server):
        display = socket_display(server)
        assert display.root == server.root.id
        assert display.transport.screen_width == server.root.width
        assert display.client.number in \
            [c.number for c in server.clients]

    def test_requests_and_events_round_trip(self, server):
        display = socket_display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 40, 30)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.map_window(win)
        display.flush()
        assert display.pending() == 1
        event = display.next_event()
        assert event.type == ev.MAP_NOTIFY and event.window == win
        assert display.get_geometry(win)[2] == 40

    def test_multiple_clients_one_host(self, server):
        maker = socket_display(server)
        watcher = socket_display(server)
        third = Display(server)  # loopback shares the same server
        win = maker.create_window(maker.root, 0, 0, 10, 10)
        watcher.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        third.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        maker.configure_window(win, width=50)
        assert watcher.pending() == 1
        assert third.pending() == 1
        assert maker.pending() == 0
        assert watcher.next_event().width == 50

    def test_protocol_error_crosses_wire_typed(self, server):
        display = socket_display(server)
        with pytest.raises(XProtocolError, match="BadWindow"):
            display.get_geometry(999999)
        # connection survives a protocol error
        assert not display.closed
        assert display.intern_atom("X") > 0

    def test_close_is_synchronous_bye(self, server):
        display = socket_display(server)
        number = display.client.number
        display.close()
        assert display.closed
        assert all(c.number != number or c.closed
                   for c in server.clients)
        with pytest.raises(XConnectionLost):
            display.intern_atom("X")

    def test_input_injection_reaches_the_display(self, server):
        display = socket_display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 100, 100)
        display.select_input(win, ev.BUTTON_PRESS_MASK
                             | ev.POINTER_MOTION_MASK)
        display.map_window(win)
        display.flush()
        display.next_event()  # MapNotify (if structure selected: none)
        host = server._wire_host
        host.inject("warp_pointer", 5, 5)
        host.inject("press_button", 1)
        types = []
        while display.pending():
            types.append(display.next_event().type)
        assert ev.BUTTON_PRESS in types

    def test_host_call_returns_value_and_raises(self, server):
        host = ensure_host(server)
        assert host.call(lambda: 42) == 42
        with pytest.raises(ValueError, match="boom"):
            host.call(lambda: (_ for _ in ()).throw(ValueError("boom")))

    def test_byte_counts_match_loopback(self):
        def run(kind):
            server = XServer()
            try:
                display = Display(server, buffering_enabled=True,
                                  transport=kind)
                win = display.create_window(display.root, 0, 0, 20, 20)
                display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
                display.map_window(win)
                display.configure_window(win, width=33)
                display.flush()
                while display.pending():
                    display.next_event()
                display.get_geometry(win)
                registry = server.obs.metrics
                label = {"client": str(display.client.number),
                         "transport": kind}
                return (registry.value("x11.wire.bytes_out", **label),
                        registry.value("x11.wire.bytes_in", **label))
            finally:
                shutdown_host(server)

        assert run("loopback") == run("socket")


class TestDrainFence:
    """Input injection first flushes the socket Displays that hold
    buffered output, on the calling thread and in connection order;
    idle Displays send nothing.  Each flush is an ordinary BATCH, so
    the requests reach the server before the input."""

    @staticmethod
    def frame_types(display):
        """Frame types on ``display``'s captured wire, events read."""
        while display.pending():
            display.next_event()
        return [wire.frame_name(frame[4])
                for frame in display.transport.wire_log]

    def test_idle_displays_pay_no_fence(self, server):
        displays = [socket_display(server, buffering_enabled=True)
                    for _ in range(2)]
        for display in displays:
            win = display.create_window(display.root, 0, 0, 50, 50)
            display.select_input(win, ev.POINTER_MOTION_MASK)
            display.map_window(win)
            display.flush()
            display.transport.capture_wire()
        host = server._wire_host
        host.inject("warp_pointer", 5, 5)
        host.inject("press_button", 1)
        assert [self.frame_types(display) for display in displays] == \
            [[], ["EVENT"]]

    def test_buffered_request_is_fenced_before_the_input(self, server):
        from repro.obs.journal import Journal
        display = socket_display(server, buffering_enabled=True)
        idle = socket_display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 100, 100)
        display.map_window(win)
        display.flush()
        display.select_input(win, ev.POINTER_MOTION_MASK)
        assert display.pending_output() == 1
        display.transport.capture_wire()
        idle.transport.capture_wire()
        journal = server.attach_journal(Journal())
        server._wire_host.inject("warp_pointer", 10, 20)
        assert display.pending_output() == 0
        # the motion was delivered under the mask the flush delivered
        event = display.next_event()
        assert (event.type, event.window, event.x, event.y) == \
            (ev.MOTION_NOTIFY, win, 10, 20)
        assert self.frame_types(display) == ["BATCH", "BATCH_ACK",
                                             "EVENT"]
        assert self.frame_types(idle) == []
        assert [entry["k"] for entry in journal.entries()
                if entry["k"] != "req"] == ["batch", "input"]

    def test_injection_with_a_bare_client_connected(self, server):
        # a SocketTransport with no Display registers no flush hook:
        # injecting must neither wait for it nor disconnect it
        host = ensure_host(server)
        bare = SocketTransport(host)
        display = socket_display(server)
        started = time.monotonic()
        host.inject("warp_pointer", 5, 5)
        host.inject("press_button", 1)
        assert time.monotonic() - started < 1.0
        assert not bare.client.closed
        bare.request("sync")
        display.sync()

    @staticmethod
    def journaled_session(kind):
        """Buffered output before every warp, press and key injection;
        returns the session's journal as JSON lines."""
        from repro.obs.journal import Journal
        server = XServer()
        try:
            journal = server.attach_journal(
                Journal(clock=lambda: server.time_ms))
            first = Display(server, buffering_enabled=True,
                            transport=kind)
            second = Display(server, buffering_enabled=True,
                             transport=kind)
            win = first.create_window(first.root, 0, 0, 100, 100)
            other = second.create_window(second.root, 0, 0, 40, 40)
            if kind == "socket":
                inject = server._wire_host.inject
            else:
                def inject(name, *args):
                    getattr(server, name)(*args)
            first.map_window(win)
            first.select_input(win, ev.POINTER_MOTION_MASK
                               | ev.BUTTON_PRESS_MASK | ev.KEY_PRESS_MASK)
            second.map_window(other)
            inject("warp_pointer", 60, 60)
            first.configure_window(win, width=90)
            inject("press_button", 1)
            second.select_input(other, ev.POINTER_MOTION_MASK)
            first.raise_window(win)
            inject("release_button", 1)
            first.configure_window(win, height=80)
            inject("press_key", "a", 0, win)
            second.configure_window(other, width=30)
            inject("release_key", "a", 0, win)
            second.unmap_window(other)
            inject("warp_pointer", 10, 10)
            for display in (first, second):
                display.sync()
                while display.pending():
                    display.next_event()
            return journal.to_jsonl()
        finally:
            shutdown_host(server)

    def test_journal_identical_over_loopback_and_socket(self):
        import json
        text = self.journaled_session("loopback")
        assert self.journaled_session("socket") == text
        # each input follows the batch its injection drained
        kinds = [json.loads(line)["k"] for line in text.splitlines()]
        kinds = [kind for kind in kinds if kind != "req"]
        inputs = [i for i, kind in enumerate(kinds) if kind == "input"]
        assert len(inputs) == 6
        assert all(kinds[i - 1] == "batch" for i in inputs)

    def test_disconnect_during_the_preflush(self, server):
        plan = server.install_fault_plan(FaultPlan())
        victim = socket_display(server, buffering_enabled=True)
        watcher = socket_display(server)
        win = watcher.create_window(watcher.root, 0, 0, 50, 50)
        watcher.select_input(win, ev.BUTTON_PRESS_MASK)
        watcher.map_window(win)
        own = victim.create_window(victim.root, 0, 0, 10, 10)
        number = victim.client.number
        plan.disconnect_client(number, on_request="map_window")
        victim.map_window(own)
        assert victim.pending_output() == 1
        started = time.monotonic()
        host = server._wire_host
        host.inject("warp_pointer", 5, 5)
        host.inject("press_button", 1)
        assert time.monotonic() - started < 1.0
        assert victim.pending_output() == 0
        assert [client.closed for client in server.clients
                if client.number == number] == [True]
        # the flush's error waits for the victim's next flush point,
        # then the lost connection surfaces
        with pytest.raises(XProtocolError):
            victim.sync()
        with pytest.raises(XConnectionLost):
            victim.sync()
        assert victim.closed
        assert [watcher.next_event().type
                for _ in range(watcher.pending())] == [ev.BUTTON_PRESS]


class TestBadRequests:
    """A request frame the server cannot run is answered with an
    XProtocolError naming it; the host thread lives on and keeps
    serving the sender and every other client."""

    @pytest.mark.parametrize("send, named", [
        (lambda t: t.request("no_such_request"), "no_such_request"),
        (lambda t: t.request("_tick", "x"), "_tick"),
        (lambda t: t.request("__class__"), "__class__"),
        (lambda t: t.request("clients"), "clients"),  # not a method
        (lambda t: t.request("get_geometry"), "get_geometry"),  # arity
        (lambda t: t.oneway("no_such_request", 0, (), {}),
         "no_such_request"),
        (lambda t: t.oneway("map_window", 0, (1, 2, 3), {}),
         "map_window"),
        (lambda t: t.deliver_batch([("no_such_request", 0, (), {})]),
         "no_such_request"),
        (lambda t: t.deliver_batch([("_scrub_closed", 0, (), {})]),
         "_scrub_closed"),
        (lambda t: t.deliver_batch([("map_window", 0, (), {})]),
         "map_window"),
        (lambda t: t.deliver_batch([5]), "BATCH"),
        (lambda t: (t._send(wire.encode_frame(wire.REQUEST, 5)),
                    t._await_reply(wire.REPLY)), "REQUEST"),
    ])
    def test_answered_with_protocol_error(self, server, send, named):
        host = ensure_host(server)
        bad = SocketTransport(host)
        other = socket_display(server)
        started = time.monotonic()
        with pytest.raises(XProtocolError, match=named) as caught:
            send(bad)
        assert time.monotonic() - started < 1.0
        assert not isinstance(caught.value, XConnectionLost)
        assert host._thread.is_alive()
        other.sync()
        assert not bad.client.closed
        bad.request("sync")

    def test_loopback_still_raises_in_process(self, server):
        transport = LoopbackTransport(server)
        with pytest.raises(AttributeError):
            transport.request("no_such_request")


class TestJournalClient:
    """Every request is journaled under the client that issued it, on
    both transports, whatever the previous request's client was; an
    injected input belongs to no client."""

    @pytest.mark.parametrize("kind", ["loopback", "socket"])
    def test_oneway_after_another_clients_request(self, server, kind):
        from repro.fuzz.oracles import check_dead_client_requests
        from repro.obs.journal import Journal
        journal = server.attach_journal(
            Journal(clock=lambda: server.time_ms))
        a = Display(server, transport=kind)
        b = Display(server, transport=kind)
        win = b.create_window(b.root, 0, 0, 10, 10)
        a.sync()
        b.map_window(win)
        a.close()
        b.unmap_window(win)
        if kind == "socket":
            ensure_host(server).inject("warp_pointer", 3, 3)
        else:
            server.warp_pointer(3, 3)
        requests = [(entry["name"], entry["client"])
                    for entry in journal.entries() if entry["k"] == "req"]
        assert requests == [
            ("create_window", b.client.number),
            ("sync", a.client.number),
            ("map_window", b.client.number),
            ("unmap_window", b.client.number),
            ("warp_pointer", None)]
        assert check_dead_client_requests(journal) == []


class TestSocketFaults:
    def test_dropped_event_never_crosses_wire(self, server):
        plan = server.install_fault_plan(FaultPlan())
        maker = socket_display(server)
        watcher = socket_display(server)
        win = maker.create_window(maker.root, 0, 0, 10, 10)
        watcher.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        bytes_before = server.obs.metrics.value(
            "x11.wire.bytes_in", client=str(watcher.client.number),
            transport="socket")
        plan.drop_events(1, event_type=ev.CONFIGURE_NOTIFY)
        maker.configure_window(win, width=50)
        assert watcher.pending() == 0
        # dropped at the transport sink: the frame was never shipped
        assert server.obs.metrics.value(
            "x11.wire.bytes_in",
            client=str(watcher.client.number),
            transport="socket") == bytes_before
        maker.configure_window(win, width=60)
        assert watcher.pending() == 1

    def test_delayed_event_released_through_direct_sink(self, server):
        plan = server.install_fault_plan(FaultPlan())
        maker = socket_display(server)
        watcher = socket_display(server)
        win = maker.create_window(maker.root, 0, 0, 10, 10)
        watcher.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        plan.delay_events(1, delay_ms=5,
                          event_type=ev.CONFIGURE_NOTIFY)
        maker.configure_window(win, width=50)
        assert watcher.pending() == 0
        assert plan.held_count() == 1
        host = server._wire_host
        for _ in range(6):
            host.inject("idle_tick")
        assert plan.held_count() == 0
        assert watcher.pending() == 1
        assert watcher.next_event().width == 50

    def test_fault_disconnect_surfaces_connection_lost(self, server):
        plan = server.install_fault_plan(FaultPlan())
        victim = socket_display(server)
        other = socket_display(server)
        plan.disconnect_client(victim.client.number,
                               on_request="intern_atom")
        other.intern_atom("TRIGGER")
        # force a sweep on the server thread, then read the ERROR frame
        server._wire_host.call(lambda: None)
        victim.transport.poll()
        assert victim.closed
        with pytest.raises(XConnectionLost):
            victim.get_geometry(victim.root)
        # the other client is untouched
        assert other.intern_atom("AGAIN") > 0

    def test_disconnect_mid_batch_loses_batch_on_socket(self, server):
        plan = server.install_fault_plan(FaultPlan())
        display = socket_display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 10, 10)
        plan.disconnect_client(display.client.number,
                               on_request="map_window")
        display.map_window(win)
        display.set_window_background(win, 7)
        with pytest.raises(XConnectionLost):
            display.flush()
        assert display.closed
        assert display.pending_output() == 0


class _StubSock:
    """A socket stand-in whose send behaviour the test scripts."""

    def __init__(self, plan):
        self.plan = list(plan)  # ints = bytes accepted, exc classes raise
        self.sent = bytearray()
        self.closed = False

    def send(self, data):
        step = self.plan.pop(0) if self.plan else len(data)
        if isinstance(step, type) and issubclass(step, Exception):
            raise step()
        step = min(step, len(data))
        self.sent += bytes(data[:step])
        return step

    def close(self):
        self.closed = True


class TestBackpressure:
    def _conn(self, server, plan):
        host = ServerHost(server)
        host._sel = selectors.DefaultSelector()
        conn = _Conn(host, _StubSock(plan))
        host._conns.append(conn)
        conn.client = server.connect()
        return conn

    def test_short_write_buffers_and_counts(self, server):
        frame = wire.encode_frame(wire.REPLY, "x" * 100)
        conn = self._conn(server, [10, BlockingIOError])
        conn.send(frame)
        assert not conn.closed
        assert bytes(conn.sock.sent) == frame[:10]
        assert bytes(conn.wbuf) == frame[10:]
        assert server.obs.metrics.value(
            "x11.wire.backpressure",
            client=str(conn.client.number)) == 1
        # the peer starts reading again: the buffer drains
        conn.flush_writes()
        assert conn.sock.sent == frame
        assert not conn.wbuf

    def test_zero_byte_send_counts_as_backpressure(self, server):
        conn = self._conn(server, [0])
        conn.send(wire.encode_frame(wire.REPLY, 1))
        assert server.obs.metrics.value(
            "x11.wire.backpressure",
            client=str(conn.client.number)) == 1

    def test_write_limit_overflow_closes_down(self, server):
        conn = self._conn(server, [BlockingIOError, BlockingIOError])
        conn.send(wire.encode_frame(
            wire.REPLY, b"\x00" * (WRITE_LIMIT + 64)))
        assert conn.closed
        assert conn.client.closed

    def test_oserror_on_send_closes_conn(self, server):
        conn = self._conn(server, [ConnectionResetError])
        conn.send(wire.encode_frame(wire.REPLY, 1))
        assert conn.closed
