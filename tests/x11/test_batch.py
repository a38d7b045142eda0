"""Tests for the client-side output buffer and request coalescing.

The tentpole of the Xlib-style batching work: one-way requests enqueue
into the Display's output buffer and reach the server as one batch at
flush time; reply-bearing requests auto-flush first; a coalescing pass
merges/drops redundant requests without reordering survivors.
"""

import pytest

from repro.x11 import (Display, FaultPlan, XConnectionLost,
                       XProtocolError, XServer)
from repro.x11 import events as ev


@pytest.fixture
def server():
    return XServer()


@pytest.fixture
def display(server):
    return Display(server, buffering_enabled=True)


def _metrics(server):
    return server.obs.metrics


class TestBuffering:
    def test_oneway_requests_do_not_reach_server(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        before = server.requests
        display.map_window(win)
        display.set_window_background(win, 7)
        assert server.requests == before
        assert display.pending_output() == 2
        assert not server.window(win).mapped

    def test_flush_delivers_in_order(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.map_window(win)
        display.set_window_background(win, 7)
        delivered = display.flush()
        assert delivered == 2
        assert display.pending_output() == 0
        assert server.window(win).mapped
        assert server.window(win).background == 7

    def test_flush_counts_one_batch(self, server, display):
        metrics = _metrics(server)
        before = metrics.value("x11.batches")
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.map_window(win)
        display.flush()
        assert metrics.value("x11.batches") == before + 1
        assert metrics.value("x11.requests", type="batch") == before + 1

    def test_empty_flush_is_free(self, server, display):
        before = server.requests
        assert display.flush() == 0
        assert server.requests == before

    def test_reply_bearing_request_auto_flushes(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.configure_window(win, width=55)
        assert display.pending_output() == 1
        geometry = display.get_geometry(win)
        assert display.pending_output() == 0
        assert geometry[2] == 55

    def test_pending_flushes_when_queue_empty(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.map_window(win)
        # XPending semantics: with no events queued, write out the
        # buffer so the server can generate some.
        assert display.pending() > 0
        types = [event.type for event in _drain(display)]
        assert ev.MAP_NOTIFY in types

    def test_ablation_flag_restores_synchronous_path(self, server):
        display = Display(server, buffering_enabled=False)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.map_window(win)
        assert display.pending_output() == 0
        assert server.window(win).mapped

    def test_close_flushes_buffer(self, server):
        display = Display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.map_window(win)
        display.close()
        # The map was delivered before the disconnect destroyed the
        # client's windows.
        assert not server.window_exists(win)

    def test_event_order_preserved_across_batches(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.map_window(win)
        display.configure_window(win, width=20)
        display.unmap_window(win)
        display.flush()
        types = [event.type for event in _drain(display)]
        assert types == [ev.MAP_NOTIFY, ev.CONFIGURE_NOTIFY,
                         ev.UNMAP_NOTIFY]


def _drain(display):
    out = []
    while display.pending():
        out.append(display.next_event())
    return out


class TestCoalescing:
    def test_consecutive_configures_merge(self, server, display):
        metrics = _metrics(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        before = metrics.value("x11.requests", type="configure_window")
        display.configure_window(win, width=20)
        display.configure_window(win, height=30)
        display.configure_window(win, width=40)
        dropped_before = metrics.value("x11.requests_coalesced")
        display.flush()
        assert metrics.value("x11.requests",
                             type="configure_window") == before + 1
        assert metrics.value("x11.requests_coalesced") == \
            dropped_before + 2
        assert server.window(win).width == 40     # later fields win
        assert server.window(win).height == 30    # earlier field kept

    def test_configure_merge_blocked_by_intervening_request(
            self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.flush()
        display.configure_window(win, width=20)
        display.map_window(win)           # references the same window
        display.configure_window(win, width=30)
        display.flush()
        # Merging across the map would reorder the ConfigureNotify
        # relative to MapNotify; both configures must survive.
        types = [event.type for event in _drain(display)]
        assert types == [ev.CONFIGURE_NOTIFY, ev.MAP_NOTIFY,
                         ev.CONFIGURE_NOTIFY]

    def test_configures_on_distinct_windows_both_survive(
            self, server, display):
        a = display.create_window(display.root, 0, 0, 10, 10)
        b = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        display.configure_window(a, width=21)
        display.configure_window(b, width=22)
        display.flush()
        assert server.window(a).width == 21
        assert server.window(b).width == 22

    def test_clear_supersedes_earlier_draws(self, server, display):
        metrics = _metrics(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        gc = display.create_gc(foreground=1)
        before = metrics.value("x11.requests", type="fill_rectangle")
        display.fill_rectangle(win, gc, 0, 0, 5, 5)
        display.draw_string(win, gc, 1, 1, "gone")
        display.clear_window(win)
        display.draw_string(win, gc, 2, 2, "kept")
        display.flush()
        # The superseded draws never reach the server.
        assert metrics.value("x11.requests",
                             type="fill_rectangle") == before
        ops = server.window(win).draw_ops
        assert [op.kind for op in ops] == ["text"]
        assert ops[0].args[2] == "kept"

    def test_destroy_breaks_clear_chain(self, server, display):
        """Draws on a window destroyed mid-buffer must still be
        delivered in order (and fail), not silently dropped."""
        win = display.create_window(display.root, 0, 0, 10, 10)
        gc = display.create_gc(foreground=1)
        display.flush()
        display.draw_string(win, gc, 1, 1, "to the old window")
        display.destroy_window(win)
        with pytest.raises(XProtocolError, match="BadWindow"):
            # The draw lands on the just-destroyed window: the server
            # reports the error after finishing the batch.
            display.clear_window(win)
            display.flush()

    def test_select_input_last_write_wins(self, server, display):
        metrics = _metrics(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        before = metrics.value("x11.requests", type="select_input")
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.select_input(win, ev.KEY_PRESS_MASK)
        display.flush()
        assert metrics.value("x11.requests",
                             type="select_input") == before + 1
        assert server.window(win).event_selections[display.client] == \
            ev.KEY_PRESS_MASK

    def test_change_property_last_write_wins(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        atom = display.intern_atom("P")
        string = display.intern_atom("STRING")
        metrics = _metrics(server)
        before = metrics.value("x11.requests", type="change_property")
        display.change_property(win, atom, string, "first")
        display.change_property(win, atom, string, "second")
        display.flush()
        assert metrics.value("x11.requests",
                             type="change_property") == before + 1
        assert display.get_property(win, atom)[1] == "second"

    def test_appends_are_never_dropped(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        atom = display.intern_atom("Q")
        string = display.intern_atom("STRING")
        display.change_property(win, atom, string, ["a"], append=True)
        display.change_property(win, atom, string, ["b"], append=True)
        display.flush()
        assert list(display.get_property(win, atom)[1]) == ["a", "b"]

    def test_write_before_append_survives(self, server, display):
        """An append depends on the preceding write: neither may be
        dropped even though both target the same key."""
        win = display.create_window(display.root, 0, 0, 10, 10)
        atom = display.intern_atom("R")
        string = display.intern_atom("STRING")
        display.change_property(win, atom, string, ["base"])
        display.change_property(win, atom, string, ["more"], append=True)
        display.flush()
        assert list(display.get_property(win, atom)[1]) == ["base", "more"]

    def test_distinct_properties_not_coalesced(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        a = display.intern_atom("A")
        b = display.intern_atom("B")
        string = display.intern_atom("STRING")
        display.change_property(win, a, string, "one")
        display.change_property(win, b, string, "two")
        display.flush()
        assert display.get_property(win, a)[1] == "one"
        assert display.get_property(win, b)[1] == "two"

    def test_flush_pass_merges_plain_runs(self):
        """The flush-time pass alone: a configure run merges and a
        select_input run keeps its last write."""
        from repro.x11.display import _coalesce
        configures = [("configure_window", 5, (), {"width": 20}),
                      ("configure_window", 5, (), {"width": 30})]
        kept, dropped = _coalesce(configures)
        assert dropped == 1 and kept[0][3] == {"width": 30}
        client = object()
        selects = [("select_input", 5, (client, 5, 1), {}),
                   ("select_input", 5, (client, 5, 2), {})]
        kept, dropped = _coalesce(selects)
        assert dropped == 1 and kept[0][2][2] == 2


def _sent_ops(buffered, requests, plan=None):
    """The request ops ``requests(display, windows, gc)`` puts on the
    wire, read back from the captured frames: the op lists of the
    BATCH frames of a buffered Display, or of the ONEWAY frames of an
    unbuffered one (each request as issued, nothing merged); and the
    XConnectionLost the flush raised, if any."""
    from repro.x11 import wire
    server = XServer()
    display = Display(server, buffering_enabled=buffered)
    windows = [display.create_window(display.root, 0, 0, 10, 10)
               for _ in range(3)]
    gc = display.create_gc(foreground=1)
    if plan is not None:
        plan(server, display)
    frames = display.transport.capture_wire()
    lost = None
    try:
        requests(display, windows, gc)
        display.flush()
    except XConnectionLost as error:
        lost = error
    ops = []
    for frame in frames:
        # Clients decode to the live one, as _coalesce keys them by id.
        ftype, value = wire.decode_frame(frame,
                                         lambda number: display.client)
        if ftype == wire.BATCH:
            ops.extend(value)
        elif ftype == wire.ONEWAY:
            ops.append(value)
    return ops, lost


class TestEnqueueMerge:
    """Configures merged at enqueue time, then the flush-time pass, put
    on the wire exactly the ops ``_coalesce`` makes of the requests as
    issued."""

    @staticmethod
    def check(requests, plan=None):
        from repro.x11 import wire
        from repro.x11.display import _coalesce
        issued, _ = _sent_ops(False, requests)
        sent, lost = _sent_ops(True, requests, plan)
        expected, _ = _coalesce(list(issued))
        assert wire.encode_frame(wire.BATCH, sent) == \
            wire.encode_frame(wire.BATCH, expected)
        return issued, sent, lost

    def test_configure_draw_configure_clear(self):
        def requests(display, windows, gc):
            win = windows[0]
            display.configure_window(win, width=20)
            display.fill_rectangle(win, gc, 0, 0, 5, 5)
            display.configure_window(win, height=30)
            display.clear_window(win)
        issued, sent, _ = self.check(requests)
        # The draw went only at flush, and the configures merged then.
        assert [op[0] for op in sent] == ["configure_window",
                                          "clear_window"]
        assert sent[0][3]["width"] == 20 and sent[0][3]["height"] == 30

    def test_configure_select_input_configure(self):
        def requests(display, windows, gc):
            win = windows[0]
            display.configure_window(win, width=20)
            display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
            display.configure_window(win, height=30)
        issued, sent, _ = self.check(requests)
        assert len(sent) == len(issued) == 3

    def test_configure_other_destroy_configure(self):
        def requests(display, windows, gc):
            win, other = windows[0], windows[1]
            display.configure_window(win, width=20)
            display.destroy_window(other)
            display.configure_window(win, height=30, width=25)
        issued, sent, _ = self.check(requests)
        assert [op[0] for op in sent] == ["configure_window",
                                          "destroy_window"]
        assert list(sent[0][3].items())[-2:] == [("width", 25),
                                                ("height", 30)]

    def test_pending_output_counts_after_the_merge(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        for width in range(20, 25):
            display.configure_window(win, width=width)
        assert display.pending_output() == 1
        display.map_window(win)
        display.configure_window(win, height=5)
        assert display.pending_output() == 3

    def test_batch_aborted_by_connection_loss(self):
        def requests(display, windows, gc):
            first, second, third = windows
            display.configure_window(first, width=20)
            display.configure_window(second, width=20)
            display.configure_window(first, height=30)
            display.map_window(second)
            display.configure_window(third, x=4)
            display.configure_window(third, y=4)

        def plan(server, display):
            server.install_fault_plan(FaultPlan()).disconnect_client(
                display.client, on_request="map_window")
            server.attach_journal(Journal(clock=lambda: server.time_ms))
            journals.append(server.journal)

        from repro.obs.journal import Journal
        journals = []
        issued, sent, lost = self.check(requests, plan)
        assert lost is not None
        names = [name for name, _, _ in journals[0].wire()]
        # The batch tick, then each op up to the one that disconnected.
        assert names == ["batch", "configure_window", "configure_window",
                         "map_window"]
        assert len(sent) == 4 and len(issued) == 6


class TestBatchErrors:
    def test_error_deferred_to_flush(self, server, display):
        """An error from a mid-batch request surfaces at flush time and
        does not stop later requests (the async X error model)."""
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        display.configure_window(99999, width=5)    # BadWindow
        display.map_window(win)                     # must still land
        with pytest.raises(XProtocolError, match="BadWindow"):
            display.flush()
        assert server.window(win).mapped

    def test_first_error_reported(self, server, display):
        display.configure_window(11111, width=5)
        display.configure_window(22222, width=5)
        with pytest.raises(XProtocolError, match="11111"):
            display.flush()

    def test_disconnect_mid_batch_aborts(self, server, display):
        """A FaultPlan disconnect firing inside a batch aborts the
        remainder with XConnectionLost."""
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(display.client, on_request="map_window")
        display.map_window(win)
        display.set_window_background(win, 3)
        with pytest.raises(XConnectionLost):
            display.flush()
        assert display.closed
        # Every subsequent call surfaces the dead connection.
        with pytest.raises(XConnectionLost):
            display.pending()

    def test_disconnect_on_batch_write_loses_whole_batch(self, server,
                                                         display):
        """A disconnect triggered by the batch tick itself models the
        connection dying on the wire write."""
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(display.client, on_request="batch")
        display.map_window(win)
        with pytest.raises(XConnectionLost):
            display.flush()
        assert not server.window_exists(win)   # scrubbed at close-down

    def test_flush_on_closed_display_raises(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        display.map_window(win)
        server.disconnect(display.client)
        with pytest.raises(XConnectionLost):
            display.flush()
        assert display.pending_output() == 0   # buffer discarded

    def test_lost_batch_is_consumed_not_retried(self, server, display):
        """Satellite regression: flush consumes the buffer *before*
        XConnectionLost propagates.  Requests handed to a dead wire are
        gone; a retrying caller must not re-deliver the prefix that
        already executed before the connection died."""
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(display.client, on_request="map_window")
        display.map_window(win)
        display.set_window_background(win, 3)
        requests_before = server.requests
        with pytest.raises(XConnectionLost):
            display.flush()
        # the failed batch is consumed, not parked for a retry
        assert display.pending_output() == 0
        requests_after = server.requests
        # a retrying caller gets a clean no-op, and nothing reaches the
        # server a second time
        assert display.flush() == 0
        assert server.requests == requests_after
        assert requests_after > requests_before  # the prefix did run

    def test_protocol_error_batch_also_consumed(self, server, display):
        """The async-error path (batch survives, one request failed)
        must leave the buffer just as empty: the batch was delivered."""
        display.configure_window(99999, width=5)    # BadWindow
        with pytest.raises(XProtocolError, match="BadWindow"):
            display.flush()
        assert display.pending_output() == 0
        assert display.flush() == 0

    def test_metrics_track_batch_sizes(self, server, display):
        metrics = _metrics(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        display.map_window(win)
        display.set_window_background(win, 1)
        display.configure_window(win, width=12)
        display.flush()
        assert metrics.value("x11.batch_size") >= 1       # observations
        assert metrics.get("x11.batch_size").total >= 3   # requests
