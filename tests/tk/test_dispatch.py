"""Tests for the event dispatcher (paper section 3.2): X events, file
events, timer events, and when-idle events."""

import os

import pytest

from repro.tk import TkApp
from repro.x11 import XServer


@pytest.fixture
def server():
    return XServer()


@pytest.fixture
def app(server):
    return TkApp(server, name="dispatch-test")


class TestTimers:
    def test_timer_fires_at_deadline(self, app):
        fired = []
        app.dispatcher.after(100, lambda: fired.append(1))
        app.update()
        assert fired == []
        app.server.time_ms += 100
        app.update()
        assert fired == [1]

    def test_timer_cancellation(self, app):
        fired = []
        timer_id = app.dispatcher.after(10, lambda: fired.append(1))
        app.dispatcher.cancel_after(timer_id)
        app.server.time_ms += 100
        app.update()
        assert fired == []

    def test_timers_ordered_by_deadline(self, app):
        fired = []
        app.dispatcher.after(30, lambda: fired.append("late"))
        app.dispatcher.after(10, lambda: fired.append("early"))
        app.server.time_ms += 50
        app.update()
        assert fired == ["early", "late"]

    def test_blocking_advances_virtual_clock(self, app):
        fired = []
        app.dispatcher.after(500, lambda: fired.append(1))
        app.update()
        assert app.dispatcher.do_one_event(block=True)
        assert fired == [1]

    def test_timer_can_reschedule_itself(self, app):
        ticks = []

        def tick():
            ticks.append(app.dispatcher.now())
            if len(ticks) < 3:
                app.dispatcher.after(10, tick)

        app.dispatcher.after(10, tick)
        app.mainloop(until=lambda: len(ticks) >= 3)
        assert len(ticks) == 3


class TestIdleHandlers:
    def test_idle_runs_after_other_events(self, app):
        order = []
        app.dispatcher.when_idle(lambda: order.append("idle"))
        app.dispatcher.after(0, lambda: order.append("timer"))
        app.update()
        assert order == ["timer", "idle"]

    def test_idle_handlers_coalesce_redraws(self, app):
        app.interp.eval("button .b -text x")
        app.interp.eval("pack append . .b {top}")
        app.update()
        widget = app.window(".b").widget
        draws = []
        original = widget.draw
        widget.draw = lambda: draws.append(1) or original()
        widget.schedule_redraw()
        widget.schedule_redraw()
        widget.schedule_redraw()
        app.update()
        assert len(draws) == 1

    def test_idle_queued_during_idle_runs_next_round(self, app):
        order = []

        def first():
            order.append("first")
            app.dispatcher.when_idle(lambda: order.append("second"))

        app.dispatcher.when_idle(first)
        app.dispatcher.do_one_event()
        assert order == ["first"]
        app.update()
        assert order == ["first", "second"]


class TestFileHandlers:
    def test_file_handler_fires_when_readable(self, app):
        read_fd, write_fd = os.pipe()
        received = []

        def on_readable(fileobj):
            received.append(os.read(read_fd, 100))

        app.dispatcher.create_file_handler(read_fd, on_readable)
        app.update()
        assert received == []
        os.write(write_fd, b"data")
        app.update()
        assert received == [b"data"]
        app.dispatcher.delete_file_handler(read_fd)
        os.close(read_fd)
        os.close(write_fd)

    def test_deleted_handler_does_not_fire(self, app):
        read_fd, write_fd = os.pipe()
        received = []
        app.dispatcher.create_file_handler(
            read_fd, lambda f: received.append(os.read(read_fd, 10)))
        app.dispatcher.delete_file_handler(read_fd)
        os.write(write_fd, b"x")
        app.update()
        assert received == []
        os.close(read_fd)
        os.close(write_fd)


class TestMainloop:
    def test_mainloop_until_condition(self, app):
        app.dispatcher.after(40, lambda: app.interp.eval("set done 1"))
        app.mainloop(until=lambda: app.interp.var_exists("done"))
        assert app.interp.eval("set done") == "1"

    def test_mainloop_exits_when_destroyed(self, app):
        app.dispatcher.after(10, lambda: app.destroy())
        app.mainloop()
        assert app.destroyed

    def test_mainloop_returns_when_nothing_pending(self, app):
        app.update()
        app.mainloop()   # nothing scheduled: must return, not hang


class TestUpdateEquivalence:
    """``update`` drains queued X events in its own loop; it must do
    exactly what ``while do_one_event(False)`` does."""

    SCRIPT = """
proc bgerror {msg} {note "bgerror $msg"}
frame .f -geometry 100x60
frame .g -geometry 100x60
pack append . .f {top} .g {top}
bind .f <Enter> {
    note enter-f
    after 0 {note after0}
    whenidle {
        note idle; .f configure -geometry 100x70; pack append . .b {top}
    }
}
bind .f <ButtonPress-1> {
    note press
    button .b -text hi
    bind .b <Expose> {note expose-b}
    bind .f <Expose> {note expose-f; destroy .}
}
bind .f <ButtonRelease-1> {note release; error boom}
bind .g <Enter> {note enter-g}
bind .g <Motion> {note motion-g}
"""

    @staticmethod
    def reference_update(app):
        processed = 0
        while app.dispatcher.do_one_event(False):
            processed += 1
            if processed > 100000:
                raise RuntimeError("update did not converge")
        return processed

    def run(self, drain):
        server = XServer()
        app = TkApp(server, name="equiv")
        log = []
        app.interp.register("note",
                            lambda interp, argv: log.append(argv[1]))
        app.interp.register("whenidle", lambda interp, argv:
                            app.dispatcher.when_idle(
                                lambda: interp.eval(argv[1])))
        app.interp.eval(self.SCRIPT)
        server.warp_pointer(900, 800)
        app.update()
        frames = app.display.transport.capture_wire()
        delivered, teardowns = [], []
        deliver, destroy = app.deliver_event, app.destroy

        def traced_deliver(event):
            window = app._windows_by_id.get(event.window)
            delivered.append((event.type, window and window.path))
            deliver(event)

        def counted_destroy():
            if not app.destroyed:
                teardowns.append((len(log), len(app.display.client.queue)))
            destroy()

        app.deliver_event, app.destroy = traced_deliver, counted_destroy
        fx, fy = app.window(".f").root_position()
        gx, gy = app.window(".g").root_position()
        server.warp_pointer(fx + 5, fy + 5)
        server.press_button(1)
        server.release_button(1)
        server.warp_pointer(gx + 5, gy + 5)
        server.warp_pointer(gx + 9, gy + 9)
        assert app.display.pending() >= 5
        processed = drain(app)
        return processed, log, delivered, teardowns, frames

    def test_same_handlers_count_and_teardown(self):
        drained = self.run(lambda app: app.update())
        reference = self.run(self.reference_update)
        assert drained == reference
        processed, log, delivered, teardowns, frames = drained
        assert processed > len(delivered) >= 5
        # The scenario reaches every part it is meant to exercise.
        assert log == ["enter-f", "press", "release", "bgerror boom",
                       "enter-g", "motion-g", "motion-g", "after0",
                       "idle", "expose-f"]
        # One teardown, with the Expose of .b still queued behind it.
        [(notes, queued)] = teardowns
        assert notes == len(log) and queued > 0
        assert frames

    @pytest.mark.parametrize("drain", ["update", "reference"])
    def test_same_convergence_guard(self, app, drain):
        runs = []

        def again():
            runs.append(1)
            app.dispatcher.when_idle(again)

        app.update()
        app.dispatcher.when_idle(again)
        with pytest.raises(RuntimeError, match="did not converge"):
            if drain == "update":
                app.update()
            else:
                self.reference_update(app)
        assert len(runs) == 100001
