"""The send fault matrix: every way a ``send`` can go wrong, and the
crash-safe behaviour required for each (clean TclError in bounded time,
registry scrubbing, error propagation, a surviving event loop)."""

import io

import pytest

from repro.tcl import TclError
from repro.tk import TkApp, pump_all
from repro.x11 import FaultPlan
from repro.x11 import events as ev


class TestUnknownAndDeadTargets:
    def test_unknown_target(self, app):
        with pytest.raises(TclError, match="no registered interpreter"):
            app.interp.eval("send nobody set x 1")

    def test_target_destroyed_before_send(self, app, second_app):
        second_app.destroy()
        with pytest.raises(TclError, match="no registered interpreter"):
            app.interp.eval("send peer set x 1")

    def test_crashed_target_fails_fast(self, app, second_app, server):
        """A peer that dies without unregistering (connection drop, no
        teardown) is detected by the scrub, not by a timeout."""
        second_app.display.close()      # crash: no unregister ran
        start = server.time_ms
        with pytest.raises(TclError, match="no registered interpreter"):
            app.interp.eval("send peer set x 1")
        # Fail-fast: a handful of probe round trips, nowhere near the
        # send timeout (let alone the old 10,000-round busy-wait).
        assert server.time_ms - start < 50

    def test_target_dies_mid_send(self, app, second_app, server):
        """The target crashes after the request is delivered but before
        it can reply: the sender gets a clean error in bounded time."""
        plan = server.install_fault_plan(FaultPlan())
        # The target's first server call while servicing the request is
        # reading its Comm property; kill it right there.  (The
        # sender's own registry read is the first get_property.)
        plan.call_on_request(lambda srv: second_app.destroy(),
                             name="get_property", after=1)
        start = server.time_ms
        with pytest.raises(TclError, match="target application died"):
            app.interp.eval("send peer set x 1")
        assert server.time_ms - start < 200
        # The sender's own event loop keeps dispatching afterwards.
        server.clear_fault_plan()
        app.interp.eval("after 5 {set alive 1}")
        app.server.time_ms += 10
        app.update()
        assert app.interp.eval("set alive") == "1"

    def test_target_dies_mid_send_while_a_third_app_spins(
            self, app, second_app, server):
        """A third application that re-arms ``after 0`` forever keeps
        the system busy without issuing a request, so neither idle
        detection nor the virtual clock can end the wait; the per-round
        probe after ``idle_grace`` rounds still does."""
        spinner = TkApp(server, name="spinner")
        spinner.interp.stdout = io.StringIO()
        spinner.interp.eval("proc spin {} {after 0 spin}; spin")
        plan = server.install_fault_plan(FaultPlan())
        plan.call_on_request(lambda srv: second_app.destroy(),
                             name="get_property", after=1)
        start = server.time_ms
        with pytest.raises(TclError, match="target application died"):
            app.interp.eval("send peer set x 1")
        assert server.time_ms - start < 50

    def test_registry_scrubbed_by_winfo_interps(self, app, second_app):
        second_app.display.close()      # crash-like exit
        names = app.interp.eval("winfo interps")
        assert "peer" not in names
        assert "test" in names
        # The root-window property itself was rewritten, so every
        # other application sees the scrubbed registry too.
        atom = app.display.intern_atom("InterpRegistry")
        entry = app.display.get_property(app.display.root, atom)
        assert "peer" not in entry[1]

    def test_crashed_name_is_reclaimed(self, app, second_app, server):
        """Restarting a crashed "peer" gets the bare name back instead
        of "peer #2"."""
        second_app.display.close()
        restarted = TkApp(server, name="peer")
        restarted.interp.stdout = io.StringIO()
        assert restarted.name == "peer"


class TestLostAndLateMessages:
    def test_dropped_request_times_out_bounded(self, app, second_app,
                                               server):
        plan = server.install_fault_plan(FaultPlan())
        plan.drop_events(1, event_type=ev.PROPERTY_NOTIFY)
        start = server.time_ms
        with pytest.raises(TclError, match="timed out"):
            app.interp.eval("send peer set x 1")
        # Early idle detection, far below the full timeout budget.
        assert server.time_ms - start < app.sender.timeout_ms

    def test_timeout_is_configurable(self, app, second_app, server):
        plan = server.install_fault_plan(FaultPlan())
        plan.drop_events(1, event_type=ev.PROPERTY_NOTIFY)
        app.sender.timeout_ms = 100
        app.sender.idle_grace = 10**9   # force the deadline path
        start = server.time_ms
        with pytest.raises(TclError, match="timed out"):
            app.interp.eval("send peer set x 1")
        assert server.time_ms - start <= 150

    def test_delayed_request_still_completes(self, app, second_app,
                                             server):
        """A late message is a delay, not a failure: the wait loop
        advances the virtual clock until the event is released."""
        plan = server.install_fault_plan(FaultPlan())
        plan.delay_events(1, delay_ms=30,
                          event_type=ev.PROPERTY_NOTIFY)
        second_app.interp.eval("set remote 99")
        assert app.interp.eval("send peer set remote") == "99"
        assert plan.counters["delay"] == 1


    @pytest.mark.parametrize("delay_ms", [149, 150])
    def test_delay_longer_than_idle_grace_still_completes(
            self, app, second_app, server, delay_ms):
        """The wait idles past ``idle_grace`` rounds while the request
        is held; the round whose clock tick releases it must pump it,
        not give up because nothing is held any more.  Both parities of
        the release tick (a probe's or an idle tick) are covered."""
        plan = server.install_fault_plan(FaultPlan())
        plan.delay_events(1, delay_ms=delay_ms,
                          event_type=ev.PROPERTY_NOTIFY)
        second_app.interp.eval("set remote 99")
        assert app.interp.eval("send peer set remote") == "99"


class TestErrorPropagation:
    def test_error_info_crosses_interpreters(self, app, second_app):
        second_app.interp.eval("proc deep {} {error kapow}")
        with pytest.raises(TclError, match="kapow"):
            app.interp.eval_top("send peer deep")
        info = app.interp.get_global_var("errorInfo")
        assert "kapow" in info
        assert '("send" to interpreter "peer")' in info

    def test_python_error_becomes_error_reply(self, app, second_app):
        """A Python-level bug in a sent script must come back as an
        error reply, never kill the target's event loop."""
        def native_bug(interp, argv):
            raise RuntimeError("native bug")
        second_app.interp.register("pyboom", native_bug)
        with pytest.raises(TclError, match="RuntimeError: native bug"):
            app.interp.eval("send peer pyboom")
        # The target survived and still services sends.
        second_app.interp.eval("set alive 1")
        assert app.interp.eval("send peer set alive") == "1"

    def test_x_protocol_error_in_sent_script_is_reported(
            self, app, second_app, server):
        """An injected X error while servicing a send becomes an error
        reply to the sender, not a dead target."""
        plan = server.install_fault_plan(FaultPlan())
        plan.fail_request("create_window", error="BadWindow")
        with pytest.raises(TclError, match="BadWindow"):
            app.interp.eval("send peer {button .made-remotely}")
        server.clear_fault_plan()
        assert app.interp.eval("send peer set done 1") == "1"


class TestReentrancy:
    def test_self_send(self, app):
        app.interp.eval("set local 7")
        assert app.interp.eval("send %s set local" % app.name) == "7"

    def test_nested_send_a_b_a(self, app, second_app):
        """A sends to B while B's handler sends back to A: both waits
        are outstanding at once and both complete."""
        app.interp.eval("set here original")
        second_app.interp.eval(
            'proc relay {target} {send $target set here relayed}')
        assert app.interp.eval(
            "send peer relay %s" % app.name) == "relayed"
        assert app.interp.eval("set here") == "relayed"

    def test_nested_send_with_faulty_inner_target(self, app, second_app,
                                                  server):
        """The inner send of a nested pair fails cleanly without
        poisoning the outer send."""
        second_app.interp.eval(
            "proc relay {} {catch {send nobody set x 1} msg\n"
            "return $msg}")
        result = app.interp.eval("send peer relay")
        assert "no registered interpreter" in result


class TestAsyncSend:
    def test_async_send_returns_immediately(self, app, second_app,
                                            server):
        assert app.interp.eval("send -async peer set x 5") == ""
        pump_all(server)
        assert second_app.interp.eval("set x") == "5"

    def test_async_error_stays_remote(self, app, second_app, server):
        app.interp.eval("send -async peer {error remote-only}")
        pump_all(server)    # must not raise in the sender
        second_app.interp.eval("set alive 1")
        assert app.interp.eval("send peer set alive") == "1"

    def test_bad_send_option_is_error(self, app):
        with pytest.raises(TclError, match="bad option"):
            app.interp.eval("send -bogus peer set x 1")


class TestTeardownHygiene:
    def test_normal_exit_unregisters(self, app, second_app, server):
        comm = second_app.sender.comm_window
        second_app.destroy()
        assert "peer" not in app.sender.application_names()
        # The comm window is gone too, not just the registry entry.
        assert not server.window_exists(comm)

    def test_double_destroy_is_harmless(self, app, second_app):
        second_app.destroy()
        second_app.destroy()
        assert "peer" not in app.sender.application_names()


class TestLostConnection:
    """Satellite fix: a fault-injected disconnect must surface, not
    leave the event loop spinning on a silently-dead display."""

    def test_closed_display_raises_from_pending(self, app, server):
        from repro.x11 import XConnectionLost
        server.disconnect(app.display.client)
        with pytest.raises(XConnectionLost):
            app.display.pending()
        with pytest.raises(XConnectionLost):
            app.display.next_event()

    def test_disconnect_reported_through_bgerror(self, app, server):
        """The dispatcher reports the lost connection once via bgerror
        and tears the application down — it does not spin."""
        app.interp.eval("proc bgerror {msg} {global reported; "
                        "set reported $msg}")
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(app.display.client,
                               on_request="configure_window")
        app.interp.eval("frame .f -geometry 20x20")
        app.interp.eval("pack append . .f {top}")
        app.update()                   # delivers the fatal batch
        assert app.destroyed
        assert "lost" in app.interp.eval("set reported")

    def test_update_terminates_after_disconnect(self, app, server):
        """Regression for the spin: update() must converge once the
        display is gone, even with no bgerror handler defined."""
        server.disconnect(app.display.client)
        app.update()                   # must return, not raise or spin
        assert app.destroyed

    def test_send_to_peer_after_own_disconnect_is_clean(
            self, app, second_app, server):
        server.disconnect(app.display.client)
        with pytest.raises(TclError, match="connection"):
            app.interp.eval("send peer set x 1")
