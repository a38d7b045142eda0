"""Tests for send (paper section 6): inter-application RPC over the
shared display."""

import io

import pytest

from repro.tcl import TclError
from repro.tk import TkApp


class TestSendBasics:
    def test_send_evaluates_remotely(self, app, second_app):
        second_app.interp.eval("set remote-state 42")
        result = app.interp.eval("send peer set remote-state")
        assert result == "42"

    def test_send_returns_command_result(self, app, second_app):
        assert app.interp.eval("send peer expr 6*7") == "42"

    def test_send_empty_command(self, app, second_app):
        assert app.interp.eval('send peer ""') == ""

    def test_send_to_unknown_app_is_error(self, app):
        with pytest.raises(TclError, match="no registered interpreter"):
            app.interp.eval("send nobody set x 1")

    def test_send_propagates_remote_errors(self, app, second_app):
        with pytest.raises(TclError, match="boom"):
            app.interp.eval("send peer error boom")

    def test_send_to_self(self, app):
        app.interp.eval("set local 7")
        assert app.interp.eval("send %s set local" % app.name) == "7"

    def test_result_crosses_interpreter_boundary(self, app, second_app):
        """The sending app can use remote results in local commands."""
        second_app.interp.eval("proc half {n} {expr $n/2}")
        assert app.interp.eval("expr [send peer half 84]+1") == "43"


class TestSendPower:
    """Send gives access to *all* aspects of the remote application —
    interface and internals alike (paper section 6)."""

    def test_remote_widget_creation(self, app, second_app):
        app.interp.eval('send peer button .made-remotely -text hello')
        assert second_app.interp.eval(
            ".made-remotely cget -text") == "hello"

    def test_remote_widget_reconfiguration(self, app, second_app):
        second_app.interp.eval("button .b -text original")
        app.interp.eval("send peer .b configure -text changed")
        assert second_app.interp.eval(".b cget -text") == "changed"

    def test_remote_binding_installation(self, app, second_app):
        """An interface editor could rebind a live application."""
        second_app.interp.eval("frame .f -geometry 40x40")
        second_app.interp.eval("pack append . .f {top}")
        second_app.update()
        app.interp.eval("send peer {bind .f x {set hit 1}}")
        window = second_app.window(".f")
        second_app.server.press_key("x", window_id=window.id)
        second_app.update()
        assert second_app.interp.eval("set hit") == "1"

    def test_nested_send_round_trip(self, app, second_app):
        """B's script can send back to A while A waits (debugger and
        editor calling each other)."""
        app.interp.eval("set here original")
        second_app.interp.eval(
            'proc relay {target} {send $target set here relayed}')
        app.interp.eval("send peer relay %s" % app.name)
        assert app.interp.eval("set here") == "relayed"

    def test_remote_procedure_definition(self, app, second_app):
        app.interp.eval("send peer {proc twice {n} {expr $n*2}}")
        assert app.interp.eval("send peer twice 21") == "42"

    def test_many_sends_in_sequence(self, app, second_app):
        """The paint-with-the-mouse scenario: a stream of forwarded
        commands, each a full RPC round trip."""
        second_app.interp.eval("set points {}")
        for x in range(25):
            app.interp.eval("send peer lappend points %d" % x)
        assert second_app.interp.eval("llength $points") == "25"


class TestRegistry:
    def test_names_in_registry_property(self, app, second_app, server):
        """The registry lives in a property on the root window, visible
        to everyone."""
        atom = app.display.intern_atom("InterpRegistry")
        entry = app.display.get_property(app.display.root, atom)
        assert "test" in entry[1]
        assert "peer" in entry[1]

    def test_winfo_interps(self, app, second_app):
        names = app.interp.eval("winfo interps")
        assert "test" in names and "peer" in names

    def test_app_destruction_removes_registration(self, app, second_app):
        second_app.interp.eval("destroy .")
        assert "peer" not in app.interp.eval("winfo interps")
        with pytest.raises(TclError):
            app.interp.eval("send peer set x")


class TestThreeApps:
    def test_broadcast_pattern(self, server, app):
        """One coordinating tool driving several others."""
        workers = [TkApp(server, name="worker%d" % n) for n in range(3)]
        for worker in workers:
            worker.interp.stdout = io.StringIO()
        for n in range(3):
            app.interp.eval("send worker%d set assigned task-%d" % (n, n))
        for n, worker in enumerate(workers):
            assert worker.interp.eval("set assigned") == "task-%d" % n


# ----------------------------------------------------------------------
# traffic pins: a live send costs the protocol's own hops only
# ----------------------------------------------------------------------

#: registry read, target probe, request append, the receiver's read,
#: reply append, the sender's read
SEND_REQUESTS = ["get_property", "window_exists",
                 "batch", "change_property",
                 "get_property",
                 "batch", "change_property",
                 "get_property"]

#: ``send -async``: the lookup and the append, nothing else
ASYNC_REQUESTS = ["get_property", "window_exists",
                  "batch", "change_property"]


def _send_traffic(n_apps, transport, script):
    """(request names, round trips, bytes out, bytes in) of one send
    from "test" to "peer" with ``n_apps`` registered applications."""
    from repro.obs.journal import Journal
    from repro.x11 import XServer
    from repro.x11.transport import shutdown_host

    # Serials are per application and their digits cross the wire:
    # every measurement's sender is new, so byte counts compare.
    server = XServer()
    apps = []
    try:
        names = ["test", "peer"] + ["extra%d" % n
                                    for n in range(n_apps - 2)]
        for name in names:
            application = TkApp(server, name=name, transport=transport)
            application.interp.stdout = io.StringIO()
            apps.append(application)
        sender = apps[0]
        sender.interp.eval("send peer {set warm 1}")
        for application in apps:
            application.update()
        metrics = server.obs.metrics
        journal = server.attach_journal(
            Journal(clock=lambda: server.time_ms))

        def counts():
            return (server.round_trips,
                    metrics.total("x11.wire.bytes_out"),
                    metrics.total("x11.wire.bytes_in"))

        before = counts()
        sender.interp.eval(script)
        sender.display.flush()      # an async append may still be queued
        after = counts()
        names = [entry["name"] for entry in journal.entries()
                 if entry["k"] == "req"]
        return (names,) + tuple(new - old
                                for new, old in zip(after, before))
    finally:
        for application in apps:
            application.destroy()
        shutdown_host(server)


class TestSendTraffic:
    """A live send makes only the protocol's own server hops: 8
    requests and 4 round trips, whatever the registry size or the
    transport.  Liveness probes of other entries belong to failed
    lookups and ``winfo interps``."""

    @pytest.mark.parametrize("transport", ["loopback", "socket"])
    @pytest.mark.parametrize("n_apps", [2, 6])
    def test_send_costs_eight_requests_four_round_trips(
            self, n_apps, transport):
        names, round_trips, _, _ = _send_traffic(
            n_apps, transport, "send peer {set x 1}")
        assert names == SEND_REQUESTS
        assert round_trips == 4

    @pytest.mark.parametrize("n_apps", [2, 6])
    def test_transports_carry_identical_traffic(self, n_apps):
        script = "send peer {set x 1}"
        assert _send_traffic(n_apps, "loopback", script) == \
            _send_traffic(n_apps, "socket", script)

    @pytest.mark.parametrize("transport", ["loopback", "socket"])
    @pytest.mark.parametrize("n_apps", [2, 6])
    def test_async_send_costs_lookup_and_append(self, n_apps, transport):
        names, round_trips, _, _ = _send_traffic(
            n_apps, transport, "send -async peer {set x 1}")
        assert names == ASYNC_REQUESTS
        assert round_trips == 2
