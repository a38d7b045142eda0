"""Tests for the deterministic fault-injection layer (repro.x11.faults)."""

import pytest

from repro.x11 import (Display, FaultPlan, XConnectionLost,
                       XProtocolError, XServer)
from repro.x11 import events as ev
from repro.x11.faults import DELAY, DISCONNECT, DROP, ERROR
from repro.x11.transport import shutdown_host


@pytest.fixture
def server():
    return XServer()


@pytest.fixture
def display(server):
    return Display(server)


class TestScriptedRequestFaults:
    def test_fail_named_request(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        plan = server.install_fault_plan(FaultPlan())
        plan.fail_request("get_geometry", error="BadAtom")
        with pytest.raises(XProtocolError, match="BadAtom"):
            display.get_geometry(win)
        # One-shot: the next identical request succeeds.
        assert display.get_geometry(win)[2] == 10
        assert plan.counters[ERROR] == 1

    def test_fail_any_request(self, server, display):
        plan = server.install_fault_plan(FaultPlan())
        plan.fail_request(error="BadWindow")
        with pytest.raises(XProtocolError, match="BadWindow"):
            display.intern_atom("ANYTHING")

    def test_after_skips_matching_requests(self, server, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        plan = server.install_fault_plan(FaultPlan())
        plan.fail_request("get_geometry", after=2)
        display.get_geometry(win)
        display.get_geometry(win)
        with pytest.raises(XProtocolError):
            display.get_geometry(win)

    def test_injection_is_logged(self, server, display):
        plan = server.install_fault_plan(FaultPlan())
        plan.fail_request("intern_atom", error="BadProperty")
        with pytest.raises(XProtocolError):
            display.intern_atom("X")
        assert any(kind == ERROR and "BadProperty" in detail
                   for _, kind, detail in plan.log)

    def test_call_on_request_runs_callback(self, server, display):
        plan = server.install_fault_plan(FaultPlan())
        seen = []
        plan.call_on_request(lambda srv: seen.append(srv.time_ms),
                             name="intern_atom")
        display.intern_atom("X")
        assert len(seen) == 1

    def test_disconnect_client_destroys_its_windows(self, server):
        victim = Display(server)
        win = victim.create_window(victim.root, 0, 0, 10, 10)
        other = Display(server)
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(victim.client, on_request="intern_atom")
        other.intern_atom("TRIGGER")
        assert victim.client.closed
        assert not server.window_exists(win)
        assert plan.counters[DISCONNECT] == 1


class TestScriptedEventFaults:
    def _watched_window(self, server):
        maker = Display(server)
        watcher = Display(server)
        win = maker.create_window(maker.root, 0, 0, 10, 10)
        watcher.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        return maker, watcher, win

    def test_drop_event(self, server):
        maker, watcher, win = self._watched_window(server)
        plan = server.install_fault_plan(FaultPlan())
        plan.drop_events(1, event_type=ev.CONFIGURE_NOTIFY)
        maker.configure_window(win, width=50)
        assert watcher.pending() == 0
        assert plan.counters[DROP] == 1
        maker.configure_window(win, width=60)
        assert watcher.pending() == 1

    def test_delay_event_released_after_time_passes(self, server):
        maker, watcher, win = self._watched_window(server)
        plan = server.install_fault_plan(FaultPlan())
        plan.delay_events(1, delay_ms=5, event_type=ev.CONFIGURE_NOTIFY)
        maker.configure_window(win, width=50)
        assert watcher.pending() == 0
        assert plan.held_count() == 1
        for _ in range(6):
            server.idle_tick()
        assert plan.held_count() == 0
        assert watcher.pending() == 1
        event = watcher.next_event()
        assert event.type == ev.CONFIGURE_NOTIFY and event.width == 50

    def test_delayed_events_for_disconnected_client_are_forgotten(
            self, server):
        maker, watcher, win = self._watched_window(server)
        plan = server.install_fault_plan(FaultPlan())
        plan.delay_events(1, delay_ms=5, event_type=ev.CONFIGURE_NOTIFY)
        maker.configure_window(win, width=50)
        assert plan.held_count() == 1
        watcher.close()
        assert plan.held_count() == 0


class TestSeededSchedule:
    def _workload(self, seed, rounds=60):
        server = XServer()
        display = Display(server)
        windows = [display.create_window(display.root, 0, 0, 10, 10)
                   for _ in range(3)]
        display.select_input(windows[0], ev.STRUCTURE_NOTIFY_MASK)
        plan = server.install_fault_plan(
            FaultPlan(seed=seed, error_rate=0.2, drop_rate=0.2))
        errors = 0
        for i in range(rounds):
            try:
                display.configure_window(windows[i % 3],
                                         width=20 + i)
            except XProtocolError:
                errors += 1
        return plan, errors

    def test_same_seed_same_faults(self):
        plan_a, errors_a = self._workload(seed=42)
        plan_b, errors_b = self._workload(seed=42)
        assert plan_a.log == plan_b.log
        assert errors_a == errors_b
        assert plan_a.total_injected > 0

    def test_different_seed_different_faults(self):
        plan_a, _ = self._workload(seed=1)
        plan_b, _ = self._workload(seed=2)
        assert plan_a.log != plan_b.log

    def test_max_faults_caps_injection(self):
        server = XServer()
        display = Display(server)
        plan = server.install_fault_plan(
            FaultPlan(seed=0, error_rate=1.0, max_faults=2))
        for _ in range(10):
            try:
                display.intern_atom("X")
            except XProtocolError:
                pass
        assert plan.total_injected == 2

    def test_exempt_requests_are_safe(self):
        server = XServer()
        display = Display(server)
        server.install_fault_plan(
            FaultPlan(seed=0, error_rate=1.0,
                      exempt_requests=("intern_atom",)))
        for _ in range(5):
            display.intern_atom("SAFE")     # never raises

    def test_clear_fault_plan_stops_injection(self):
        server = XServer()
        display = Display(server)
        server.install_fault_plan(FaultPlan(seed=0, error_rate=1.0))
        with pytest.raises(XProtocolError):
            display.intern_atom("X")
        server.clear_fault_plan()
        display.intern_atom("X")


class TestSpecRoundTrip:
    def test_spec_preserves_rates_and_schedule(self):
        plan = FaultPlan(seed=9, error_rate=0.01, drop_rate=0.002,
                         delay_rate=0.005, delay_ms=40, max_faults=6,
                         warmup=25)
        plan.fail_request("get_geometry", error="BadAtom", after=3,
                          count=2)
        plan.disconnect_client(2, after=10)
        plan.drop_events(count=3)
        spec = plan.to_spec()
        rebuilt = FaultPlan.from_spec(spec)
        assert rebuilt.to_spec() == spec
        assert rebuilt.seed == 9
        assert rebuilt.warmup == 25
        assert rebuilt.max_faults == 6

    def test_rebuilt_plan_fires_identically(self):
        def drive(plan):
            server = XServer()
            display = Display(server)
            server.install_fault_plan(plan)
            errors = 0
            for index in range(80):
                try:
                    display.intern_atom("A%d" % index)
                except XProtocolError:
                    errors += 1
            return plan.log, errors

        original = FaultPlan(seed=5, error_rate=0.2, max_faults=4,
                             warmup=10)
        log_a, errors_a = drive(original)
        log_b, errors_b = drive(FaultPlan.from_spec(original.to_spec()))
        assert log_a == log_b
        assert errors_a == errors_b

    def test_call_triggers_are_reported_not_serialized(self):
        plan = FaultPlan()
        plan.call_on_request(lambda server: None)
        spec = plan.to_spec()
        assert spec["dropped_call_triggers"] == 1
        assert "request_triggers" not in spec


class TestWarmup:
    def test_seeded_faults_hold_off_during_warmup(self):
        server = XServer()
        display = Display(server)
        plan = server.install_fault_plan(
            FaultPlan(seed=0, error_rate=1.0, warmup=5))
        for _ in range(5):
            display.intern_atom("SAFE")     # inside warmup: no faults
        with pytest.raises(XProtocolError):
            display.intern_atom("HOT")
        assert plan.counters[ERROR] == 1

    def test_scripted_triggers_ignore_warmup(self):
        # Scripted triggers schedule with their own `after`; warmup
        # only silences the seeded background rates.
        server = XServer()
        display = Display(server)
        plan = server.install_fault_plan(FaultPlan(warmup=100))
        plan.fail_request("intern_atom", error="BadAtom")
        with pytest.raises(XProtocolError, match="BadAtom"):
            display.intern_atom("X")


class TestCloseDownScrub:
    """Satellite regression: a scripted disconnect can fire during a
    request's own tick — after close-down ran but before the request
    body executed — and the body then re-registers state for the dead
    client.  The server must scrub it on every exit path, or the fuzz
    census oracle reports a close-leak that no application caused.
    """

    def _assert_clean(self, server, number):
        bucket = server.resource_census().get(number)
        if bucket is None:
            return
        assert bucket["closed"]
        for field in ("windows", "resources", "properties",
                      "selections", "event_selections", "atoms"):
            assert not bucket[field], (field, bucket[field])

    def test_select_input_tick_disconnect_batch_path(self, server):
        display = Display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.flush()
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(display.client,
                               on_request="select_input")
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.map_window(win)
        with pytest.raises(XConnectionLost):
            display.flush()
        assert display.client.closed
        self._assert_clean(server, display.client.number)

    def test_selection_claim_does_not_outlive_disconnect(self, server):
        display = Display(server, buffering_enabled=True)
        win = display.create_window(display.root, 0, 0, 10, 10)
        atom = display.intern_atom("PRIMARY")
        display.flush()
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(display.client,
                               on_request="set_selection_owner")
        display.set_selection_owner(atom, win)
        display.map_window(win)
        with pytest.raises(XConnectionLost):
            display.flush()
        assert atom not in server.selections
        self._assert_clean(server, display.client.number)

    def test_create_window_tick_disconnect_sync_path(self, server):
        display = Display(server)
        plan = server.install_fault_plan(FaultPlan())
        plan.disconnect_client(display.client,
                               on_request="create_window")
        win = display.create_window(display.root, 0, 0, 10, 10)
        assert display.client.closed
        # the window the doomed request created was scrubbed with it
        assert not server.window_exists(win)
        self._assert_clean(server, display.client.number)

    @pytest.mark.parametrize("transport", ["loopback", "socket"])
    @pytest.mark.parametrize("path", ["batch", "oneway", "reply"])
    def test_request_failing_at_its_own_disconnect_tick(self, server,
                                                        transport, path):
        """A request whose own tick closes its connection, and which
        then fails on the client's destroyed windows, raises
        XConnectionLost (not BadWindow) and leaves the Display closed
        on both transports."""
        display = Display(server, buffering_enabled=path == "batch",
                          transport=transport)
        try:
            win = display.create_window(display.root, 0, 0, 10, 10)
            display.flush()
            name = "get_geometry" if path == "reply" else "map_window"
            plan = server.install_fault_plan(FaultPlan())
            plan.disconnect_client(display.client.number, on_request=name)
            with pytest.raises(XConnectionLost):
                if path == "reply":
                    display.get_geometry(win)
                else:
                    display.map_window(win)
                    display.flush()
            assert display.closed
            self._assert_clean(server, display.client.number)
        finally:
            shutdown_host(server)

    def test_scrub_is_idempotent_and_guarded(self, server):
        display = Display(server)
        display.create_window(display.root, 0, 0, 10, 10)
        # not closed: a stray call must not touch a live client
        server._scrub_closed(display.client)
        assert server.resource_census()[display.client.number]["windows"]
        display.close()
        server._scrub_closed(display.client)
        server._scrub_closed(display.client)
        self._assert_clean(server, display.client.number)
