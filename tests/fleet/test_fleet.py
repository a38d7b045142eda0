"""Tests for the fleet load generator (repro.fleet)."""

import gc
from collections import deque
from dataclasses import replace

import pytest

from repro.fleet import (DEFAULT_SLOS, SLO, FleetDriver, FleetSession,
                         SessionSpec, check_slos, format_slos, format_top,
                         make_slow_spec)
from repro.fleet.__main__ import build_specs, corpus_journals
from repro.fleet.driver import solo
from repro.fuzz.gen import generate_scenario
from repro.fuzz.runner import run_scenario
from repro.obs.journal import Journal
from repro.obs.replay import replay_journal
from repro.x11 import VirtualClock, XServer

SETUP = "set pings 0\nproc bgerror msg {}\n"


def simple_spec(name, updates=3):
    return SessionSpec([("update", [name])] * updates,
                       setup_script=SETUP, name=name,
                       source="test:" + name)


class TestVirtualClock:
    def test_servers_share_one_timeline(self):
        clock = VirtualClock()
        first = XServer(clock=clock)
        second = XServer(clock=clock)
        before = second.time_ms
        first.idle_tick()
        assert second.time_ms == before + 1
        assert first.time_ms == second.time_ms

    def test_default_server_owns_a_private_clock(self):
        first = XServer()
        second = XServer()
        first.idle_tick()
        assert first.time_ms != second.time_ms


class TestDoEvents:
    def test_budget_bounds_processed_events(self):
        import io

        from repro.tk import TkApp
        server = XServer()
        app = TkApp(server, name="budget")
        app.interp.stdout = io.StringIO()
        app.interp.eval("label .l -text hi\npack append . .l {top}")
        processed = app.dispatcher.do_events(1)
        assert processed <= 1
        # draining with a huge budget must terminate below it
        assert app.dispatcher.do_events(10000) < 10000
        assert app.dispatcher.do_events(5) == 0


class TestSessionSpec:
    def test_from_seed_is_a_fuzz_scenario(self):
        spec = generate_scenario(17)
        assert isinstance(spec, SessionSpec)
        assert spec.steps
        assert spec.source == "seed:17"

    def test_from_journal_reads_header(self):
        spec = SessionSpec.from_journal("examples/golden.journal")
        assert spec.name == "golden"
        assert spec.steps
        assert spec.source == "examples/golden.journal"

    def test_solo_rules(self):
        assert not solo(simple_spec("a"))
        faulted = SessionSpec([], fault_spec={"seed": 1}, name="f")
        assert solo(faulted)
        multi = SessionSpec([("new_app", ["peer", ""])], name="m")
        assert solo(multi)
        recording = SessionSpec([], name="r", record_path="/tmp/x.journal")
        assert solo(recording)

    def test_planted_bugs_never_armed(self, tmp_path):
        """The spec keeps the journal's planted bug, but the fleet runs
        the shipping code: a recording fleet session built from it
        neither arms the plant nor claims it in its header."""
        path = tmp_path / "planted.journal"
        journal = Journal()
        journal.set_header(SessionSpec(name="p", planted="registry_leak"))
        journal.input("update", ["p"])
        journal.save(str(path))
        spec = SessionSpec.from_journal(str(path))
        assert spec.planted == "registry_leak"
        record = str(tmp_path / "fleet.journal")
        session = FleetSession("s000", replace(spec, record_path=record),
                               XServer())
        session.launch()
        while session.step():
            pass
        session.finish()
        header = Journal.load(record).meta
        assert "planted" not in header
        assert header == replace(spec, planted=None).header()

    def test_malformed_journal_flags_refuse_the_spec(self, tmp_path,
                                                      capsys):
        from repro.fleet.__main__ import main
        path = tmp_path / "bad.journal"
        journal = Journal()
        journal.set_header(SessionSpec(name="bad"))
        journal.meta["flags"]["vm_enabled"] = False
        journal.save(str(path))
        with pytest.raises(ValueError, match="vm_enabled"):
            SessionSpec.from_journal(str(path))
        assert main(["--journal", str(path), "--sessions", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "vm_enabled" in err


class TestDriver:
    def test_sessions_complete_and_roll_up(self):
        specs = [simple_spec("app%d" % index) for index in range(3)]
        result = FleetDriver(specs, seed=1, ping_every=0).run()
        summary = result.summary()
        assert summary["sessions"] == 3
        assert summary["completed"] == 3
        assert summary["faulted"] == 0
        assert summary["steps"] == 9
        assert summary["dispatch_ms"]["count"] == 9
        assert "FLEET: 3 sessions" in result.report()

    def test_cells_pack_to_cell_size_and_solo_isolates(self):
        specs = [simple_spec("app%d" % index) for index in range(5)]
        specs.insert(2, SessionSpec([], fault_spec={"seed": 1}, name="f"))
        driver = FleetDriver(specs, cell_size=4, ping_every=0)
        driver.launch()
        sizes = sorted(len(cell) for cell in driver.cells)
        assert sizes == [1, 1, 4]
        solo_cell = next(cell for cell in driver.cells
                         if cell[0].spec.name == "f")
        assert len(solo_cell) == 1

    def test_same_seed_runs_are_bit_identical(self):
        def run():
            specs = build_specs(6, 11, ["examples/golden.journal"])
            return FleetDriver(specs, seed=11).run()

        first, second = run(), run()
        assert dict(first.registry.snapshot()) == \
            dict(second.registry.snapshot())
        assert first.summary()["virtual_ms"] == \
            second.summary()["virtual_ms"]

    def test_same_seed_runs_ignore_other_applications_sends(self):
        """A send's serial crosses the wire in decimal, so serials
        shared by the whole process would make a session's bytes
        depend on sends other applications made before it.  Between two
        same-seed runs another application sends until its serials
        gain a digit (its per-send bytes grow): had it shared the
        counter, the second run's sends would all be a digit longer."""
        from repro.tk import TkApp

        def wire_bytes():
            specs = build_specs(6, 11, ["examples/golden.journal"])
            registry = FleetDriver(specs, seed=11).run().registry
            return {name: value for name, value
                    in dict(registry.snapshot()).items()
                    if name.startswith("x11.wire.bytes_")}

        first = wire_bytes()
        server = XServer()
        apps = [TkApp(server, name=name) for name in ("other", "peer")]
        metrics = server.obs.metrics

        def send_bytes():
            before = metrics.total("x11.wire.bytes_out")
            apps[0].interp.eval("send peer {set x 1}")
            return metrics.total("x11.wire.bytes_out") - before

        base = send_bytes()
        for _ in range(100000):
            if send_bytes() > base:
                break
        else:
            pytest.fail("send serials never gained a digit")
        for app in apps:
            app.destroy()
        assert wire_bytes() == first

    def test_session_gauges_reach_terminal_states(self):
        specs = [simple_spec("app0"),
                 generate_scenario(5000032)]
        result = FleetDriver(specs, ping_every=0).run()
        registry = result.registry
        assert registry.value("fleet.sessions", state="active") == 0
        assert (registry.value("fleet.sessions", state="completed")
                + registry.value("fleet.sessions", state="faulted")) == 2


class TestSocketSessions:
    """Socket-backed sessions ride the fleet like any other: they share
    cells, complete, and leave per-client wire counters on the cell's
    server registry (excluded from the per-session rollup)."""

    def _socket_spec(self, name):
        steps = [("eval", ["button .b -text hi", name]),
                 ("update", [name]),
                 ("warp_pointer", [20, 20]),
                 ("press_button", [1]),
                 ("update", [name])]
        return SessionSpec(steps, setup_script=SETUP, name=name,
                           transport="socket", source="test:" + name)

    def test_socket_sessions_complete_in_shared_cell(self):
        specs = [self._socket_spec("s0"), self._socket_spec("s1"),
                 simple_spec("s2")]
        driver = FleetDriver(specs, cell_size=4, seed=3, ping_every=0)
        result = driver.run()
        assert result.summary()["completed"] == 3
        assert result.summary()["cells"] == 1
        # the host thread was stopped before the rollup
        assert getattr(driver.servers[0], "_wire_host", None) is None
        # wire bytes were counted per client on the cell's server
        server_registry = driver.servers[0].obs.metrics
        assert server_registry.total("x11.wire.bytes_out") > 0
        assert server_registry.total("x11.wire.bytes_in") > 0

    def test_transport_choice_does_not_change_session_metrics(self):
        def run(transport):
            steps = [("eval", ["label .l -text x", "s"]),
                     ("update", ["s"]),
                     ("eval", ["pack append . .l {top}", "s"]),
                     ("update", ["s"])]
            spec = SessionSpec(steps, setup_script=SETUP, name="s",
                               transport=transport)
            result = FleetDriver([spec], seed=7, ping_every=0).run()
            summary = result.summary()
            return (summary["steps"], summary["events"],
                    summary["errors"], summary["x11_requests"],
                    summary["virtual_ms"])

        assert run(None) == run("socket")


class TestCrossSessionSend:
    """Satellite: send RPCs between fleet sessions land their metrics
    in the *sender's* per-session registry."""

    def _run(self):
        receiver = simple_spec("alpha", updates=3)
        sender = SessionSpec(
            [("eval", ["send {alpha} {incr pings}", "beta"]),
             ("eval", ["send {alpha} {incr pings}", "beta"]),
             ("update", ["beta"])],
            setup_script=SETUP, name="beta", source="test:beta")
        driver = FleetDriver([receiver, sender], ping_every=0)
        return driver.run(), driver

    def test_rpcs_attributed_to_sender(self):
        result, driver = self._run()
        alpha, beta = driver.sessions
        assert beta.metrics.value("send.rpcs") == 2
        assert alpha.metrics.value("send.rpcs") == 0
        # the wait cost (virtual ms burned in the handshake) is the
        # sender's too, recorded in its send.wait_ms histogram
        assert beta.metrics.value("send.wait_ms") == 2
        assert alpha.metrics.value("send.wait_ms") == 0

    def test_rollup_keeps_per_session_series(self):
        result, driver = self._run()
        registry = result.registry
        assert registry.value("send.rpcs", session="s001") == 2
        assert registry.value("send.rpcs", session="s000") == 0
        assert result.summary()["send_rpcs"] == 2

    def test_driver_pings_count_as_send_traffic(self):
        specs = [simple_spec("app%d" % index, updates=6)
                 for index in range(3)]
        result = FleetDriver(specs, ping_every=1, seed=3).run()
        summary = result.summary()
        assert summary["pings"] > 0
        assert summary["send_rpcs"] >= summary["pings"]


class TestSlowSession:
    def test_outlier_tops_report_and_replays(self, tmp_path):
        path = str(tmp_path / "slow.journal")
        specs = [simple_spec("app%d" % index) for index in range(4)]
        specs.append(make_slow_spec(path, sends=3))
        result = FleetDriver(specs, ping_every=0).run()
        top = result.top_slowest(3)
        assert top[0]["source"] == path
        assert top[0]["status"] == "faulted"
        assert top[0]["virtual_ms"] > top[1]["virtual_ms"]
        assert path in format_top(result.sessions, 3)
        replayed = replay_journal(Journal.load(path))
        assert replayed.matched

    def test_replay_follows_the_shared_clock(self, tmp_path):
        """Other cells move the shared clock between the slow session's
        inputs.  The recording journals each jump (relative to its
        launch), so the standalone replay releases the fault-held
        events at the same points: it matches, and its timeline is the
        recording's shifted by the launch time.  (Seeds 100-107 with a
        149 ms delay diverged before the jumps were journaled.)"""
        path = str(tmp_path / "slow.journal")
        specs = [generate_scenario(100 + index) for index in range(8)]
        specs.append(make_slow_spec(path, delay_ms=149))
        FleetDriver(specs, ping_every=4, seed=1).run()
        recorded = Journal.load(path)
        replayed = replay_journal(recorded)
        assert replayed.matched, replayed.report()
        advances = [entry for entry in recorded.entries()
                    if entry["k"] == "input" and entry["name"] == "advance"]
        assert advances
        offsets = {mine["t"] - theirs["t"] for mine, theirs
                   in zip(recorded.entries(), replayed.replay_log.entries())
                   if mine not in advances}
        assert len(offsets) == 1

    def test_faulted_sessions_counted(self, tmp_path):
        path = str(tmp_path / "slow.journal")
        result = FleetDriver([make_slow_spec(path, sends=2)],
                             ping_every=0).run()
        summary = result.summary()
        assert summary["faulted"] == 1
        assert summary["faults_injected"] > 0


class TestExecutorEquivalence:
    """A recording solo fleet session and the fuzz runner drive the
    same inputs through the same executor, so their journals -- header
    included -- are byte-identical.  Seeds 0-9 cover fault plans
    (0, 2, 5, 6), ablation flags (2, 4, 6-9) and multi-app steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_recording_fleet_session_matches_fuzz_journal(self, seed,
                                                          tmp_path):
        fuzz = run_scenario(generate_scenario(seed), check_replay=False)
        assert fuzz.steps_run == len(fuzz.spec.steps)
        path = str(tmp_path / "fleet.journal")
        spec = replace(generate_scenario(seed), record_path=path)
        session = FleetSession("s000", spec, XServer())
        session.launch()
        while session.step():
            pass
        session.finish()
        with open(path) as handle:
            assert handle.read() == fuzz.journal.to_jsonl()


class TestSLOs:
    def test_bounds(self):
        summary = {"dispatch_ms": {"p95": 40}, "events_per_sec": 500.0}
        assert SLO("dispatch_ms.p95", most=50).evaluate(summary)["ok"]
        assert not SLO("dispatch_ms.p95", most=39).evaluate(summary)["ok"]
        assert SLO("events_per_sec", least=100).evaluate(summary)["ok"]
        assert not SLO("events_per_sec",
                       least=501).evaluate(summary)["ok"]

    def test_missing_key_is_a_violation(self):
        row = SLO("no.such.key", least=1).evaluate({})
        assert row["ok"] is False
        assert row["value"] is None

    def test_format_marks_violations(self):
        rows = check_slos({"dispatch_ms": {}}, slos=DEFAULT_SLOS)
        text = format_slos(rows)
        assert "VIOLATED" in text

    def test_default_slos_hold_on_a_small_fleet(self):
        specs = [simple_spec("app%d" % index, updates=8)
                 for index in range(6)]
        # events_per_sec is wall-clock over a run of a few ms: one
        # untimed fleet first, so a cold process (imports, first-call
        # caches) is not what the gate measures when the test runs
        # alone, and a collection first, so a full-heap collection of
        # the rest of the suite's garbage (80 ms measured) does not
        # land inside it when the test runs in the suite.
        FleetDriver(specs, ping_every=4, seed=1).run()
        gc.collect()
        result = FleetDriver(specs, ping_every=4, seed=2).run()
        assert all(row["ok"] for row in result.slos())


class TestBuildSpecs:
    def test_journals_first_fuzz_fill_slow_last(self, tmp_path):
        path = str(tmp_path / "slow.journal")
        specs = build_specs(5, 9, ["examples/golden.journal"],
                            slow_journal=path)
        assert len(specs) == 5
        assert specs[0].source == "examples/golden.journal"
        assert specs[1].source.startswith("seed:")
        assert specs[-1].record_path == path

    def test_deterministic_for_same_arguments(self):
        first = build_specs(4, 13, [])
        second = build_specs(4, 13, [])
        assert [spec.source for spec in first] == \
            [spec.source for spec in second]


class TestFleetTraceEviction:
    """Satellite: tracer ring eviction accounting at fleet scale.

    One tracer (cell 0's) watches a 200-session fleet.  A tracer sees
    only its own display's traffic, about 740 spans for cell 0, so the
    test shrinks that tracer's ring to 256 spans: it overflows, and
    must keep its accounting and its cross-boundary parent links
    intact under heavy eviction.
    """

    def test_200_session_run_evicts_and_accounts(self):
        journals = (["examples/golden.journal"]
                    + corpus_journals("tests/regress"))
        specs = build_specs(200, 20260808, journals)
        driver = FleetDriver(specs, seed=20260808)
        driver.launch()
        server = driver.servers[0]
        tracer = server.obs.tracer
        tracer.spans = deque(maxlen=256)
        tracer.start()
        try:
            result = driver.run()

            # The fleet pushed far more spans than the ring holds.
            assert tracer.evicted_spans > 0
            assert len(tracer.spans) == tracer.spans.maxlen
            # Metric mirror agrees exactly with the attribute.
            assert server.obs.metrics.value(
                "obs.trace.evicted", ring="spans") == \
                tracer.evicted_spans

            # Eviction never corrupts links: spans append in
            # post-order (children before parents), so a surviving
            # span either resolves its parent or is re-rooted with an
            # explicit marker -- and cross-boundary (link="wire")
            # nodes always carry the original parent id.
            for node in tracer.tree():
                if node.get("link") == "wire":
                    assert node.get("parent_evicted") is True
                    assert isinstance(node["parent"], int)
                    assert "orphaned" not in node

            # A frame still in flight when the tracer stops drops its
            # wire span; the already-recorded handle span must re-root
            # with the explicit parent link, not as a local orphan.
            now = server.time_ms
            wire_span = tracer.open_wire("batch", queue_ms=1)
            ctx = wire_span.id
            tracer.record_handle(ctx, "draw_string", now, now + 1)
            tracer.stop()
            tracer.close_wire(wire_span)
            rerooted = [node for node in tracer.tree()
                        if node["kind"] == "xhandle"
                        and node["name"] == "draw_string"
                        and node.get("parent_evicted")]
            assert rerooted
            assert rerooted[-1]["parent"] == ctx
            assert "orphaned" not in rerooted[-1]

            # Phase decomposition rides the top-N telemetry rows.
            rows = result.top_slowest(10)
            assert rows
            for row in rows:
                for key in ("handle_ms", "wire_ms", "wait_ms"):
                    assert row[key] >= 0
                assert (row["handle_ms"] + row["wire_ms"]
                        + row["wait_ms"]) <= row["virtual_ms"]
            assert any(row["handle_ms"] > 0 for row in rows)
        finally:
            tracer.stop()
