"""The ``obs`` and ``info metrics`` Tcl commands, end to end.

Includes the PR's acceptance scenario: tracing a button click must
produce a single span tree linking the event dispatch, the binding
fire, the Tcl evaluation, and the named X requests they caused.
"""

import io
import json

import pytest

from repro.tcl import Interp, TclError
from repro.tk import TkApp

from obs_helpers import click


class TestObsMetricsCommand:
    def test_metrics_lists_stack_wide_metrics(self, app):
        app.interp.eval("button .b -text hi")
        text = app.interp.eval("obs metrics")
        assert "x11.requests{type=create_window}" in text
        assert "tk.cache.hits{kind=color}" in text
        assert "tcl.commands" in text

    def test_metrics_pattern_filters(self, app):
        text = app.interp.eval("obs metrics x11.round_trips")
        assert text.startswith("x11.round_trips")
        assert "tcl.commands" not in text

    def test_works_on_bare_interp(self):
        interp = Interp()
        interp.eval("set a 1")
        assert "tcl.commands" in interp.eval("obs metrics")

    def test_bad_option(self, app):
        with pytest.raises(TclError, match="bad option"):
            app.interp.eval("obs bogus")


class TestInfoMetrics:
    def test_flat_name_value_list(self, app):
        app.interp.eval("set a 1")
        result = app.interp.eval("info metrics tcl.compile.*")
        fields = result.split()
        assert "tcl.compile.hits" in fields
        assert "tcl.compile.misses" in fields
        # name value name value...
        assert len(fields) % 2 == 0

    def test_matches_legacy_counters(self, app):
        app.interp.eval("set a 1")
        pairs = app.interp.eval("info metrics tcl.commands").split()
        assert int(pairs[1]) == app.interp.cmd_count


class TestTraceCommand:
    def test_button_click_single_span_tree(self, app, server):
        """Acceptance: eval -> binding -> event dispatch -> X requests."""
        interp = app.interp
        interp.eval("proc doClick {} {.b flash}")
        interp.eval("button .b -text hi -command {doClick}")
        interp.eval("bind .b <ButtonRelease-1> {set released 1}")
        interp.eval("pack append . .b {top}")
        app.update()
        interp.eval("obs trace start")
        click(server, app, ".b")
        interp.eval("obs trace stop")
        # The release event is ONE root span with both consequences —
        # the widget's -command eval and the binding — nested under it.
        release = [root for root in app.obs.tracer.tree()
                   if root["name"] == "ButtonRelease"]
        assert len(release) == 1
        root = release[0]
        assert root["kind"] == "event"
        assert root["widget"] == ".b"
        kinds = {child["kind"] for child in root["children"]}
        assert kinds == {"eval", "binding"}
        # eval -> cmd -> proc -> widget cmd -> named X requests
        evals = [c for c in root["children"] if c["kind"] == "eval"]
        flat = _flatten(evals[0])
        widget_cmds = [node for node in flat
                       if node["kind"] == "cmd" and node["name"] == ".b"]
        assert widget_cmds and widget_cmds[0]["requests"]
        assert any(name in widget_cmds[0]["requests"]
                   for name in ("draw_string", "fill_rectangle",
                                "set_window_background"))
        text = interp.eval("obs trace dump")
        assert "event ButtonRelease [.b]" in text
        assert "binding <ButtonRelease-1> [.b]" in text

    def test_trace_dump_json(self, app, server):
        app.interp.eval("obs trace start")
        app.interp.eval("frame .f -geometry 10x10")
        app.interp.eval("obs trace stop")
        data = json.loads(app.interp.eval("obs trace dump -format json"))
        assert any(span["name"] == "frame" for span in data["spans"])

    def test_trace_wire_mode(self, app, server):
        app.interp.eval("obs trace start -wire")
        app.interp.eval("button .b -text hi")
        app.interp.eval("obs trace stop")
        wire = app.interp.eval("obs trace wire")
        assert "create_window" in wire

    def test_trace_clear(self, app):
        app.interp.eval("obs trace start")
        app.interp.eval("set a 1")
        app.interp.eval("obs trace stop")
        assert len(app.obs.tracer.spans) > 0
        app.interp.eval("obs trace clear")
        assert len(app.obs.tracer.spans) == 0

    def test_stop_without_start_is_ok(self, app):
        assert app.interp.eval("obs trace stop") == ""


class TestProfileCommand:
    def test_profile_report_from_trace(self, app, server):
        interp = app.interp
        interp.eval("proc mk {n} {button .b$n -text b$n}")
        interp.eval("obs trace start")
        interp.eval("mk 1")
        interp.eval("mk 2")
        interp.eval("obs trace stop")
        report = interp.eval("obs profile report")
        assert "PROFILE by span" in report
        assert "proc mk" in report
        assert "PROFILE by x11 request type" in report

    def test_profile_limit_switch(self, app):
        app.interp.eval("obs trace start")
        app.interp.eval("set a 1")
        app.interp.eval("obs trace stop")
        assert app.interp.eval("obs profile report -limit 1")


class TestObsDump:
    def test_dump_json_has_all_pillars(self, app, server):
        app.interp.eval("obs trace start")
        app.interp.eval("frame .f -geometry 10x10")
        app.interp.eval("obs trace stop")
        data = json.loads(app.interp.eval("obs dump -format json"))
        # a "journal" summary rides along only when one is attached
        # (e.g. CI's crash-forensics conftest)
        assert set(data) - {"journal"} == {"metrics", "trace",
                                           "profile"}
        assert "x11.round_trips" in data["metrics"]
        assert data["trace"]["spans"]
        assert data["profile"]["by_name"]

    def test_send_metrics_recorded(self, app, server):
        import io as _io
        from repro.tk import TkApp
        peer = TkApp(server, name="peer")
        peer.interp.stdout = _io.StringIO()
        app.interp.eval("send peer set x 1")
        assert app.obs.metrics.value("send.rpcs") == 1
        assert app.obs.metrics.value("send.wait_ms") == 1
        with pytest.raises(TclError):
            app.interp.eval("send nobody set x 1")
        assert app.obs.metrics.value("send.errors") == 1
        peer.destroy()

    def test_fault_counters_in_registry(self, app, server):
        from repro.x11 import FaultPlan
        plan = server.install_fault_plan(FaultPlan())
        plan.fail_request(name="create_window", error="BadAlloc")
        app.interp.eval("catch {frame .f -geometry 10x10}")
        server.clear_fault_plan()
        assert app.obs.metrics.value("x11.faults", type="error") == 1


def _flatten(node):
    nodes = [node]
    for child in node["children"]:
        nodes.extend(_flatten(child))
    return nodes


class TestInspect:
    """Remote introspection over send (tkinspect-style)."""

    @pytest.fixture
    def peer(self, server):
        from repro.tk import TkApp
        application = TkApp(server, name="peer")
        application.interp.stdout = io.StringIO()
        yield application
        if not application.destroyed:
            application.destroy()

    def test_lists_running_applications(self, app, peer):
        names = app.interp.eval("inspect").split()
        assert "obstest" in names and "peer" in names

    def test_fetches_remote_metrics(self, app, peer):
        peer.interp.eval("frame .f")
        peer.update()
        text = app.interp.eval("inspect peer metrics x11.requests*")
        assert "x11.requests{type=create_window}" in text

    def test_fetches_remote_trace_and_profile(self, app, peer):
        peer.interp.eval("obs trace start")
        peer.interp.eval("frame .f")
        peer.interp.eval("obs trace stop")
        assert app.interp.eval("inspect peer trace").startswith("TRACE:")
        assert "PROFILE by span" in \
            app.interp.eval("inspect peer profile 5")

    def test_fetches_remote_journal(self, app, peer, server):
        peer.interp.eval("obs journal start")
        peer.interp.eval("frame .f")
        peer.update()
        text = app.interp.eval("inspect peer journal 5")
        assert text.startswith("JOURNAL:")
        peer.interp.eval("obs journal stop")

    def test_fetches_remote_dump_as_json(self, app, peer):
        data = json.loads(app.interp.eval("inspect peer dump"))
        assert "metrics" in data

    def test_self_inspection_works(self, app):
        # the paper's trick composes reflexively: an app can inspect
        # itself through its own send machinery
        text = app.interp.eval("inspect obstest metrics x11.requests*")
        assert "x11.requests" in text

    def test_unknown_option_rejected(self, app, peer):
        from repro.tcl.errors import TclError
        with pytest.raises(TclError, match="bad option"):
            app.interp.eval("inspect peer frobnicate")


class TestObsRecorderCommand:
    def test_start_sample_dump(self, app):
        app.interp.eval("obs recorder start -cadence 1 -ring 16")
        app.interp.eval("label .l -text hi\npack append . .l {top}")
        app.update()
        text = app.interp.eval("obs recorder dump")
        assert text.startswith("RECORDER:")
        assert "x11.requests" in text
        filtered = app.interp.eval("obs recorder dump x11.batches*")
        assert "x11.batches" in filtered
        assert "tcl.commands" not in filtered

    def test_stop_keeps_series(self, app):
        app.interp.eval("obs recorder start -cadence 1")
        app.interp.eval("label .l -text hi\npack append . .l {top}")
        app.update()
        app.interp.eval("obs recorder stop")
        assert app.server._recorder is None
        assert app.interp.eval("obs recorder dump")

    def test_start_refused_while_another_app_samples(self, server, app):
        other = TkApp(server, name="other")
        other.interp.stdout = io.StringIO()
        app.interp.eval("obs recorder start -cadence 1")
        with pytest.raises(TclError, match="obs recorder start: another "
                           "application's recorder is sampling"):
            other.interp.eval("obs recorder start")
        other.interp.eval("obs recorder stop")
        assert server._recorder is app.obs.recorder
        app.interp.eval("obs recorder stop")
        other.interp.eval("obs recorder start")
        assert server._recorder is other.obs.recorder

    def test_dump_before_start_errors(self, app):
        with pytest.raises(TclError, match="not started"):
            app.interp.eval("obs recorder dump")

    def test_bad_switch_and_bad_int(self, app):
        with pytest.raises(TclError, match="bad switch"):
            app.interp.eval("obs recorder start -bogus 1")
        with pytest.raises(TclError, match="expected integer"):
            app.interp.eval("obs recorder start -cadence abc")
        with pytest.raises(TclError, match="cadence_ms"):
            app.interp.eval("obs recorder start -cadence 0")

    def test_bad_subcommand(self, app):
        with pytest.raises(TclError, match="bad option"):
            app.interp.eval("obs recorder frobnicate")


class TestObsFlightCommand:
    def test_save_writes_flight_json(self, app, tmp_path):
        app.interp.eval("obs trace start -wire")
        app.interp.eval("label .l -text hi\npack append . .l {top}")
        app.update()
        path = str(tmp_path / "flight.json")
        assert app.interp.eval(
            "obs flight save {%s} -window 500" % path) == path
        with open(path) as handle:
            data = json.load(handle)
        assert data["kind"] == "flight"
        assert data["window_ms"] == 500
        app.interp.eval("obs trace stop")

    def test_wrong_args(self, app):
        with pytest.raises(TclError, match="wrong # args"):
            app.interp.eval("obs flight")
        with pytest.raises(TclError, match="wrong # args"):
            app.interp.eval("obs flight save")
        with pytest.raises(TclError, match="bad switch"):
            app.interp.eval("obs flight save /tmp/x -bogus 1")
