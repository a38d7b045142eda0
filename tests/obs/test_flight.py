"""Tests for the flight-recorder dump path (repro.obs.core)."""

import io
import json
import os

import pytest

from repro.obs import Observability
from repro.obs.core import FLIGHT_DIR_ENV
from repro.tk import TkApp


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def hub(clock):
    return Observability(clock)


class TestRecorderLifecycle:
    def test_start_recorder_wires_server_hot_path(self, app):
        recorder = app.obs.start_recorder(cadence_ms=1)
        assert app.server._recorder is recorder
        app.interp.eval("label .l -text hi\npack append . .l {top}")
        app.update()
        assert recorder.samples_taken > 0
        assert recorder.series_for("x11.requests{type=batch}")
        app.obs.stop_recorder()
        assert app.server._recorder is None

    def test_second_app_cannot_take_over_a_started_recorder(self, server,
                                                           app):
        other = TkApp(server, name="other")
        other.interp.stdout = io.StringIO()
        first = app.obs.start_recorder(cadence_ms=1)
        with pytest.raises(ValueError, match="another application"):
            other.obs.start_recorder(cadence_ms=1)
        assert server._recorder is first
        # Stopping a recorder that never held the slot leaves it alone.
        other.obs.stop_recorder()
        assert server._recorder is first
        app.interp.eval("button .b; pack append . .b {top}")
        taken = first.samples_taken
        for index in range(20):
            app.interp.eval(".b configure -text x%d" % index)
            app.display.sync()
        assert first.enabled
        assert first.samples_taken > taken
        app.obs.stop_recorder()
        assert server._recorder is None
        second = other.obs.start_recorder(cadence_ms=1)
        assert server._recorder is second
        other.obs.stop_recorder()

    def test_destroyed_app_frees_the_recorder_slot(self, server, app):
        other = TkApp(server, name="other")
        other.interp.stdout = io.StringIO()
        first = other.obs.start_recorder(cadence_ms=1)
        other.destroy()
        assert server._recorder is None
        assert not first.enabled
        second = app.obs.start_recorder(cadence_ms=1)
        assert server._recorder is second
        app.obs.stop_recorder()

    def test_start_twice_reconfigures_same_recorder(self, hub):
        first = hub.start_recorder(cadence_ms=5)
        second = hub.start_recorder(cadence_ms=7, ring=3)
        assert second is first
        assert first.cadence_ms == 7
        assert first.ring == 3

    def test_dump_gains_recorder_section(self, hub):
        assert "recorder" not in hub.dump()
        hub.start_recorder()
        assert hub.dump()["recorder"]["cadence_ms"] == \
            hub.recorder.cadence_ms


class TestFlightDump:
    def test_window_filters_spans_and_wire(self, hub, clock):
        tracer = hub.tracer
        tracer.start(wire=True)
        old = tracer.begin("eval", "ancient")
        clock.now = 100
        tracer.record_request("create_window")
        tracer.finish(old)
        clock.now = 5000
        recent = tracer.begin("eval", "recent")
        clock.now = 5100
        tracer.record_request("draw_string")
        tracer.finish(recent)
        data = hub.flight_dump(window_ms=1000)
        assert data["kind"] == "flight"
        assert data["virtual_ms"] == 5100
        assert [span["name"] for span in data["spans"]] == ["recent"]
        assert [entry["request"] for entry in data["wire"]] == \
            ["draw_string"]
        assert "metrics" in data

    def test_dump_includes_recorder_window(self, hub, clock):
        hub.metrics.counter("n").value = 1
        recorder = hub.start_recorder(cadence_ms=1)
        clock.now = 10
        recorder.maybe_sample()
        data = hub.flight_dump(window_ms=100, reason="probe")
        assert data["reason"] == "probe"
        assert data["samples"]["n"] == [[10, 1]]
        assert data["recorder"]["samples"] == 1

    def test_save_flight_writes_json(self, hub, tmp_path):
        path = str(tmp_path / "flight.json")
        assert hub.save_flight(path) == path
        with open(path) as handle:
            assert json.load(handle)["kind"] == "flight"


class TestAutodump:
    def test_noop_without_directory(self, hub, monkeypatch):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        assert hub.flight_autodump("bgerror") is None

    def test_env_directory_used(self, hub, clock, tmp_path,
                                monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        clock.now = 42
        path = hub.flight_autodump("slo breach: p95")
        assert path is not None and os.path.exists(path)
        name = os.path.basename(path)
        assert name.startswith("flight-slo-breach-p95-42-")
        with open(path) as handle:
            assert json.load(handle)["reason"] == "slo breach: p95"

    def test_attribute_beats_environment(self, hub, tmp_path,
                                         monkeypatch):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        hub.flight_dir = str(tmp_path / "sub")
        path = hub.flight_autodump("manual")
        assert path is not None and path.startswith(hub.flight_dir)

    def test_sequence_numbers_keep_files_distinct(self, hub, tmp_path):
        hub.flight_dir = str(tmp_path)
        first = hub.flight_autodump("x")
        second = hub.flight_autodump("x")
        assert first != second

    def test_never_raises_on_unwritable_directory(self, hub, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        hub.flight_dir = str(blocker / "nested")
        assert hub.flight_autodump("bgerror") is None


class TestBgerrorTrigger:
    def test_background_error_dumps_flight(self, app, tmp_path):
        app.obs.flight_dir = str(tmp_path)
        app.interp.eval("proc bgerror msg {}")
        assert app.report_background_error(RuntimeError("boom"))
        dumps = [name for name in os.listdir(str(tmp_path))
                 if name.startswith("flight-bgerror-")]
        assert len(dumps) == 1

    def test_background_error_without_handler_still_dumps(self, app,
                                                          tmp_path):
        app.obs.flight_dir = str(tmp_path)
        assert not app.report_background_error(RuntimeError("boom"))
        assert any(name.startswith("flight-bgerror-")
                   for name in os.listdir(str(tmp_path)))
