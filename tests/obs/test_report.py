"""Tests for timeline/critical-path reports (repro.obs.report) and
cross-boundary trace propagation end to end."""

import io
import json

import pytest

from repro.obs import report
from repro.tk import TkApp
from repro.x11 import XServer
from repro.x11.transport import shutdown_host


def span(sid, kind, name, parent=None, start=0, end=0, **extra):
    entry = {"id": sid, "kind": kind, "name": name, "parent": parent,
             "start_ms": start, "end_ms": end,
             "duration_ms": end - start}
    entry.update(extra)
    return entry


class TestForest:
    def test_nests_children_and_orders_roots(self):
        spans = [span(2, "proc", "child", parent=1, start=5, end=7),
                 span(1, "eval", "root", start=0, end=9),
                 span(3, "eval", "later", start=10, end=11)]
        roots = report.build_forest(spans)
        assert [node["name"] for node in roots] == ["root", "later"]
        assert roots[0]["children"][0]["name"] == "child"

    def test_evicted_wire_parent_keeps_explicit_link(self):
        spans = [span(9, "xhandle", "draw_string", parent=4,
                      start=3, end=4, link="wire")]
        (node,) = report.build_forest(spans)
        assert node["parent_evicted"] is True
        assert node["parent"] == 4
        assert "orphaned" not in node

    def test_evicted_local_parent_marked_orphaned(self):
        spans = [span(9, "proc", "lost", parent=4, start=3, end=4)]
        (node,) = report.build_forest(spans)
        assert node["orphaned"] is True

    def test_extract_spans_flight_and_dump_shapes(self):
        flight = {"kind": "flight", "spans": [1]}
        dump = {"trace": {"spans": [2]}}
        assert report.extract_spans(flight) == [1]
        assert report.extract_spans(dump) == [2]
        with pytest.raises(ValueError):
            report.extract_spans({"metrics": {}})


class TestCriticalPath:
    def forest(self):
        # eval(0..10) > wire batch(2..8, queue 3) > 2 handles + reply
        spans = [
            span(1, "eval", "doClick", start=0, end=10),
            span(2, "wire", "batch", parent=1, start=2, end=8,
                 queue_ms=3),
            span(3, "xhandle", "batch", parent=2, start=2, end=3,
                 link="wire"),
            span(4, "xhandle", "draw_string", parent=2, start=3,
                 end=6, link="wire"),
        ]
        return report.build_forest(spans)

    def test_buckets(self):
        totals = report.critical_path(self.forest())
        assert totals == {"client": 4, "queue": 3, "wire": 0,
                          "handle": 4, "reply": 2, "total": 13}

    def test_wire_span_without_handles_is_all_reply(self):
        roots = report.build_forest([
            span(1, "eval", "x", start=0, end=5),
            span(2, "wire", "sync", parent=1, start=1, end=4)])
        totals = report.critical_path(roots)
        assert totals["reply"] == 3
        assert totals["handle"] == 0
        assert totals["client"] == 2

    def test_format_shows_every_phase(self):
        text = report.format_critical_path(
            report.critical_path(self.forest()))
        assert "CRITICAL PATH: 13 virtual ms" in text
        for phase in report.PHASES:
            assert phase in text

    def test_empty_forest(self):
        totals = report.critical_path([])
        assert totals["total"] == 0


class TestTimeline:
    def test_bars_share_one_axis(self):
        roots = report.build_forest([
            span(1, "eval", "first", start=0, end=50),
            span(2, "eval", "second", start=50, end=100)])
        text = report.format_timeline(roots, width=20)
        lines = text.splitlines()
        assert "TIMELINE: 2 roots, t=0..100" == lines[0]
        assert lines[1].index("#") < lines[2].index("#")

    def test_empty(self):
        assert report.format_timeline([]) == "TIMELINE: no spans"


def traced_workload(kind):
    """A small traced GUI session over one transport; returns the
    tracer after teardown (spans stay readable)."""
    server = XServer()
    app = TkApp(server, name="rep", transport=kind)
    app.interp.stdout = io.StringIO()
    try:
        app.interp.eval("button .b -text hi\n"
                        "pack append . .b {top}")
        app.update()
        app.obs.tracer.start()
        app.interp.eval(".b configure -text there")
        app.update()
        app.interp.eval("update")
        tracer = app.obs.tracer
    finally:
        app.destroy()
        shutdown_host(server)
    return tracer


class TestCrossBoundaryPropagation:
    def test_handle_spans_parent_under_wire_spans(self):
        tracer = traced_workload("loopback")
        spans = list(tracer.spans)
        wires = {span.id: span for span in spans
                 if span.kind == "wire"}
        handles = [span for span in spans if span.kind == "xhandle"]
        assert wires and handles
        for handle in handles:
            assert handle.link == "wire"
            assert handle.parent_id in wires
            wire_span = wires[handle.parent_id]
            assert wire_span.start <= handle.start <= handle.end \
                <= wire_span.end

    def test_handle_spans_do_not_double_count_requests(self):
        tracer = traced_workload("loopback")
        for span in tracer.spans:
            if span.kind == "xhandle":
                assert span.requests == {}

    def test_span_trees_identical_loopback_vs_socket(self):
        loop = report.structure(report.build_forest(
            [span.to_dict() for span in
             traced_workload("loopback").spans]))
        sock = report.structure(report.build_forest(
            [span.to_dict() for span in
             traced_workload("socket").spans]))
        assert loop == sock

    def test_structure_strips_ids_and_clock(self):
        (root,) = report.structure(report.build_forest([
            span(7, "eval", "x", start=100, end=105)]))
        assert "id" not in root and "start_ms" not in root
        assert root["duration_ms"] == 5


class TestCli:
    def test_render_flight_dump_file(self, tmp_path, capsys):
        server = XServer()
        app = TkApp(server, name="cli")
        app.interp.stdout = io.StringIO()
        app.obs.tracer.start()
        app.interp.eval("label .l -text x\npack append . .l {top}")
        app.update()
        path = str(tmp_path / "flight.json")
        app.obs.save_flight(path)
        app.destroy()
        assert report.main([path]) == 0
        out = capsys.readouterr().out
        assert "FLIGHT: reason=manual" in out
        assert "CRITICAL PATH" in out
        assert "TIMELINE" in out

    def test_no_timeline_flag(self, tmp_path, capsys):
        path = str(tmp_path / "dump.json")
        with open(path, "w") as handle:
            json.dump({"trace": {"spans": []}}, handle)
        assert report.main([path, "--no-timeline"]) == 0
        out = capsys.readouterr().out
        assert "TIMELINE" not in out

    def test_usage_errors(self, capsys):
        assert report.main([]) == 2
        assert report.main(["a", "b"]) == 2
