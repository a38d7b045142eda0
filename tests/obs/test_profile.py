"""Tests for the profiler (repro.obs.profile)."""

from repro.obs import Profile, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def build_trace():
    """proc outer (30ms total) -> cmd inner (10ms, 2 requests, 1 rt)."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.start()
    outer = tracer.begin("proc", "outer")
    clock.now += 10
    inner = tracer.begin("cmd", ".b", widget=".b")
    tracer.record_request("draw_string")
    tracer.record_request("draw_string")
    tracer.record_round_trip()
    clock.now += 10
    tracer.finish(inner)
    clock.now += 10
    tracer.finish(outer)
    tracer.stop()
    return tracer


class TestAggregation:
    def test_self_vs_cumulative(self):
        profile = Profile(build_trace().spans)
        outer = profile.by_name["proc outer"]
        inner = profile.by_name["cmd .b"]
        assert outer.cum_ms == 30
        assert outer.self_ms == 20       # 30 minus the child's 10
        assert inner.cum_ms == 10
        assert inner.self_ms == 10

    def test_request_and_round_trip_attribution(self):
        profile = Profile(build_trace().spans)
        inner = profile.by_name["cmd .b"]
        assert inner.requests == 2
        assert inner.round_trips == 1
        assert profile.by_request == {"draw_string": 2}

    def test_by_widget_rollup(self):
        profile = Profile(build_trace().spans)
        row = profile.by_widget[".b"]
        assert row.count == 1
        assert row.self_ms == 10
        assert row.requests == 2

    def test_repeated_calls_accumulate(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.start()
        for _ in range(3):
            span = tracer.begin("proc", "redraw")
            clock.now += 5
            tracer.finish(span)
        tracer.stop()
        row = Profile(tracer.spans).by_name["proc redraw"]
        assert row.count == 3
        assert row.cum_ms == 15

    def test_empty_trace(self):
        profile = Profile([])
        assert profile.by_name == {}
        assert profile.report()  # header-only report still renders


class TestReport:
    def test_report_contains_tables(self):
        text = Profile(build_trace().spans).report()
        assert "PROFILE by span" in text
        assert "PROFILE by widget" in text
        assert "PROFILE by x11 request type" in text
        assert "proc outer" in text
        assert "draw_string" in text

    def test_to_dict_ordering(self):
        data = Profile(build_trace().spans).to_dict()
        # ordered by self time, biggest first
        assert data["by_name"][0]["key"] == "proc outer"
        assert data["by_request_type"] == {"draw_string": 2}


def build_wire_trace():
    """A trace that crossed the wire: wire span + handle spans."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.start()
    outer = tracer.begin("proc", "outer")
    tracer.record_request("draw_string")
    tracer.record_request("draw_string")
    wire_span = tracer.open_wire("batch", queue_ms=2)
    clock.now += 1
    tracer.record_handle(wire_span.id, "batch", 0, 1)
    clock.now += 2
    tracer.record_handle(wire_span.id, "draw_string", 1, 3)
    tracer.close_wire(wire_span)
    tracer.finish(outer)
    tracer.stop()
    return tracer


class TestServerSideAttribution:
    def test_handle_time_attributed_to_request_name(self):
        profile = Profile(build_wire_trace().spans)
        assert profile.by_request_ms == {"batch": 1, "draw_string": 2}

    def test_counts_table_unperturbed_by_handle_spans(self):
        profile = Profile(build_wire_trace().spans)
        # the §3.3 traffic table still counts client-issued requests
        # only — handle spans never double-count
        assert profile.by_request == {"draw_string": 2}

    def test_to_dict_key_additive(self):
        assert "by_request_ms" not in \
            Profile(build_trace().spans).to_dict()
        data = Profile(build_wire_trace().spans).to_dict()
        assert data["by_request_ms"] == {"batch": 1, "draw_string": 2}

    def test_report_shows_handle_ms(self):
        text = Profile(build_wire_trace().spans).report()
        assert "draw_string" in text
        assert "handle 2ms" in text
        # server-only work (the batch framing tick) appears with a
        # zero client count rather than vanishing
        assert "handle 1ms" in text
