"""Tests for the span tracer (repro.obs.trace)."""

import pytest

from repro.obs import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    tracer = Tracer(clock)
    tracer.start()
    yield tracer
    tracer.stop()


class TestSpans:
    def test_parent_child_links(self, tracer, clock):
        outer = tracer.begin("eval", "doClick")
        inner = tracer.begin("cmd", "set")
        tracer.finish(inner)
        tracer.finish(outer)
        spans = list(tracer.spans)
        assert [span.kind for span in spans] == ["cmd", "eval"]
        assert spans[0].parent_id == outer.id
        assert spans[1].parent_id is None

    def test_durations_use_virtual_clock(self, tracer, clock):
        span = tracer.begin("eval", "work")
        clock.now += 25
        tracer.finish(span)
        assert span.duration == 25

    def test_widget_inherited_from_parent(self, tracer):
        outer = tracer.begin("event", "ButtonPress", widget=".b")
        inner = tracer.begin("cmd", "set")
        tracer.finish(inner)
        tracer.finish(outer)
        assert inner.widget == ".b"

    def test_ring_buffer_bounds_spans(self, clock):
        tracer = Tracer(clock, max_spans=4)
        tracer.start()
        for index in range(10):
            tracer.finish(tracer.begin("cmd", "c%d" % index))
        assert len(tracer.spans) == 4
        assert [span.name for span in tracer.spans] == \
            ["c6", "c7", "c8", "c9"]
        tracer.stop()

    def test_finish_after_stop_drops_span(self, clock):
        tracer = Tracer(clock)
        tracer.start()
        span = tracer.begin("cmd", "obs")
        tracer.stop()
        tracer.finish(span)
        assert len(tracer.spans) == 0

    def test_exception_unwinds_stack(self, tracer):
        outer = tracer.begin("eval", "outer")
        tracer.begin("cmd", "inner")      # never finished (exception)
        tracer.finish(outer)
        assert tracer._stack == []


class TestAttribution:
    def test_request_attributed_to_open_span(self, tracer):
        span = tracer.begin("cmd", ".b")
        tracer.record_request("fill_rectangle")
        tracer.record_request("fill_rectangle")
        tracer.record_round_trip()
        tracer.finish(span)
        assert span.requests == {"fill_rectangle": 2}
        assert span.round_trips == 1


class TestOutput:
    def test_tree_nests_children(self, tracer):
        outer = tracer.begin("event", "ButtonPress", widget=".b")
        inner = tracer.begin("cmd", "set")
        tracer.finish(inner)
        tracer.finish(outer)
        roots = tracer.tree()
        assert len(roots) == 1
        assert roots[0]["name"] == "ButtonPress"
        assert roots[0]["children"][0]["name"] == "set"

    def test_format_tree_header_and_indent(self, tracer):
        outer = tracer.begin("eval", "doClick")
        inner = tracer.begin("cmd", ".b", widget=".b")
        tracer.record_request("draw_string")
        tracer.finish(inner)
        tracer.finish(outer)
        text = tracer.format_tree()
        lines = text.splitlines()
        assert lines[0].startswith("TRACE: 2 spans, 1 x11 requests")
        assert "  eval doClick" in text
        assert "    cmd .b [.b]" in text
        assert "draw_string=1" in text

    def test_to_dict_shape(self, tracer):
        span = tracer.begin("send", "peer")
        tracer.finish(span)
        data = tracer.to_dict()
        assert data["spans"][0]["kind"] == "send"
        assert list(data) == ["spans"]

    def test_clear_resets(self, tracer):
        tracer.finish(tracer.begin("cmd", "set"))
        tracer.clear()
        assert len(tracer.spans) == 0
        first = tracer.begin("cmd", "set")
        assert first.id == 1
        tracer.finish(first)


class TestEvictionRerooting:
    def test_evicted_parent_rerooted_not_dropped(self, clock):
        # Simulate a wrapped ring: the parent span has fallen off the
        # bounded deque, its children survive.  tree() must re-root
        # them (marked), not silently drop them.
        from repro.obs.trace import Span
        tracer = Tracer(clock, max_spans=4)
        child = Span(7, "cmd", "survivor", None, parent_id=3, start=5)
        tracer.spans.append(child)
        (node,) = tracer.tree()
        assert node["name"] == "survivor"
        assert node["orphaned"] is True

    def test_stop_inside_handler_orphans_recorded_children(self, clock):
        # A realizable orphan: "obs trace stop" runs inside a traced
        # handler, so the parent's finish is dropped while its already
        # -recorded children stay in the ring.
        tracer = Tracer(clock)
        tracer.start()
        outer = tracer.begin("eval", "handler")
        tracer.finish(tracer.begin("cmd", "recorded"))
        tracer.stop()                 # abandons the open parent
        tracer.finish(outer)          # dropped: tracer not collecting
        (node,) = tracer.tree()
        assert node["name"] == "recorded"
        assert node["orphaned"] is True

    def test_true_roots_not_marked_orphaned(self, tracer):
        root = tracer.begin("eval", "root")
        tracer.finish(tracer.begin("cmd", "child"))
        tracer.finish(root)
        (node,) = tracer.tree()
        assert "orphaned" not in node
        assert "orphaned" not in node["children"][0]

    def test_roots_in_start_order(self, tracer, clock):
        # Nested spans finish child-first; the deque is finish-ordered
        # but the tree must present roots in start order.
        first = tracer.begin("eval", "first")
        clock.now += 1
        tracer.finish(tracer.begin("cmd", "inner"))
        tracer.finish(first)
        second = tracer.begin("eval", "second")
        tracer.finish(second)
        assert [node["name"] for node in tracer.tree()] == \
            ["first", "second"]

    def test_format_tree_flags_orphans(self, clock):
        tracer = Tracer(clock)
        tracer.start()
        outer = tracer.begin("eval", "handler")
        tracer.finish(tracer.begin("cmd", "recorded"))
        tracer.stop()
        tracer.finish(outer)
        text = tracer.format_tree()
        assert "(orphaned: parent span evicted)" in text


class TestEvictionMetrics:
    def test_span_ring_evictions_counted(self, clock):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        tracer = Tracer(clock, max_spans=4)
        tracer.bind_metrics(registry)
        tracer.start()
        for index in range(10):
            tracer.finish(tracer.begin("event", "e%d" % index))
        tracer.stop()
        assert tracer.evicted_spans == 6
        assert registry.value("obs.trace.evicted", ring="spans") == 6

    def test_bind_seeds_from_prior_evictions(self, clock):
        from repro.obs import MetricsRegistry
        tracer = Tracer(clock, max_spans=2)
        tracer.start()
        for index in range(5):
            tracer.finish(tracer.begin("event", "e%d" % index))
        tracer.stop()
        registry = MetricsRegistry()
        tracer.bind_metrics(registry)
        assert registry.value("obs.trace.evicted", ring="spans") == 3

    def test_app_tracer_bound_to_app_registry(self):
        import io

        from repro.tk import TkApp
        from repro.x11 import XServer
        app = TkApp(XServer(), name="evict")
        app.interp.stdout = io.StringIO()
        assert app.obs.tracer._m_evicted_spans is not None
        assert app.obs.metrics.value("obs.trace.evicted",
                                     ring="spans") == 0
