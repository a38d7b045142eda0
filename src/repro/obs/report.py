"""Timeline and critical-path reports over dumped span trees.

A flight dump (:meth:`repro.obs.core.Observability.flight_dump`) or a
full ``obs dump`` carries its spans as a flat list of dicts.  This
module turns that list back into the causal forest and answers the
question a latency investigation actually asks: *where did the time
go* — split into the five phases a cross-boundary round trip passes
through::

    client   script/callback work on the client side of the wire
    queue    virtual ms buffered ops waited for the flush that sent them
    wire     transport overhead: frame encode/decode and batch framing
    handle   server-side request execution (the ``xhandle`` spans)
    reply    from the last handled request back to the client

Everything is virtual-clock arithmetic over recorded spans, so the
breakdown is deterministic and identical across transports — which is
exactly what ``benchmarks/trace_report.py`` gates in CI.

CLI::

    PYTHONPATH=src python -m repro.obs.report flight.json
    PYTHONPATH=src python -m repro.obs.report dump.json --no-timeline
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

#: critical-path phases, in wire order
PHASES = ("client", "queue", "wire", "handle", "reply")


# ----------------------------------------------------------------------
# forest reconstruction (mirror of Tracer.tree over serialized spans)
# ----------------------------------------------------------------------

def build_forest(spans: List[dict]) -> List[dict]:
    """Rebuild the nested span forest from flat ``to_dict`` entries.

    Roots and children come in start order.  Children whose parent fell
    off the ring are re-rooted, marked ``orphaned`` for local spans and
    ``parent_evicted`` (explicit parent id kept) for cross-boundary
    ``link="wire"`` spans.  :meth:`repro.obs.trace.Tracer.tree` is this
    over the live ring.
    """
    nodes: Dict[int, dict] = {}
    roots: List[dict] = []
    for span in spans:
        node = dict(span)
        node["children"] = []
        nodes[node["id"]] = node
    for span in spans:
        node = nodes[span["id"]]
        parent = nodes.get(span.get("parent"))
        if parent is not None:
            parent["children"].append(node)
        else:
            if span.get("parent") is not None:
                if span.get("link") == "wire":
                    # ids are never reused while rings are non-empty,
                    # so the kept parent id cannot alias another span
                    node["parent_evicted"] = True
                else:
                    node["orphaned"] = True
            roots.append(node)
    roots.sort(key=lambda node: (node["start_ms"], node["id"]))
    for node in nodes.values():
        node["children"].sort(
            key=lambda child: (child["start_ms"], child["id"]))
    return roots


def extract_spans(data: dict) -> List[dict]:
    """The span list of a flight dump or a full ``obs dump``."""
    if "spans" in data:
        return data["spans"]
    trace = data.get("trace")
    if isinstance(trace, dict) and "spans" in trace:
        return trace["spans"]
    raise ValueError("no spans found (expected a flight dump or an "
                     "obs dump with a trace section)")


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------

def critical_path(roots: List[dict]) -> Dict[str, int]:
    """Phase totals (virtual ms) over a span forest.

    For each wire span: ``handle`` is the summed duration of its
    ``xhandle`` children, ``reply`` the gap from the last handled
    request back to the wire span's end (a wire span with no handle
    children — an untraced server, an evicted child — is all reply),
    and ``wire`` the remaining framing overhead.  ``queue`` sums the
    buffered wait carried on batch wire spans, which elapsed *before*
    the span opened.  ``client`` is everything in the root spans that
    is not inside a wire span.
    """
    totals = dict.fromkeys(PHASES, 0)
    root_ms = 0
    nested_wire_ms = 0

    def walk(node: dict, is_root: bool) -> None:
        nonlocal nested_wire_ms
        if node.get("kind") == "wire":
            duration = node.get("duration_ms", 0)
            handles = [child for child in node["children"]
                       if child.get("kind") == "xhandle"]
            handle = sum(child.get("duration_ms", 0)
                         for child in handles)
            if handles:
                reply = max(0, node["end_ms"]
                            - max(child["end_ms"] for child in handles))
            else:
                reply = duration
            totals["handle"] += handle
            totals["reply"] += reply
            totals["wire"] += max(0, duration - handle - reply)
            totals["queue"] += node.get("queue_ms", 0)
            if not is_root:
                nested_wire_ms += duration
        for child in node["children"]:
            walk(child, False)

    for root in roots:
        if root.get("kind") != "wire":
            root_ms += root.get("duration_ms", 0)
        walk(root, True)
    totals["client"] = max(0, root_ms - nested_wire_ms)
    totals["total"] = sum(totals[phase] for phase in PHASES)
    return totals


def format_critical_path(totals: Dict[str, int]) -> str:
    """The phase totals as an aligned table with percentages."""
    total = totals.get("total", 0)
    lines = ["CRITICAL PATH: %d virtual ms" % total]
    for phase in PHASES:
        value = totals.get(phase, 0)
        share = (100.0 * value / total) if total else 0.0
        lines.append("  %-8s %6d ms  %5.1f%%" % (phase, value, share))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# timelines
# ----------------------------------------------------------------------

def format_timeline(roots: List[dict], width: int = 48) -> str:
    """Root spans as aligned ``start..end`` bars (one line per root).

    Bars share one time axis spanning the forest, so concurrent
    sessions (fleet dumps) read as a gantt chart.
    """
    if not roots:
        return "TIMELINE: no spans"
    start = min(root["start_ms"] for root in roots)
    end = max(root["end_ms"] for root in roots)
    extent = max(1, end - start)
    lines = ["TIMELINE: %d roots, t=%d..%d" % (len(roots), start, end)]
    for root in roots:
        left = int((root["start_ms"] - start) * (width - 1) / extent)
        right = int((root["end_ms"] - start) * (width - 1) / extent)
        bar = " " * left + "#" * max(1, right - left + 1)
        label = "%s %s" % (root.get("kind", "?"), root.get("name", "?"))
        if root.get("widget"):
            label += " [%s]" % root["widget"]
        lines.append("  |%-*s| %6dms  %s"
                     % (width, bar[:width], root.get("duration_ms", 0),
                        label))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# structural comparison (the cross-transport identity gate)
# ----------------------------------------------------------------------

def structure(roots: List[dict]) -> List[dict]:
    """The forest with ids and clock readings stripped.

    What remains — kind, name, durations, request attribution, queue
    wait, cross-boundary links, child order — must be identical for
    one journal replayed over the loopback and socket transports.
    """
    def strip(node: dict) -> dict:
        out = {"kind": node.get("kind"), "name": node.get("name"),
               "duration_ms": node.get("duration_ms", 0)}
        for key in ("widget", "requests", "round_trips", "queue_ms",
                    "link", "parent_evicted", "orphaned"):
            if node.get(key):
                out[key] = node[key]
        out["children"] = [strip(child) for child in node["children"]]
        return out
    return [strip(root) for root in roots]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def render(data: dict, timeline: bool = True) -> str:
    roots = build_forest(extract_spans(data))
    sections = []
    if data.get("kind") == "flight":
        sections.append("FLIGHT: reason=%s  window=%dms  t=%dms"
                        % (data.get("reason"), data.get("window_ms", 0),
                           data.get("virtual_ms", 0)))
    if timeline:
        sections.append(format_timeline(roots))
    sections.append(format_critical_path(critical_path(roots)))
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = "usage: python -m repro.obs.report FILE [--no-timeline]"
    timeline = True
    path = None
    while argv:
        if argv[0] == "--no-timeline":
            timeline = False
            argv = argv[1:]
        elif path is None:
            path = argv[0]
            argv = argv[1:]
        else:
            print(usage)
            return 2
    if path is None:
        print(usage)
        return 2
    with open(path) as handle:
        data = json.load(handle)
    print(render(data, timeline=timeline))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["PHASES", "build_forest", "extract_spans", "critical_path",
           "format_critical_path", "format_timeline", "structure",
           "render", "main"]
