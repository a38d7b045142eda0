"""Pinned server-traffic accounting per widget class (paper §3.3).

Creates and packs three widgets of every class on a fresh application
and pins the exact ``x11.round_trips`` and resource-allocation request
counts, with the resource cache on and off.  The cache-on column shows
the paper's claim — repeated textual resource names cost one round
trip total — and any future change to widget resource usage or cache
behaviour fails these numbers loudly.

All counts are read through the metrics registry (``x11.*`` names),
which is itself part of what is being tested.
"""

import io

import pytest

from repro.tk import TkApp
from repro.x11 import XServer

#: widgets of each class created (and packed) per measurement
N_WIDGETS = 3

#: class -> ((round_trips, colors, fonts) cache on,
#:           (round_trips, colors, fonts) cache off)
EXPECTED = {
    "button":      ((4, 3, 1), (15, 9, 6)),
    "canvas":      ((1, 1, 0), (3, 3, 0)),
    "checkbutton": ((4, 3, 1), (15, 9, 6)),
    "entry":       ((3, 2, 1), (12, 6, 6)),
    "frame":       ((1, 1, 0), (3, 3, 0)),
    "label":       ((3, 2, 1), (15, 9, 6)),
    "listbox":     ((4, 3, 1), (15, 9, 6)),
    "menu":        ((4, 3, 1), (15, 9, 6)),
    "menubutton":  ((4, 3, 1), (15, 9, 6)),
    "message":     ((3, 2, 1), (18, 6, 12)),
    "radiobutton": ((4, 3, 1), (15, 9, 6)),
    "scale":       ((3, 2, 1), (12, 6, 6)),
    "scrollbar":   ((2, 2, 0), (6, 6, 0)),
    "text":        ((3, 2, 1), (12, 6, 6)),
}


def _traffic(widget_class, cache_enabled):
    """(round_trips, colors, fonts, windows) deltas for the workload."""
    server = XServer()
    app = TkApp(server, name="traffic", cache_enabled=cache_enabled)
    app.interp.stdout = io.StringIO()
    app.update()
    metrics = server.obs.metrics

    def counts():
        return (metrics.value("x11.round_trips"),
                metrics.value("x11.requests", type="alloc_named_color"),
                metrics.value("x11.requests", type="load_font"),
                metrics.value("x11.requests", type="create_window"))

    before = counts()
    for index in range(N_WIDGETS):
        app.interp.eval("%s .w%d" % (widget_class, index))
        app.interp.eval("pack append . .w%d {top}" % index)
    app.update()
    after = counts()
    return tuple(new - old for new, old in zip(after, before))


@pytest.mark.parametrize("widget_class", sorted(EXPECTED))
def test_traffic_with_cache(widget_class):
    expected_rt, expected_colors, expected_fonts = \
        EXPECTED[widget_class][0]
    round_trips, colors, fonts, windows = _traffic(widget_class, True)
    assert (round_trips, colors, fonts) == \
        (expected_rt, expected_colors, expected_fonts)
    assert windows == N_WIDGETS


@pytest.mark.parametrize("widget_class", sorted(EXPECTED))
def test_traffic_without_cache(widget_class):
    expected_rt, expected_colors, expected_fonts = \
        EXPECTED[widget_class][1]
    round_trips, colors, fonts, windows = _traffic(widget_class, False)
    assert (round_trips, colors, fonts) == \
        (expected_rt, expected_colors, expected_fonts)
    assert windows == N_WIDGETS


@pytest.mark.parametrize("widget_class", sorted(EXPECTED))
def test_cache_never_increases_traffic(widget_class):
    on = EXPECTED[widget_class][0]
    off = EXPECTED[widget_class][1]
    assert on[0] <= off[0]


def test_cache_on_loads_each_font_once():
    """The paper's claim: one allocation per distinct textual name."""
    round_trips, colors, fonts, _ = _traffic("button", True)
    assert fonts == 1            # one font name, three buttons
    assert colors == 3           # three distinct color names


#: class -> ((batches, coalesced, delivered) buffering on,
#:           (batches, coalesced, delivered) buffering off)
#: "delivered" counts requests executed by the server (the batch
#: wrapper tick excluded), so buffering-on delivery must equal
#: buffering-off delivery minus the coalesced requests.
EXPECTED_BATCH = {
    "button":      ((9, 2, 39), (0, 0, 41)),
    "canvas":      ((6, 3, 28), (0, 0, 31)),
    "checkbutton": ((9, 2, 42), (0, 0, 44)),
    "entry":       ((8, 2, 38), (0, 0, 40)),
    "frame":       ((5, 0, 21), (0, 0, 21)),
    "label":       ((9, 2, 35), (0, 0, 37)),
    "listbox":     ((7, 2, 34), (0, 0, 36)),
    "menu":        ((7, 2, 34), (0, 0, 36)),
    "menubutton":  ((9, 2, 39), (0, 0, 41)),
    "message":     ((7, 2, 28), (0, 0, 30)),
    "radiobutton": ((9, 2, 42), (0, 0, 44)),
    "scale":       ((7, 2, 37), (0, 0, 39)),
    "scrollbar":   ((7, 3, 39), (0, 0, 42)),
    "text":        ((8, 2, 38), (0, 0, 40)),
}


def _batch_traffic(widget_class, buffering_enabled):
    """(batches, coalesced, delivered, round_trips, colors, fonts)
    deltas for the N_WIDGETS create-and-pack workload."""
    server = XServer()
    app = TkApp(server, name="traffic",
                buffering_enabled=buffering_enabled)
    app.interp.stdout = io.StringIO()
    app.update()
    metrics = server.obs.metrics

    def counts():
        return (metrics.value("x11.batches"),
                metrics.value("x11.requests_coalesced"),
                metrics.total("x11.requests") -
                metrics.value("x11.requests", type="batch"),
                metrics.value("x11.round_trips"),
                metrics.value("x11.requests", type="alloc_named_color"),
                metrics.value("x11.requests", type="load_font"))

    before = counts()
    for index in range(N_WIDGETS):
        app.interp.eval("%s .w%d" % (widget_class, index))
        app.interp.eval("pack append . .w%d {top}" % index)
    app.update()
    after = counts()
    return tuple(new - old for new, old in zip(after, before))


@pytest.mark.parametrize("widget_class", sorted(EXPECTED_BATCH))
def test_batch_traffic_buffering_on(widget_class):
    measured = _batch_traffic(widget_class, True)
    assert measured[:3] == EXPECTED_BATCH[widget_class][0]


@pytest.mark.parametrize("widget_class", sorted(EXPECTED_BATCH))
def test_batch_traffic_buffering_off(widget_class):
    measured = _batch_traffic(widget_class, False)
    assert measured[:3] == EXPECTED_BATCH[widget_class][1]


@pytest.mark.parametrize("widget_class", sorted(EXPECTED_BATCH))
def test_buffering_preserves_reply_traffic(widget_class):
    """Buffering reorders nothing that replies or allocates: the
    round-trip/color/font columns must be identical in both modes."""
    on = _batch_traffic(widget_class, True)
    off = _batch_traffic(widget_class, False)
    assert on[3:] == off[3:]


@pytest.mark.parametrize("widget_class", sorted(EXPECTED_BATCH))
def test_coalescing_accounts_for_every_dropped_request(widget_class):
    """delivered(on) + coalesced(on) == delivered(off): every request
    the synchronous path issues is either delivered or coalesced."""
    (_, coalesced_on, delivered_on), (_, _, delivered_off) = \
        EXPECTED_BATCH[widget_class]
    assert delivered_on + coalesced_on == delivered_off


def test_sync_ticks_a_named_request():
    """Satellite fix: ``Display.sync()`` records a ``sync`` request, so
    round trips never exceed the sum of reply-bearing request counts."""
    server = XServer()
    app = TkApp(server, name="traffic")
    app.interp.stdout = io.StringIO()
    app.update()
    metrics = server.obs.metrics
    before_sync = metrics.value("x11.requests", type="sync")
    before_rt = metrics.value("x11.round_trips")
    app.display.sync()
    app.display.sync()
    assert metrics.value("x11.requests", type="sync") == before_sync + 2
    assert metrics.value("x11.round_trips") == before_rt + 2


def test_failed_color_allocation_is_not_a_miss():
    """Satellite fix: unknown names count as errors, not misses."""
    server = XServer()
    app = TkApp(server, name="traffic")
    app.interp.stdout = io.StringIO()
    from repro.tk.cache import CacheError
    before = app.cache.stats()
    with pytest.raises(CacheError):
        app.cache.color("no-such-color-name")
    assert app.cache.stats() == before
    assert app.obs.metrics.value("tk.cache.errors", kind="color") == 1
    assert app.cache.stats_by_kind()["color"][2] == 1


def test_reply_round_trip_is_a_batch_barrier():
    """Satellite fix: a reply-bearing request pins the writes before it.

    With buffering on, a configure → get_geometry → configure sequence
    must deliver *two* configure requests: the round trip observes the
    first width, and the second configure must not merge backward
    across the reply into the batch that was already delivered.
    """
    server = XServer()
    app = TkApp(server, name="traffic", buffering_enabled=True)
    app.interp.stdout = io.StringIO()
    app.update()
    display = app.display
    metrics = server.obs.metrics
    win = display.create_window(display.root, 0, 0, 10, 10)
    display.flush()
    before = metrics.value("x11.requests", type="configure_window")
    display.configure_window(win, width=20)
    geometry = display.get_geometry(win)      # auto-flush + round trip
    assert geometry[2] == 20                  # observed the fresh size
    display.configure_window(win, width=30)
    display.flush()
    assert metrics.value("x11.requests",
                         type="configure_window") == before + 2
    assert server.window(win).width == 30


#: One steady-state op of the paper's Table II row 3 (create, pack,
#: display and destroy 50 buttons, labelled as in perfbench's
#: button_churn at seed 1) with a warm resource cache: requests
#: delivered (batch ticks included), batch writes, coalesced requests,
#: wire bytes out and in, events the server delivered (all, and Expose
#: alone), and events Tk dispatched.  Any change to the request or
#: event stream of the churn moves at least one of these.
#:
#: The server exposes only what became visible.  Of the 97 Exposes, 48
#: come from mapping the buttons (47 whole, one cut to 7 rows by the
#: 900-row screen, two below it); 49 come from the teardown, where
#: each surviving button moves up into "." after "." has shrunk and is
#: newly visible.  "." selects no Expose, so its own Exposes take
#: serials but are not delivered.  The other 99 events are the
#: Enter/Leave crossings.  Tk dispatches the 48 map Exposes and one
#: Enter; every teardown event arrives after its window is gone.
#: ``bytes_in`` is the byte total of those 196 EVENT frames.
EXPECTED_CHURN = {
    "requests": 700, "batches": 52, "coalesced": 1274,
    "bytes_out": 69834, "bytes_in": 34160,
    "events": 196, "expose": 97, "dispatched": 49,
}


def test_button_churn_steady_op_traffic():
    import random
    import string
    from repro.x11 import events as ev
    rng = random.Random(1)
    labels = ["".join(rng.choice(string.ascii_lowercase) for _ in range(6))
              for _ in range(50)]
    server = XServer()
    app = TkApp(server, name="buttons")
    app.interp.stdout = io.StringIO()
    metrics = server.obs.metrics
    delivered = []
    sink = app.display.client.transport_sink

    def counting_sink(event):
        delivered.append(event.type)
        sink(event)
    app.display.client.transport_sink = counting_sink

    def churn():
        for index, label in enumerate(labels):
            app.interp.eval(
                "button .b%d -text %s -command {set pressed %s}"
                % (index, label, label))
            app.interp.eval("pack append . .b%d {top}" % index)
        app.update()
        for index in range(50):
            app.interp.eval("destroy .b%d" % index)
        app.update()

    def counts():
        return {
            "requests": server.requests,
            "batches": metrics.value("x11.requests", type="batch"),
            "coalesced": metrics.value("x11.requests_coalesced"),
            "bytes_out": metrics.total("x11.wire.bytes_out"),
            "bytes_in": metrics.total("x11.wire.bytes_in"),
            "events": len(delivered),
            "expose": delivered.count(ev.EXPOSE),
            "dispatched": app.obs.metrics.total("tk.events.dispatched"),
        }

    churn()                       # warm-up: fills the resource cache
    before = counts()
    churn()
    after = counts()
    assert {name: after[name] - before[name] for name in after} == \
        EXPECTED_CHURN
    assert app.main.children == []


def test_wire_metrics_labeled_by_transport():
    """The x11.wire.* series are pinned to {client=, transport=} labels.

    Mixed-transport fleet cells must keep loopback and socket traffic
    as separate series; an unlabeled (or client-only) series coming
    back would silently fold both paths into one.
    """
    server = XServer()
    app = TkApp(server, name="traffic", buffering_enabled=True)
    app.interp.stdout = io.StringIO()
    app.update()
    metrics = server.obs.metrics
    number = str(app.display.client.number)
    label = {"client": number, "transport": "loopback"}
    assert metrics.value("x11.wire.bytes_out", **label) > 0
    assert metrics.value("x11.wire.bytes_in", **label) > 0
    rtt = metrics.get("x11.wire.rtt_ms", **label)
    assert rtt is not None
    assert rtt.labels == (("client", number), ("transport", "loopback"))
    # No legacy client-only series may coexist with the labeled ones.
    assert metrics.get("x11.wire.bytes_out", client=number) is None
    assert metrics.get("x11.wire.bytes_in", client=number) is None
    assert metrics.get("x11.wire.rtt_ms", client=number) is None
