"""Region-based Expose against a brute-force per-cell reference.

After a window request the server exposes each viewable window for the
part of its visible region it did not own before, or for all of it if
the window was resized.  A window owns a cell where it is the topmost
viewable window there; content moves with its window, so ownership is
compared in each window's own coordinates.  The reference here paints
the screen cell by cell, parents first and siblings bottom to top, on
seeded random trees with overlapping siblings, nesting, children that
stick out of their parent and unmapped windows, and checks every
request's Exposes against it.
"""

import random

import pytest

from repro.tk import TkApp
from repro.x11 import events as ev
from repro.x11 import wire
from repro.x11.transport import shutdown_host
from repro.x11.window import Window
from repro.x11.xserver import XServer

WIDTH, HEIGHT = 40, 30
SEEDS = range(200)
CHUNKS = 8
OPS = 12


def _random_tree(seed, select=True):
    """A server holding a seeded random tree, and a bare client that
    selects Expose on every window when ``select``."""
    rng = random.Random(seed)
    server = XServer(width=WIDTH, height=HEIGHT)
    client = server.connect()
    if select:
        server.select_input(client, server.root.id, ev.EXPOSURE_MASK)
    windows = [server.root]
    for _ in range(rng.randrange(4, 14)):
        parent = rng.choice(windows)
        wid = server.create_window(
            client, parent.id, rng.randrange(-6, WIDTH),
            rng.randrange(-6, HEIGHT), rng.randrange(1, 24),
            rng.randrange(1, 18))
        if select:
            server.select_input(client, wid, ev.EXPOSURE_MASK)
        if rng.random() < 0.75:
            server.map_window(wid)
        windows.append(server.window(wid))
    client.queue.clear()
    return rng, server, client


def _apply_random_op(rng, server):
    """One random window request; returns the window it resized, if
    any."""
    live = [window for window in server.resources.values()
            if isinstance(window, Window) and window is not server.root]
    if not live:
        return None
    window = rng.choice(live)
    kind = rng.choices(
        ["map", "unmap", "destroy", "configure", "raise", "lower"],
        weights=[3, 2, 1, 5, 2, 2])[0]
    if kind == "configure":
        size = (window.width, window.height)
        changes = {}
        if rng.random() < 0.6:
            changes["x"] = window.x + rng.randrange(-8, 9)
            changes["y"] = window.y + rng.randrange(-8, 9)
        if rng.random() < 0.6:
            changes["width"] = rng.randrange(0, 24)
            changes["height"] = rng.randrange(0, 18)
        server.configure_window(window.id, **changes)
        if (window.width, window.height) != size:
            return window
    elif kind == "map":
        server.map_window(window.id)
    elif kind == "unmap":
        server.unmap_window(window.id)
    elif kind == "destroy":
        server.destroy_window(window.id)
    elif kind == "raise":
        server.raise_window(window.id)
    else:
        server.lower_window(window.id)
    return None


def _owned_cells(server):
    """The brute-force reference: window -> the cells it owns, in its
    own coordinates.  Parents paint first and siblings bottom to top,
    each clipped by its ancestors, so the last painter of a cell is its
    topmost viewable window."""
    rows = [[None] * WIDTH for _ in range(HEIGHT)]

    def paint(window, origin_x, origin_y, clip):
        left = max(clip[0], origin_x)
        top = max(clip[1], origin_y)
        right = min(clip[2], origin_x + window.width)
        bottom = min(clip[3], origin_y + window.height)
        if left >= right or top >= bottom:
            return
        for y in range(top, bottom):
            rows[y][left:right] = [window] * (right - left)
        for child in window.children:
            if child.mapped:
                paint(child, origin_x + child.x, origin_y + child.y,
                      (left, top, right, bottom))

    paint(server.root, 0, 0, (0, 0, WIDTH, HEIGHT))
    origins = {}
    owned = {}
    for y, row in enumerate(rows):
        for x, window in enumerate(row):
            if window is None:
                continue
            if window not in origins:
                origins[window] = window.root_position()
            origin_x, origin_y = origins[window]
            owned.setdefault(window, set()).add((x - origin_x, y - origin_y))
    return owned


def _pre_order(window):
    yield window
    for child in window.children:
        yield from _pre_order(child)


def _check_exposes(server, events, before, after, resized):
    order = {window.id: index
             for index, window in enumerate(_pre_order(server.root))}
    by_window = {}
    for event in events:
        assert event.window in order, "Expose for a destroyed window"
        by_window.setdefault(event.window, []).append(event)
    # Windows in pre-order, each window's rectangles together.
    indices = [order[event.window] for event in events]
    assert indices == sorted(indices)
    for window in set(before) | set(after):
        expected = set(after.get(window, ()))
        if window is not resized:
            expected -= before.get(window, set())
        rects = by_window.pop(window.id, [])
        cells = set()
        area = 0
        for event in rects:
            assert event.width > 0 and event.height > 0
            assert 0 <= event.x and event.x + event.width <= window.width
            assert 0 <= event.y and event.y + event.height <= window.height
            area += event.width * event.height
            cells.update((x, y)
                         for x in range(event.x, event.x + event.width)
                         for y in range(event.y, event.y + event.height))
        assert area == len(cells), "overlapping Expose rectangles"
        assert cells == expected, "window %d" % window.id
        # y-then-x bands: a band's rectangles share their rows.
        keys = [(event.y, event.x) for event in rects]
        assert keys == sorted(keys)
        for a in rects:
            for b in rects:
                rows_a = (a.y, a.y + a.height)
                rows_b = (b.y, b.y + b.height)
                assert rows_a == rows_b or rows_a[1] <= rows_b[0] or \
                    rows_b[1] <= rows_a[0]
    assert not by_window, "Expose for a window that gained nothing"


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_exposes_match_per_cell_reference(chunk):
    checked = 0
    for seed in SEEDS[chunk::CHUNKS]:
        rng, server, client = _random_tree(seed)
        before = _owned_cells(server)
        for _ in range(OPS):
            resized = _apply_random_op(rng, server)
            after = _owned_cells(server)
            events = [event for event in client.queue
                      if event.type == ev.EXPOSE]
            client.queue.clear()
            _check_exposes(server, events, before, after, resized)
            checked += len(events)
            before = after
    assert checked                     # the trees do expose something


def test_expose_takes_a_serial_whether_or_not_selected():
    """A twin tree nobody selects on builds the same events: the same
    number of serials per request."""
    def serials_per_op(seed, select):
        rng, server, client = _random_tree(seed, select)
        taken = []
        for _ in range(OPS):
            start = ev.Event(ev.EXPOSE).serial
            _apply_random_op(rng, server)
            taken.append(ev.Event(ev.EXPOSE).serial - start - 1)
        return taken, len(client.queue)
    delivered = 0
    for seed in range(16):
        selected, count = serials_per_op(seed, True)
        unselected, none = serials_per_op(seed, False)
        assert selected == unselected
        assert none == 0
        delivered += count
    assert delivered


def _churn(app, count=50):
    """Table II row 3: create, pack, show and destroy ``count``
    buttons."""
    for index in range(count):
        app.interp.eval("button .b%d -text b%d" % (index, index))
        app.interp.eval("pack append . .b%d {top}" % index)
    app.update()
    for index in range(count):
        app.interp.eval("destroy .b%d" % index)
    app.update()


def test_churn_frames_identical_over_loopback_and_socket():
    def frames(kind):
        server = XServer()
        try:
            app = TkApp(server, name="churn", transport=kind)
            _churn(app)
            captured = app.display.transport.capture_wire()
            _churn(app)
            return list(captured)
        finally:
            shutdown_host(server)
    loopback = frames("loopback")
    assert loopback == frames("socket")
    assert any(frame[4] == wire.EVENT for frame in loopback)
