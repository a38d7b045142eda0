"""The server's per-event and per-window walks against reference copies.

``Event.for_window``, ``Window.window_at``, the server's per-request
exposure and its pointer-window update run for nearly every request
and event, so they are written for speed.  Each test here keeps a
plain algorithm for the same answer and checks that both agree on
seeded random window trees with overlapping siblings, unmapped
subtrees and restacking.
"""

import dataclasses
import random

import pytest

from repro.x11 import events as ev
from repro.x11.window import Window, bands, clip_region, subtract_rect
from repro.x11.xserver import XServer

SEEDS = range(8)


def _random_tree(seed, size=40, server_class=XServer, width=400,
                 height=300):
    """A server holding a seeded random tree, and a bare client that
    selects Expose on the root and about half of the other windows."""
    rng = random.Random(seed)
    server = server_class(width=width, height=height)
    client = server.connect()
    server.select_input(client, server.root.id, ev.EXPOSURE_MASK)
    windows = [server.root]
    for _ in range(size):
        parent = rng.choice(windows)
        wid = server.create_window(client, parent.id,
                                   *_random_geometry(rng, parent))
        if rng.random() < 0.5:
            server.select_input(client, wid, ev.EXPOSURE_MASK)
        if rng.random() < 0.75:
            server.map_window(wid)
        windows.append(server.window(wid))
    for _ in range(size // 4):
        window = rng.choice(windows[1:])
        if rng.random() < 0.5:
            server.raise_window(window.id)
        else:
            server.lower_window(window.id)
    client.queue.clear()
    return rng, server, client, windows


# -- Event.for_window -----------------------------------------------------

def test_for_window_keeps_every_field_and_serial():
    event = ev.Event(ev.KEY_PRESS, window=1, x=2, y=3, x_root=4, y_root=5,
                     state=6, keysym="a", keychar="a", button=7, width=8,
                     height=9, time=10, atom=11, selection=12, target=13,
                     property=14, requestor=15, data=(16, "x"),
                     send_event=True)
    copy = event.for_window(99)
    reference = dataclasses.replace(event, window=99)
    assert copy is not event
    assert type(copy) is ev.Event
    for field in dataclasses.fields(ev.Event):
        assert getattr(copy, field.name) == getattr(reference, field.name)
    assert copy.serial == event.serial
    assert (copy.window, event.window) == (99, 1)
    copy.send_event = False            # the copy owns its fields
    assert event.send_event is True


def test_for_window_does_not_take_a_serial():
    event = ev.Event(ev.EXPOSE, window=1)
    for wid in range(10):
        event.for_window(wid)
    assert ev.Event(ev.EXPOSE).serial == event.serial + 1


# -- Window.window_at -----------------------------------------------------

def _reference_window_at(window, root_x, root_y):
    """The original descent: every child tested in root coordinates."""
    for child in reversed(window.children):
        if child.mapped:
            x, y = child.root_position()
            if x <= root_x < x + child.width and \
                    y <= root_y < y + child.height:
                return _reference_window_at(child, root_x, root_y)
    return window


@pytest.mark.parametrize("seed", SEEDS)
def test_window_at_matches_root_position_reference(seed):
    rng, server, _, windows = _random_tree(seed)
    for _ in range(400):
        x, y = rng.randrange(-10, 420), rng.randrange(-10, 320)
        assert server.root.window_at(x, y) is \
            _reference_window_at(server.root, x, y)
    # Searches that start below the root, as after restacking.
    for window in windows[1:]:
        server.raise_window(rng.choice(windows[1:]).id)
        origin_x, origin_y = window.root_position()
        x = origin_x + rng.randrange(window.width)
        y = origin_y + rng.randrange(window.height)
        assert window.window_at(x, y) is \
            _reference_window_at(window, x, y)


def _random_geometry(rng, parent):
    """x, y, width and height of a new child of ``parent``: often
    overlapping its siblings, and sometimes sticking out."""
    width, height = parent.width, parent.height
    return (rng.randrange(-width // 5, width),
            rng.randrange(-height // 5, height),
            rng.randrange(1, width * 2 // 3 + 2),
            rng.randrange(1, height * 2 // 3 + 2))


def _random_request(rng, server, client):
    """One seeded window request on a random live window; a created
    window is mapped and selects what the root selects."""
    windows = [window for window in server.resources.values()
               if isinstance(window, Window)]
    window = rng.choice(windows)
    kind = rng.choices(
        ["create", "map", "unmap", "destroy", "configure", "raise",
         "lower"], weights=[2, 3, 2, 1, 6, 2, 2])[0]
    if kind == "create" or window is server.root:
        wid = server.create_window(client, window.id,
                                   *_random_geometry(rng, window))
        server.select_input(client, wid,
                            server.root.event_selections[client])
        server.map_window(wid)
    elif kind == "configure":
        changes = {}
        x, y, width, height = _random_geometry(rng, window.parent)
        if rng.random() < 0.3:
            changes["x"], changes["y"] = x, y
        elif rng.random() < 0.5:           # a nudge
            changes["x"] = window.x + rng.randrange(-3, 4)
            changes["y"] = window.y + rng.randrange(-3, 4)
        if rng.random() < 0.6:
            changes["width"], changes["height"] = width - 1, height - 1
        server.configure_window(window.id, **changes)
    else:
        getattr(server, kind + "_window")(window.id)


# -- exposure ---------------------------------------------------------------

def _reference_regions(server):
    """Every viewable window's visible region in its own coordinates,
    recomputed from the root, in pre-order: the plain algorithm that
    the server's per-request delta replaced."""
    regions = {}

    def walk(window, origin_x, origin_y, free):
        shares = []
        for child in reversed(window.children):
            if child.mapped:
                x0, y0 = origin_x + child.x, origin_y + child.y
                x1, y1 = x0 + child.width, y0 + child.height
                shares.append((child, x0, y0,
                               clip_region(free, x0, y0, x1, y1)))
                free = subtract_rect(free, x0, y0, x1, y1)
        regions[window] = [(a - origin_x, b - origin_y, c - origin_x,
                            d - origin_y) for a, b, c, d in free]
        for child, x0, y0, share in reversed(shares):
            walk(child, x0, y0, share)

    root = server.root
    walk(root, 0, 0, [(0, 0, root.width, root.height)])
    return regions


def _reference_exposes(before, after, resized):
    exposes = []
    for window, region in after.items():
        if window is not resized:
            for rect in before.get(window, ()):
                region = subtract_rect(region, *rect)
        exposes.extend((window.id,) + rect for rect in bands(region)
                       if region)
    return exposes


@pytest.mark.parametrize("seed", SEEDS)
def test_expose_matches_recursive_reference(seed):
    """The server exposes exactly what a full recomputation of every
    window's visible region before and after each request says each
    window gained, rectangle for rectangle and in the same order."""
    rng, server, client, _ = _random_tree(seed)
    for window in server.resources.values():
        if isinstance(window, Window):
            server.select_input(client, window.id, ev.EXPOSURE_MASK)
    seen = 0
    for _ in range(200):
        before = _reference_regions(server)
        sizes = {window: (window.width, window.height) for window in before}
        _random_request(rng, server, client)
        after = _reference_regions(server)
        resized = [window for window, size in sizes.items()
                   if (window.width, window.height) != size]
        expected = _reference_exposes(before, after,
                                      resized[0] if resized else None)
        delivered = [(event.window, event.x, event.y, event.width,
                      event.height) for event in client.queue
                     if event.type == ev.EXPOSE]
        client.queue.clear()
        assert delivered == expected
        seen += len(delivered)
    assert seen                        # the trees do expose something


# -- event serials ---------------------------------------------------------

@pytest.mark.parametrize("kind", ["configure", "map", "unmap", "destroy"])
def test_unselected_structure_event_takes_one_serial(kind):
    """Under an unmapped parent a window request makes one structure
    event and no Expose; with nobody selecting it the event is not
    built, yet the next delivered event's serial counts it."""
    server = XServer()
    client = server.connect()
    hidden = server.create_window(client, server.root.id, 0, 0, 50, 50)
    wid = server.create_window(client, hidden, 5, 5, 10, 10)
    if kind == "unmap":
        server.map_window(wid)
    watched = server.create_window(client, server.root.id, 0, 0, 5, 5)
    server.select_input(client, watched, ev.PROPERTY_CHANGE_MASK)
    start = next(ev._serial)
    if kind == "configure":
        server.configure_window(wid, width=20)
    else:
        getattr(server, kind + "_window")(wid)
    server.change_property(watched, 1, 1, "x")
    [event] = client.queue
    assert (event.type, event.serial) == (ev.PROPERTY_NOTIFY, start + 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_unselected_events_keep_the_serials_of_selected_ones(seed):
    """Each delivered structure or Expose event carries the serial it
    has when every window selects both kinds, so every event is built:
    an unselected event, and each band of an unselected Expose, takes
    exactly one serial."""
    def run(select_all):
        rng, server, client, windows = _random_tree(seed)
        mask = ev.STRUCTURE_NOTIFY_MASK | ev.EXPOSURE_MASK
        if not select_all:
            # Reach the root's children through the parent instead;
            # windows created below inherit the root's mask.
            mask = ev.SUBSTRUCTURE_NOTIFY_MASK | ev.EXPOSURE_MASK
            windows = [server.root]
        for window in windows:
            server.select_input(client, window.id, mask)
        start = next(ev._serial)
        for _ in range(200):
            _random_request(rng, server, client)
        taken = next(ev._serial) - start
        return taken, {event.serial - start: (
            event.type, event.window, event.x, event.y, event.width,
            event.height) for event in client.queue}

    taken, every = run(select_all=True)
    partial_taken, partial = run(select_all=False)
    assert partial_taken == taken
    assert partial.items() <= every.items()
    assert len(partial) < len(every)
    kinds = {ev.EXPOSE, ev.CONFIGURE_NOTIFY, ev.MAP_NOTIFY,
             ev.UNMAP_NOTIFY, ev.DESTROY_NOTIFY}
    assert {fields[0] for fields in every.values()} == kinds
    assert {fields[0] for fields in partial.values()} & kinds - \
        {ev.EXPOSE}


# -- pointer window ---------------------------------------------------------

class _AlwaysDescend(XServer):
    """The reference: a full ``window_at`` descent after every window
    request, whether or not the server thought it necessary."""

    def _window_changed(self, window, before, resized=False):
        XServer._window_changed(self, window, before, resized)
        self._update_pointer_window()


def _crossings(server_class, seed):
    """The pointer window and the Enter/Leave events after each step of
    a seeded mix of window requests and pointer warps, mostly into a
    viewable window and some off the screen."""
    rng, server, client, _ = _random_tree(seed, 14, server_class, 64, 48)
    for window in server.resources.values():
        if isinstance(window, Window):
            server.select_input(client, window.id,
                                ev.ENTER_WINDOW_MASK | ev.LEAVE_WINDOW_MASK)
    steps = []
    for _ in range(300):
        if rng.random() < 0.25:
            target = rng.choice([window for window in server.resources.values()
                                 if isinstance(window, Window)])
            if target.is_viewable() and rng.random() < 0.7:
                x, y = target.root_position()
                server.warp_pointer(x + rng.randrange(target.width),
                                    y + rng.randrange(target.height))
            else:
                server.warp_pointer(rng.randrange(-8, 72),
                                    rng.randrange(-8, 56))
            kind = "warp"
        else:
            _random_request(rng, server, client)
            kind = "request"
        crossings = [(event.type, event.window) for event in client.queue
                     if event.type in (ev.ENTER_NOTIFY, ev.LEAVE_NOTIFY)]
        client.queue.clear()
        steps.append((kind, server.pointer_window.id, crossings))
    return steps


@pytest.mark.parametrize("seed", range(32))
def test_pointer_window_matches_always_descend_reference(seed):
    fast = _crossings(XServer, seed)
    assert fast == _crossings(_AlwaysDescend, seed)
    # Requests, not only warps, move the pointer between windows.
    assert any(kind == "request" and pointer != previous
               for (kind, pointer, _), (_, previous, _)
               in zip(fast[1:], fast))
