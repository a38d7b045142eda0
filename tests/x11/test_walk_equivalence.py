"""The server's per-event and per-window walks against reference copies.

``Event.for_window``, ``Window.window_at`` and ``XServer._expose`` run
for nearly every request and event, so they are written for speed.
Each test here keeps the plain algorithm the fast one replaced and
checks that both give the same answer on seeded random window trees
with overlapping siblings, unmapped subtrees and restacking.
"""

import dataclasses
import random

import pytest

from repro.x11 import events as ev
from repro.x11.xserver import XServer

SEEDS = range(8)


def _random_tree(seed, size=40):
    """A server holding a seeded random tree, and a bare client that
    selects Expose on the root and about half of the other windows."""
    rng = random.Random(seed)
    server = XServer(width=400, height=300)
    client = server.connect()
    server.select_input(client, server.root.id, ev.EXPOSURE_MASK)
    windows = [server.root]
    for _ in range(size):
        parent = rng.choice(windows)
        wid = server.create_window(
            client, parent.id, rng.randrange(-20, 200),
            rng.randrange(-20, 150), rng.randrange(1, 160),
            rng.randrange(1, 120))
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


# -- XServer._expose ------------------------------------------------------

def _reference_expose(server, window):
    """The original walk: an is_viewable test at every window."""
    if not window.is_viewable():
        return
    event = ev.Event(ev.EXPOSE, window=window.id, x=0, y=0,
                     width=window.width, height=window.height,
                     time=server.time_ms)
    server._deliver(window, event)
    for child in window.children:
        _reference_expose(server, child)


def _exposed(server, client, expose, window):
    """(window, serial offset) of each delivered Expose, and how many
    serials the walk took in all (delivered or not)."""
    client.queue.clear()
    start = ev.Event(ev.EXPOSE).serial
    expose(window)
    taken = ev.Event(ev.EXPOSE).serial - start - 1
    delivered = [(event.window, event.serial - start)
                 for event in client.queue]
    client.queue.clear()
    return delivered, taken


@pytest.mark.parametrize("seed", SEEDS)
def test_expose_matches_recursive_reference(seed):
    _, server, client, windows = _random_tree(seed)
    seen = 0
    for window in windows:
        fast = _exposed(server, client, server._expose, window)
        slow = _exposed(server, client,
                        lambda w: _reference_expose(server, w), window)
        assert fast == slow
        seen += len(fast[0])
    assert seen                        # the trees do expose something
