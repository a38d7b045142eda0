"""Tests for the simulated X server: windows, events, properties,
selections, resources, and input simulation."""

import pytest

from repro.x11 import Display, XConnectionLost, XProtocolError, XServer
from repro.x11 import events as ev


@pytest.fixture
def server():
    return XServer()


@pytest.fixture
def display(server):
    return Display(server)


def drain(display):
    out = []
    while display.pending():
        out.append(display.next_event())
    return out


class TestWindowTree:
    def test_root_window_exists(self, display):
        assert display.root > 0
        x, y, w, h, bw = display.get_geometry(display.root)
        assert (w, h) == (1152, 900)

    def test_create_window_parents_correctly(self, display):
        top = display.create_window(display.root, 10, 10, 100, 50)
        child = display.create_window(top, 5, 5, 20, 20)
        _, parent, children = display.query_tree(child)
        assert parent == top
        _, _, top_children = display.query_tree(top)
        assert children == []
        assert top_children == [child]

    def test_geometry_round_trip(self, display):
        win = display.create_window(display.root, 7, 8, 100, 50, 2)
        assert display.get_geometry(win) == (7, 8, 100, 50, 2)

    def test_configure_window(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.configure_window(win, x=3, y=4, width=30, height=40)
        assert display.get_geometry(win) == (3, 4, 30, 40, 0)

    def test_destroy_window_removes_subtree(self, display):
        top = display.create_window(display.root, 0, 0, 100, 100)
        child = display.create_window(top, 0, 0, 10, 10)
        display.destroy_window(top)
        with pytest.raises(XProtocolError):
            display.get_geometry(top)
        with pytest.raises(XProtocolError):
            display.get_geometry(child)

    def test_bad_window_raises(self, display):
        with pytest.raises(XProtocolError):
            display.get_geometry(999999)

    def test_map_state_and_viewability(self, server, display):
        top = display.create_window(display.root, 0, 0, 100, 100)
        child = display.create_window(top, 0, 0, 10, 10)
        display.map_window(child)
        assert not server.window(child).is_viewable()
        display.map_window(top)
        assert server.window(child).is_viewable()
        display.unmap_window(top)
        assert not server.window(child).is_viewable()


class TestEventDelivery:
    def test_structure_notify_on_configure(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.configure_window(win, width=50)
        types = [e.type for e in drain(display)]
        assert ev.CONFIGURE_NOTIFY in types

    def test_no_events_without_selection(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.configure_window(win, width=50)
        assert drain(display) == []

    def test_map_notify_and_expose(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK |
                             ev.EXPOSURE_MASK)
        display.map_window(win)
        types = [e.type for e in drain(display)]
        assert types.count(ev.MAP_NOTIFY) == 1
        assert ev.EXPOSE in types

    def test_configure_to_the_clamped_size_changes_nothing(self, server):
        # Sizes clamp to 1 before they are compared: asking a 1-pixel
        # window for width 0 queues no ConfigureNotify and no Expose.
        client = server.connect()
        wid = server.create_window(client, server.root.id, 5, 5, 1, 1)
        server.select_input(client, wid, ev.STRUCTURE_NOTIFY_MASK |
                            ev.EXPOSURE_MASK)
        server.map_window(wid)
        assert [e.type for e in client.queue] == [ev.MAP_NOTIFY, ev.EXPOSE]
        server.configure_window(wid, width=0)
        server.configure_window(wid, width=-3, height=0)
        assert len(client.queue) == 2
        assert server.window(wid).width == 1

    def test_expose_covers_only_what_became_visible(self, server):
        client = server.connect()
        below = server.create_window(client, server.root.id, 0, 0, 40, 30)
        above = server.create_window(client, server.root.id, 10, 20, 50, 50)
        server.select_input(client, below, ev.EXPOSURE_MASK)
        server.map_window(below)
        server.map_window(above)
        first = [(e.x, e.y, e.width, e.height) for e in client.queue]
        assert first == [(0, 0, 40, 30)]
        client.queue.clear()
        server.unmap_window(above)
        # Only the overlap, in the window's own coordinates.
        assert [(e.window, e.x, e.y, e.width, e.height)
                for e in client.queue] == [(below, 10, 20, 30, 10)]
        client.queue.clear()
        server.configure_window(below, x=7)
        assert list(client.queue) == []     # moved, nothing uncovered
        server.configure_window(below, width=20)
        assert [(e.x, e.y, e.width, e.height)
                for e in client.queue] == [(0, 0, 20, 30)]

    def test_destroy_notify(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.destroy_window(win)
        types = [e.type for e in drain(display)]
        assert ev.DESTROY_NOTIFY in types

    def test_substructure_notify_to_parent(self, display):
        top = display.create_window(display.root, 0, 0, 100, 100)
        display.select_input(top, ev.SUBSTRUCTURE_NOTIFY_MASK)
        child = display.create_window(top, 0, 0, 10, 10)
        display.map_window(child)
        events = drain(display)
        assert any(e.type == ev.MAP_NOTIFY and e.window == child
                   for e in events)

    def test_two_clients_independent_queues(self, server):
        display_a = Display(server)
        display_b = Display(server)
        win = display_a.create_window(display_a.root, 0, 0, 10, 10)
        display_a.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display_b.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display_a.map_window(win)
        assert any(e.type == ev.MAP_NOTIFY for e in drain(display_a))
        assert any(e.type == ev.MAP_NOTIFY for e in drain(display_b))

    def test_key_events_propagate_to_ancestors(self, server, display):
        top = display.create_window(display.root, 0, 0, 100, 100)
        child = display.create_window(top, 0, 0, 50, 50)
        display.map_window(top)
        display.map_window(child)
        display.select_input(top, ev.KEY_PRESS_MASK)
        drain(display)
        server.press_key("a", window_id=child)
        events = [e for e in drain(display) if e.type == ev.KEY_PRESS]
        assert len(events) == 1
        assert events[0].window == top
        assert events[0].keysym == "a"


class TestPointerSimulation:
    def test_enter_leave_on_warp(self, server, display):
        win = display.create_window(display.root, 10, 10, 100, 100)
        display.map_window(win)
        display.select_input(win, ev.ENTER_WINDOW_MASK |
                             ev.LEAVE_WINDOW_MASK)
        drain(display)
        server.warp_pointer(50, 50)
        assert any(e.type == ev.ENTER_NOTIFY for e in drain(display))
        server.warp_pointer(500, 500)
        assert any(e.type == ev.LEAVE_NOTIFY for e in drain(display))

    def test_button_press_coordinates_are_window_relative(
            self, server, display):
        win = display.create_window(display.root, 100, 200, 50, 50)
        display.map_window(win)
        display.select_input(win, ev.BUTTON_PRESS_MASK)
        server.warp_pointer(110, 220)
        drain(display)
        server.press_button(1)
        events = [e for e in drain(display) if e.type == ev.BUTTON_PRESS]
        assert len(events) == 1
        assert (events[0].x, events[0].y) == (10, 20)
        assert events[0].button == 1

    def test_motion_events(self, server, display):
        win = display.create_window(display.root, 0, 0, 100, 100)
        display.map_window(win)
        display.select_input(win, ev.POINTER_MOTION_MASK)
        drain(display)
        server.warp_pointer(5, 5)
        server.warp_pointer(6, 6)
        motions = [e for e in drain(display)
                   if e.type == ev.MOTION_NOTIFY]
        assert len(motions) == 2

    def test_nested_window_gets_pointer(self, server, display):
        top = display.create_window(display.root, 0, 0, 100, 100)
        inner = display.create_window(top, 20, 20, 40, 40)
        display.map_window(top)
        display.map_window(inner)
        display.select_input(inner, ev.BUTTON_PRESS_MASK)
        server.warp_pointer(30, 30)
        drain(display)
        server.press_button(1)
        events = [e for e in drain(display) if e.type == ev.BUTTON_PRESS]
        assert events and events[0].window == inner

    def test_key_goes_to_focus_window(self, server, display):
        win = display.create_window(display.root, 0, 0, 100, 100)
        display.map_window(win)
        display.select_input(win, ev.KEY_PRESS_MASK)
        display.set_input_focus(win)
        drain(display)
        server.press_key("q", state=ev.CONTROL_MASK)
        events = [e for e in drain(display) if e.type == ev.KEY_PRESS]
        assert events[0].keysym == "q"
        assert events[0].state == ev.CONTROL_MASK


class TestAtomsAndProperties:
    def test_intern_atom_is_stable(self, display):
        a1 = display.intern_atom("MY_ATOM")
        a2 = display.intern_atom("MY_ATOM")
        assert a1 == a2
        assert display.get_atom_name(a1) == "MY_ATOM"

    def test_only_if_exists(self, display):
        assert display.intern_atom("NEVER_MADE", only_if_exists=True) == 0

    def test_predefined_atoms(self, display):
        assert display.intern_atom("PRIMARY") > 0
        assert display.intern_atom("STRING") > 0

    def test_property_round_trip(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        prop = display.intern_atom("COMMENT")
        string = display.intern_atom("STRING")
        display.change_property(win, prop, string, "hello")
        assert display.get_property(win, prop) == (string, "hello")

    def test_get_with_delete(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        prop = display.intern_atom("COMMENT")
        string = display.intern_atom("STRING")
        display.change_property(win, prop, string, "x")
        display.get_property(win, prop, delete=True)
        assert display.get_property(win, prop) is None

    def test_append_mode(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        prop = display.intern_atom("COMMENT")
        string = display.intern_atom("STRING")
        display.change_property(win, prop, string, "ab")
        display.change_property(win, prop, string, "cd", append=True)
        assert display.get_property(win, prop)[1] == "abcd"

    def test_property_notify(self, display):
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.select_input(win, ev.PROPERTY_CHANGE_MASK)
        prop = display.intern_atom("COMMENT")
        string = display.intern_atom("STRING")
        display.change_property(win, prop, string, "x")
        events = [e for e in drain(display)
                  if e.type == ev.PROPERTY_NOTIFY]
        assert events and events[0].atom == prop

    def test_cross_client_properties(self, server):
        display_a = Display(server)
        display_b = Display(server)
        win = display_a.create_window(display_a.root, 0, 0, 10, 10)
        prop = display_a.intern_atom("SHARED")
        string = display_a.intern_atom("STRING")
        display_a.change_property(win, prop, string, "from-a")
        assert display_b.get_property(win, prop)[1] == "from-a"


class TestSelections:
    def test_owner_tracking(self, server):
        display = Display(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        primary = display.intern_atom("PRIMARY")
        display.set_selection_owner(primary, win)
        assert display.get_selection_owner(primary) == win

    def test_old_owner_gets_selection_clear(self, server):
        display_a = Display(server)
        display_b = Display(server)
        win_a = display_a.create_window(display_a.root, 0, 0, 10, 10)
        win_b = display_b.create_window(display_b.root, 0, 0, 10, 10)
        primary = display_a.intern_atom("PRIMARY")
        display_a.set_selection_owner(primary, win_a)
        display_b.set_selection_owner(primary, win_b)
        events = drain(display_a)
        assert any(e.type == ev.SELECTION_CLEAR for e in events)

    def test_convert_with_no_owner_notifies_failure(self, server):
        display = Display(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        primary = display.intern_atom("PRIMARY")
        string = display.intern_atom("STRING")
        prop = display.intern_atom("DEST")
        display.convert_selection(primary, string, prop, win)
        events = drain(display)
        assert any(e.type == ev.SELECTION_NOTIFY and e.property == 0
                   for e in events)

    def test_full_icccm_transfer(self, server):
        owner_display = Display(server)
        asker_display = Display(server)
        owner_win = owner_display.create_window(
            owner_display.root, 0, 0, 10, 10)
        asker_win = asker_display.create_window(
            asker_display.root, 0, 0, 10, 10)
        primary = owner_display.intern_atom("PRIMARY")
        string = owner_display.intern_atom("STRING")
        dest = asker_display.intern_atom("DEST")
        owner_display.set_selection_owner(primary, owner_win)
        # The requestor window is the transfer mailbox: its owner must
        # grant the selection owner's client write access.
        asker_display.set_property_access(asker_win, True)
        asker_display.convert_selection(primary, string, dest, asker_win)
        # Owner receives the SelectionRequest...
        request = [e for e in drain(owner_display)
                   if e.type == ev.SELECTION_REQUEST][0]
        assert request.requestor == asker_win
        # ...writes the data into the requested property...
        owner_display.change_property(request.requestor, request.property,
                                      string, "the selection value")
        # ...and sends SelectionNotify to the requestor.
        notify = ev.Event(ev.SELECTION_NOTIFY, selection=primary,
                          target=string, property=dest)
        owner_display.send_event(asker_win, notify)
        got = [e for e in drain(asker_display)
               if e.type == ev.SELECTION_NOTIFY][0]
        assert got.property == dest
        value = asker_display.get_property(asker_win, dest)[1]
        assert value == "the selection value"


class TestResources:
    def test_named_color(self, display):
        color = display.alloc_named_color("MediumSeaGreen")
        assert color.rgb == (60, 179, 113)

    def test_hex_color(self, display):
        color = display.alloc_named_color("#ff0080")
        assert color.rgb == (255, 0, 128)

    def test_short_hex_color(self, display):
        color = display.alloc_named_color("#f00")
        assert color.rgb == (255, 0, 0)

    def test_same_color_same_pixel(self, display):
        first = display.alloc_named_color("red")
        second = display.alloc_named_color("red")
        assert first.pixel == second.pixel

    def test_unknown_color_raises(self, display):
        with pytest.raises(XProtocolError):
            display.alloc_named_color("NotAColor")

    def test_font_metrics_deterministic(self, display):
        font_a = display.load_font("fixed")
        font_b = display.load_font("fixed")
        assert font_a.char_width == font_b.char_width == 6
        assert font_a.text_width("hello") == 30

    def test_cursor_names(self, display):
        cursor = display.create_cursor("coffee_mug")
        assert cursor.name == "coffee_mug"
        with pytest.raises(XProtocolError):
            display.create_cursor("no_such_cursor")

    def test_builtin_bitmap(self, display):
        bitmap = display.create_bitmap("gray50")
        assert (bitmap.width, bitmap.height) == (16, 16)

    def test_round_trips_counted(self, server, display):
        before = server.round_trips
        display.alloc_named_color("red")
        display.load_font("fixed")
        display.intern_atom("X")
        assert server.round_trips == before + 3

    def test_one_way_requests_do_not_count(self, server, display):
        before = server.round_trips
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.map_window(win)
        display.configure_window(win, width=20)
        assert server.round_trips == before


class TestSendEvent:
    def test_zero_mask_goes_to_creator(self, server):
        display_a = Display(server)
        display_b = Display(server)
        win_b = display_b.create_window(display_b.root, 0, 0, 10, 10)
        message = ev.Event(ev.CLIENT_MESSAGE, data=("hi",))
        display_a.send_event(win_b, message)
        events = drain(display_b)
        assert len(events) == 1
        assert events[0].send_event
        assert events[0].data == ("hi",)
        assert drain(display_a) == []


class TestDisconnect:
    def test_selections_dropped(self, server):
        display = Display(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        primary = display.intern_atom("PRIMARY")
        display.set_selection_owner(primary, win)
        display.close()
        assert server.get_selection_owner(primary) == 0

    def test_event_selections_dropped(self, server):
        display_a = Display(server)
        display_b = Display(server)
        win = display_a.create_window(display_a.root, 0, 0, 10, 10)
        display_b.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display_b.close()
        display_a.configure_window(win, width=50)
        display_a.flush()
        # No crash; the closed display surfaces its state instead of
        # silently reporting an empty queue.
        assert display_b.client.pending() == 0
        with pytest.raises(XConnectionLost):
            display_b.pending()

    def test_closed_client_receives_nothing(self, server):
        owner = Display(server)
        win = owner.create_window(owner.root, 0, 0, 10, 10)
        display = Display(server)
        display.select_input(win, ev.STRUCTURE_NOTIFY_MASK)
        display.close()
        server.configure_window(win, width=99)
        assert display.client.pending() == 0
        with pytest.raises(XConnectionLost):
            display.next_event()

    def test_close_destroys_client_windows(self, server):
        """A real server destroys a client's resources at close-down;
        that is how peers notice a crashed application."""
        display = Display(server)
        win = display.create_window(display.root, 0, 0, 10, 10)
        display.close()
        assert not server.window_exists(win)

    def test_closed_connection_rejects_requests(self, server):
        display = Display(server)
        display.close()
        with pytest.raises(XProtocolError, match="connection"):
            display.create_window(display.root, 0, 0, 10, 10)


class TestOwnership:
    """Regression tests for resource ownership (wire-protocol bugfix).

    Stateful requests carry the issuing client, and the server rejects
    them on windows another client created — one display can no longer
    destroy or scribble on a stranger's windows.  The root window (no
    creator) stays writable, and direct server calls (``client=None``)
    are trusted, so tests and input simulation keep working.
    """

    @pytest.fixture
    def other(self, server):
        return Display(server)

    @pytest.fixture
    def victim(self, server, display):
        win = display.create_window(display.root, 0, 0, 40, 40)
        display.map_window(win)
        return win

    def test_destroy_foreign_window_rejected(self, other, victim):
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.destroy_window(victim)

    def test_configure_foreign_window_rejected(self, other, victim):
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.configure_window(victim, width=99)

    def test_change_foreign_property_rejected(self, server, other, victim):
        atom = other.intern_atom("SECRET")
        string = other.intern_atom("STRING")
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.change_property(victim, atom, string, "overwrite")

    def test_delete_foreign_property_rejected(self, display, other, victim):
        atom = display.intern_atom("MINE")
        string = display.intern_atom("STRING")
        display.change_property(victim, atom, string, "value")
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.delete_property(victim, atom)

    def test_draw_on_foreign_window_rejected(self, other, victim):
        gc = other.create_gc(foreground=1)
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.clear_window(victim)
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.fill_rectangle(victim, gc, 0, 0, 5, 5)
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.draw_string(victim, gc, 1, 1, "graffiti")

    def test_owner_still_allowed(self, display, victim):
        display.configure_window(victim, width=60)
        display.clear_window(victim)
        display.destroy_window(victim)
        display.flush()
        assert not display.window_exists(victim)

    def test_root_window_writable_by_all(self, display, other):
        atom = other.intern_atom("CUT_BUFFER0")
        string = other.intern_atom("STRING")
        other.change_property(other.root, atom, string, "shared")
        other.flush()
        assert display.get_property(display.root, atom)[1] == "shared"

    def test_direct_server_access_trusted(self, server, victim):
        server.configure_window(victim, width=77)
        assert server.window(victim).width == 77

    def test_property_grant_opens_mailbox(self, display, other, victim):
        """set_property_access is the ICCCM mailbox escape hatch: the
        owner can open a window's properties to other clients."""
        atom = display.intern_atom("MAILBOX")
        string = display.intern_atom("STRING")
        display.set_property_access(victim, True)
        display.flush()
        other.change_property(victim, atom, string, "delivered")
        other.flush()
        assert display.get_property(victim, atom)[1] == "delivered"

    def test_property_grant_revocable(self, display, other, victim):
        atom = display.intern_atom("MAILBOX")
        string = display.intern_atom("STRING")
        display.set_property_access(victim, True)
        display.set_property_access(victim, False)
        display.flush()
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.change_property(victim, atom, string, "sneaky")

    def test_grant_on_foreign_window_rejected(self, other, victim):
        with pytest.raises(XProtocolError, match="BadAccess"):
            other.set_property_access(victim, True)


class TestStacking:
    def test_raise_reorders_children(self, server, display):
        first = display.create_window(display.root, 0, 0, 50, 50)
        second = display.create_window(display.root, 0, 0, 50, 50)
        display.map_window(first)
        display.map_window(second)
        assert server.root.window_at(10, 10).id == second
        display.raise_window(first)
        assert server.root.window_at(10, 10).id == first

    def test_lower_reorders_children(self, server, display):
        first = display.create_window(display.root, 0, 0, 50, 50)
        second = display.create_window(display.root, 0, 0, 50, 50)
        display.map_window(first)
        display.map_window(second)
        display.lower_window(second)
        assert server.root.window_at(10, 10).id == first

    def test_raise_generates_expose(self, server, display):
        win = display.create_window(display.root, 0, 0, 50, 50)
        other = display.create_window(display.root, 0, 0, 50, 50)
        display.map_window(win)
        display.map_window(other)
        display.select_input(win, ev.EXPOSURE_MASK)
        drain(display)
        display.raise_window(win)
        assert any(e.type == ev.EXPOSE for e in drain(display))

    def test_pointer_window_follows_restack(self, server, display):
        first = display.create_window(display.root, 0, 0, 50, 50)
        second = display.create_window(display.root, 0, 0, 50, 50)
        display.map_window(first)
        display.map_window(second)
        server.warp_pointer(10, 10)
        assert server.pointer_window.id == second
        display.raise_window(first)
        assert server.pointer_window.id == first
