"""X event types, event masks, and the event object.

The numbers match the X11 protocol so that anyone familiar with Xlib can
read traces from the simulator.  Tk's event dispatcher (paper section
3.2) and binding mechanism (Figure 7) are driven entirely by these
events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# -- event types (X protocol numbering) --------------------------------

KEY_PRESS = 2
KEY_RELEASE = 3
BUTTON_PRESS = 4
BUTTON_RELEASE = 5
MOTION_NOTIFY = 6
ENTER_NOTIFY = 7
LEAVE_NOTIFY = 8
FOCUS_IN = 9
FOCUS_OUT = 10
EXPOSE = 12
DESTROY_NOTIFY = 17
UNMAP_NOTIFY = 18
MAP_NOTIFY = 19
REPARENT_NOTIFY = 21
CONFIGURE_NOTIFY = 22
PROPERTY_NOTIFY = 28
SELECTION_CLEAR = 29
SELECTION_REQUEST = 30
SELECTION_NOTIFY = 31
CLIENT_MESSAGE = 33

EVENT_NAMES = {
    KEY_PRESS: "KeyPress",
    KEY_RELEASE: "KeyRelease",
    BUTTON_PRESS: "ButtonPress",
    BUTTON_RELEASE: "ButtonRelease",
    MOTION_NOTIFY: "MotionNotify",
    ENTER_NOTIFY: "EnterNotify",
    LEAVE_NOTIFY: "LeaveNotify",
    FOCUS_IN: "FocusIn",
    FOCUS_OUT: "FocusOut",
    EXPOSE: "Expose",
    DESTROY_NOTIFY: "DestroyNotify",
    UNMAP_NOTIFY: "UnmapNotify",
    MAP_NOTIFY: "MapNotify",
    REPARENT_NOTIFY: "ReparentNotify",
    CONFIGURE_NOTIFY: "ConfigureNotify",
    PROPERTY_NOTIFY: "PropertyNotify",
    SELECTION_CLEAR: "SelectionClear",
    SELECTION_REQUEST: "SelectionRequest",
    SELECTION_NOTIFY: "SelectionNotify",
    CLIENT_MESSAGE: "ClientMessage",
}

# -- event masks --------------------------------------------------------

KEY_PRESS_MASK = 1 << 0
KEY_RELEASE_MASK = 1 << 1
BUTTON_PRESS_MASK = 1 << 2
BUTTON_RELEASE_MASK = 1 << 3
ENTER_WINDOW_MASK = 1 << 4
LEAVE_WINDOW_MASK = 1 << 5
POINTER_MOTION_MASK = 1 << 6
BUTTON_MOTION_MASK = 1 << 13
EXPOSURE_MASK = 1 << 15
STRUCTURE_NOTIFY_MASK = 1 << 17
SUBSTRUCTURE_NOTIFY_MASK = 1 << 19
FOCUS_CHANGE_MASK = 1 << 21
PROPERTY_CHANGE_MASK = 1 << 22

#: No-mask events (selection and client messages) are always delivered
#: to the interested client; this pseudo-mask marks them.
ALWAYS_DELIVERED = 0

#: Which mask selects each event type.
MASK_FOR_TYPE = {
    KEY_PRESS: KEY_PRESS_MASK,
    KEY_RELEASE: KEY_RELEASE_MASK,
    BUTTON_PRESS: BUTTON_PRESS_MASK,
    BUTTON_RELEASE: BUTTON_RELEASE_MASK,
    MOTION_NOTIFY: POINTER_MOTION_MASK,
    ENTER_NOTIFY: ENTER_WINDOW_MASK,
    LEAVE_NOTIFY: LEAVE_WINDOW_MASK,
    FOCUS_IN: FOCUS_CHANGE_MASK,
    FOCUS_OUT: FOCUS_CHANGE_MASK,
    EXPOSE: EXPOSURE_MASK,
    DESTROY_NOTIFY: STRUCTURE_NOTIFY_MASK,
    UNMAP_NOTIFY: STRUCTURE_NOTIFY_MASK,
    MAP_NOTIFY: STRUCTURE_NOTIFY_MASK,
    REPARENT_NOTIFY: STRUCTURE_NOTIFY_MASK,
    CONFIGURE_NOTIFY: STRUCTURE_NOTIFY_MASK,
    PROPERTY_NOTIFY: PROPERTY_CHANGE_MASK,
    SELECTION_CLEAR: ALWAYS_DELIVERED,
    SELECTION_REQUEST: ALWAYS_DELIVERED,
    SELECTION_NOTIFY: ALWAYS_DELIVERED,
    CLIENT_MESSAGE: ALWAYS_DELIVERED,
}

#: Modifier-state bits (the ``state`` field of key/button events).
SHIFT_MASK = 1 << 0
LOCK_MASK = 1 << 1
CONTROL_MASK = 1 << 2
MOD1_MASK = 1 << 3  # usually Meta/Alt
BUTTON1_MASK = 1 << 8
BUTTON2_MASK = 1 << 9
BUTTON3_MASK = 1 << 10

_serial = itertools.count(1)

# Event has a protocol field named "property", which would shadow the
# builtin decorator inside the class body.
_builtin_property = property


@dataclass
class Event:
    """One X event.

    Only the fields meaningful for the event's type are filled in; the
    rest keep their defaults.  ``time`` is a server timestamp in
    milliseconds (used by Tk for Double/Triple detection).
    """

    type: int
    window: int = 0
    x: int = 0
    y: int = 0
    x_root: int = 0
    y_root: int = 0
    state: int = 0
    keysym: str = ""
    keychar: str = ""
    button: int = 0
    width: int = 0
    height: int = 0
    time: int = 0
    atom: int = 0
    selection: int = 0
    target: int = 0
    property: int = 0
    requestor: int = 0
    data: tuple = ()
    serial: int = field(default_factory=lambda: next(_serial))
    send_event: bool = False

    @_builtin_property
    def name(self) -> str:
        return EVENT_NAMES.get(self.type, "Unknown(%d)" % self.type)

    def for_window(self, window: int) -> "Event":
        """A copy of this event readdressed to another window.

        The copy keeps every other field, ``serial`` included, exactly
        as ``dataclasses.replace`` would, without re-running
        ``__init__``: the server makes one copy per delivered event.
        """
        copy = object.__new__(self.__class__)
        fields = self.__dict__.copy()
        fields["window"] = window
        copy.__dict__ = fields
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Event %s win=%d x=%d y=%d state=%d keysym=%r>" % (
            self.name, self.window, self.x, self.y, self.state, self.keysym)


#: Field order of an :class:`Event` on the wire (see
#: :mod:`repro.x11.wire`).  ``serial`` is deliberately absent: real X
#: serials are per-connection sequence numbers assigned by the
#: receiving Xlib, so the codec stamps a fresh one at decode time
#: instead of shipping the sender's.
WIRE_FIELDS = (
    "type", "window", "x", "y", "x_root", "y_root", "state", "keysym",
    "keychar", "button", "width", "height", "time", "atom", "selection",
    "target", "property", "requestor", "data", "send_event")
