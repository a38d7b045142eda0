"""The Tk application: window naming, the structure cache, and event
routing (paper sections 3.1-3.3).

A :class:`TkApp` bundles everything one Tk-based application owns: a
display connection, a Tcl interpreter with the Tk commands registered,
the window pathname table ("." is the main window, ".a.b" a grandchild,
section 3.1), the resource cache, the option database, the binding
table, the event dispatcher, the packer, and the selection/focus/send
managers.  Several applications may share one simulated
:class:`~repro.x11.xserver.XServer`, which is what ``send`` and the
selection work across.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..tcl.errors import TclError
from ..tcl.interp import Interp
from ..x11 import events as ev
from ..x11.display import Display
from ..x11.xserver import XServer
from .bind import BindingTable
from .cache import ResourceCache
from .dispatch import EventDispatcher
from .options import OptionDatabase
from .pack import Packer


#: the event types the selection manager consumes (the send manager
#: consumes only PropertyNotify)
_SELECTION_EVENTS = frozenset((ev.SELECTION_REQUEST, ev.SELECTION_CLEAR,
                               ev.SELECTION_NOTIFY))


def parse_path(path: str) -> Tuple[str, str]:
    """Split a window path name into (parent path, leaf name)."""
    if path == ".":
        return ("", "")
    if not path.startswith(".") or path.endswith(".") or ".." in path:
        raise TclError('bad window path name "%s"' % path)
    head, _, leaf = path.rpartition(".")
    return (head or ".", leaf)


class TkWindow:
    """Tk's client-side record of one window.

    Doubles as the *structure cache* of paper section 3.3: position,
    size, and parent/child relationships are kept here so widgets never
    have to query the X server for them.
    """

    def __init__(self, app: "TkApp", path: str, parent: Optional["TkWindow"],
                 class_name: str, width: int = 1, height: int = 1):
        self.app = app
        self.path = path
        self.parent = parent
        self.class_name = class_name
        self.name = parse_path(path)[1] if path != "." else ""
        self.children: List["TkWindow"] = []
        self.x = 0
        self.y = 0
        self.width = width
        self.height = height
        self.requested_width = width
        self.requested_height = height
        self.explicit_size = False
        self.manager = None            # geometry manager (section 3.4)
        self.mapped = False
        self.destroyed = False
        self.widget = None
        self._handlers: List[Tuple[int, Callable]] = []
        self._selected_mask = 0
        parent_id = parent.id if parent is not None else app.display.root
        self.id = app.display.create_window(parent_id, 0, 0, width, height)
        if parent is not None:
            parent.children.append(self)

    # -- event handlers (C-level handlers of section 3.2) ---------------

    def add_event_handler(self, mask: int, handler: Callable) -> None:
        self._handlers.append((mask, handler))
        self.update_select_mask()

    def update_select_mask(self) -> None:
        """Recompute and install the union of needed event masks."""
        mask = 0
        for handler_mask, _ in self._handlers:
            mask |= handler_mask
        mask |= self.app.bindings.select_mask(self.binding_tags())
        if mask != self._selected_mask:
            self._selected_mask = mask
            self.app.display.select_input(self.id, mask)

    def binding_tags(self) -> List[str]:
        return [self.path, self.class_name, "all"]

    # -- geometry (updates both server and the structure cache) ---------

    def move_resize(self, x: int, y: int, width: int, height: int) -> None:
        if width < 1:
            width = 1
        if height < 1:
            height = 1
        if x == self.x and y == self.y and width == self.width and \
                height == self.height:
            return
        # A lost connection tears the application down, and teardown
        # re-runs geometry management (unpacking a child re-arranges
        # its parent); none of that may talk to the dead wire.
        if self.destroyed or self.app.display.closed:
            return
        self.x, self.y = x, y
        size_changed = (width, height) != (self.width, self.height)
        self.width, self.height = width, height
        self.app.display.configure_window(self.id, x=x, y=y, width=width,
                                          height=height)
        if size_changed:
            self._size_changed()

    def resize(self, width: int, height: int) -> None:
        self.move_resize(self.x, self.y, width, height)

    def _size_changed(self) -> None:
        if self.widget is not None:
            self.widget.size_changed()
        if self.manager_of_children() is not None:
            self.manager_of_children().parent_configured(self)

    def manager_of_children(self):
        for child in self.children:
            if child.manager is not None:
                return child.manager
        return None

    def map(self) -> None:
        if not self.mapped and not self.destroyed \
                and not self.app.display.closed:
            self.mapped = True
            self.app.display.map_window(self.id)
            if self.widget is not None:
                self.widget.schedule_redraw()

    def unmap(self) -> None:
        if self.mapped and not self.destroyed \
                and not self.app.display.closed:
            self.mapped = False
            self.app.display.unmap_window(self.id)

    def root_position(self) -> Tuple[int, int]:
        x, y = self.x, self.y
        window = self.parent
        while window is not None:
            x += window.x
            y += window.y
            window = window.parent
        return x, y

    # -- lifetime ----------------------------------------------------------

    def destroy(self) -> None:
        if self.destroyed:
            return
        for child in list(self.children):
            child.destroy()
        self.destroyed = True
        if self.manager is not None:
            self.manager.forget(self)
        if self.widget is not None:
            self.widget.cleanup()
            self.widget = None
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        self.app._forget_window(self)
        # Destroying the main window tears down the whole application,
        # closing the display; the disconnect already destroyed every
        # window this client created, so only talk to a live connection.
        if not self.app.display.closed:
            self.app.display.destroy_window(self.id)

    def handle_event(self, event) -> None:
        """Route one X event addressed to this window."""
        if event.type == ev.CONFIGURE_NOTIFY:
            # Keep the structure cache current even for changes made
            # behind our back (e.g. a window manager).
            self.x, self.y = event.x, event.y
            if (event.width, event.height) != (self.width, self.height):
                self.width, self.height = event.width, event.height
                self._size_changed()
        for mask, handler in list(self._handlers):
            # A handler (or a binding it triggered) may destroy this
            # window — or the whole application — mid-dispatch; the
            # rest of the event must then die with it.
            if self.destroyed:
                return
            if mask & (ev.MASK_FOR_TYPE.get(event.type) or 0) or \
                    ev.MASK_FOR_TYPE.get(event.type) == 0:
                handler(event)
        if self.destroyed:
            return
        self.app.bindings.dispatch(self, event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TkWindow %s (%s) %dx%d>" % (self.path, self.class_name,
                                             self.width, self.height)


class TkApp:
    """One Tk-based application."""

    def __init__(self, server: XServer, name: str = "tk",
                 interp: Optional[Interp] = None,
                 main_class: str = "Toplevel",
                 cache_enabled: bool = True,
                 buffering_enabled: bool = True,
                 register_commands: bool = True,
                 transport=None):
        self.server = server
        self.display = Display(server, buffering_enabled=buffering_enabled,
                               transport=transport)
        self.interp = interp if interp is not None else Interp()
        # Application-wide observability hub on the server's virtual
        # clock.  The server's registry is *mounted* (x11.* metrics are
        # server-wide — the server may be shared between applications)
        # and its tracer shared (one tracer per display); the
        # interpreter's registry is *absorbed* so one `obs dump` covers
        # x11 + tk + tcl.
        from ..obs import Observability
        self.obs = Observability(clock=lambda: server.time_ms,
                                 tracer=server.obs.tracer)
        self.obs.server = server
        self.obs.metrics.mount(server.obs.metrics)
        self.interp.rebind_obs(self.obs)
        self._m_events = self.obs.metrics.counter("tk.events.dispatched")
        # An X protocol error surfacing inside a Tcl command becomes an
        # ordinary TclError: scripts can catch it, bgerror can report
        # it, and the event loop survives it.
        from ..x11.xserver import XProtocolError
        if XProtocolError not in self.interp.native_error_types:
            self.interp.native_error_types = \
                self.interp.native_error_types + (XProtocolError,)
        self.cache = ResourceCache(self.display, enabled=cache_enabled,
                                   metrics=self.obs.metrics)
        self.options = OptionDatabase()
        self.bindings = BindingTable(self.interp)
        self.dispatcher = EventDispatcher(self)
        self.packer = Packer()
        self.destroyed = False
        self._reporting_error = False
        self.focus_window: Optional[TkWindow] = None
        self.grab_window: Optional[TkWindow] = None
        self._windows_by_path: Dict[str, TkWindow] = {}
        self._windows_by_id: Dict[int, TkWindow] = {}
        self._after_scripts: Dict[int, int] = {}
        self.main = TkWindow(self, ".", None, main_class,
                             width=200, height=200)
        self._register_window(self.main)
        # Key events propagate to the top level if no inner window wants
        # them; always listen there so focus redirection (section 3.7)
        # sees every keystroke in the application.
        self.main.add_event_handler(
            ev.KEY_PRESS_MASK | ev.KEY_RELEASE_MASK, lambda event: None)
        self._load_resource_manager_property()
        # Managers that need the window up-front.
        from .selection import SelectionManager
        from .send import SendManager
        self.selection = SelectionManager(self)
        self.sender = SendManager(self, name)
        self.name = self.sender.name
        if register_commands:
            from . import cmds
            from ..widgets import register_widget_commands
            cmds.register_tk_commands(self)
            register_widget_commands(self)
        if not hasattr(server, "apps"):
            server.apps = []
        server.apps.append(self)
        self.main.map()
        # Deliver the startup requests; applications must be visible on
        # the server as soon as the constructor returns (tests and other
        # clients inspect server state directly).
        self.display.flush()

    # ------------------------------------------------------------------
    # window table (section 3.1)
    # ------------------------------------------------------------------

    def window(self, path: str) -> TkWindow:
        window = self._windows_by_path.get(path)
        if window is None or window.destroyed:
            raise TclError('bad window path name "%s"' % path)
        return window

    def window_exists(self, path: str) -> bool:
        window = self._windows_by_path.get(path)
        return window is not None and not window.destroyed

    def create_window(self, path: str, class_name: str,
                      width: int = 1, height: int = 1) -> TkWindow:
        if path in self._windows_by_path and \
                not self._windows_by_path[path].destroyed:
            raise TclError('window name "%s" already exists in parent'
                           % parse_path(path)[1])
        parent_path, leaf = parse_path(path)
        if not leaf:
            raise TclError('bad window path name "%s"' % path)
        parent = self.window(parent_path)
        window = TkWindow(self, path, parent, class_name, width, height)
        self._register_window(window)
        return window

    def _register_window(self, window: TkWindow) -> None:
        self._windows_by_path[window.path] = window
        self._windows_by_id[window.id] = window

    def _forget_window(self, window: TkWindow) -> None:
        self._windows_by_path.pop(window.path, None)
        self._windows_by_id.pop(window.id, None)
        self.bindings.drop_tag(window.path)
        if self.focus_window is window:
            self.focus_window = None
        if window.path != ".":
            self.interp.commands.pop(window.path, None)
        if window is self.main:
            self.destroy()

    # ------------------------------------------------------------------
    # event routing
    # ------------------------------------------------------------------

    def deliver_event(self, event) -> None:
        if self.destroyed:
            return
        kind = event.type
        if kind == ev.PROPERTY_NOTIFY and self.sender.maybe_handle(event):
            return
        if kind in _SELECTION_EVENTS and self.selection.maybe_handle(event):
            return
        window = self._windows_by_id.get(event.window)
        if window is None or window.destroyed:
            return
        if self.grab_window is not None and \
                self._blocked_by_grab(window, event):
            return
        if (kind == ev.KEY_PRESS or kind == ev.KEY_RELEASE) and \
                self.focus_window is not None and \
                not self.focus_window.destroyed:
            # Focus management (section 3.7): all keystrokes in any
            # window of the application go to the focus window.
            window = self.focus_window
        self._m_events.value += 1
        tracer = self.obs.tracer
        if tracer.enabled:
            span = tracer.begin("event", event.name, window.path)
            try:
                window.handle_event(event)
            finally:
                tracer.finish(span)
        else:
            window.handle_event(event)

    def set_focus(self, window: Optional[TkWindow]) -> None:
        self.focus_window = window

    def _blocked_by_grab(self, window: TkWindow, event) -> bool:
        """Pointer events outside a grab's subtree are discarded."""
        grab = self.grab_window
        if grab is None or grab.destroyed:
            self.grab_window = None
            return False
        if event.type not in (ev.BUTTON_PRESS, ev.BUTTON_RELEASE,
                              ev.MOTION_NOTIFY, ev.ENTER_NOTIFY,
                              ev.LEAVE_NOTIFY):
            return False
        current: Optional[TkWindow] = window
        while current is not None:
            if current is grab:
                return False
            current = current.parent
        return True

    # ------------------------------------------------------------------
    # option database wiring
    # ------------------------------------------------------------------

    def _load_resource_manager_property(self) -> None:
        """Read user preferences from the RESOURCE_MANAGER root property."""
        atom = self.display.intern_atom("RESOURCE_MANAGER")
        entry = self.display.get_property(self.display.root, atom)
        if entry is not None and isinstance(entry[1], str):
            self.options.load_string(entry[1])

    def option_path(self, window: TkWindow) -> Tuple[List[str], List[str]]:
        """``window``'s option-database levels, from the application
        down: its names and its classes (see ``OptionDatabase.get``)."""
        names: List[str] = []
        classes: List[str] = []
        current: Optional[TkWindow] = window
        while current is not None:
            names.append(current.name if current.path != "." else self.name)
            classes.append(current.class_name)
            current = current.parent
        names.reverse()
        classes.reverse()
        return names, classes

    # ------------------------------------------------------------------
    # background-error reporting (Tk's tkerror/bgerror mechanism)
    # ------------------------------------------------------------------

    def report_background_error(self, error) -> bool:
        """Report an error that escaped an event callback.

        If the application defines a ``bgerror`` proc (or the historical
        ``tkerror``), the error is handed to it and the dispatch loop
        keeps running; returns False when no handler exists, in which
        case the caller re-raises and the error unwinds as before.
        Both Tcl errors and X protocol errors are reported this way, so
        a BadWindow raised inside a binding cannot kill ``pump_all``.
        """
        if self._reporting_error:
            return False
        # Forensics first: if a flight-dump directory is configured,
        # capture the last few virtual seconds of telemetry before any
        # bgerror proc gets a chance to mutate state (never raises).
        self.obs.flight_autodump("bgerror")
        handler = None
        for candidate in ("bgerror", "tkerror"):
            if candidate in self.interp.commands:
                handler = candidate
                break
        if handler is None:
            return False
        from ..tcl.lists import quote_element
        message = getattr(error, "message", None) or str(error)
        self._reporting_error = True
        try:
            self.interp.eval_global(
                "%s %s" % (handler, quote_element(message)))
        except Exception:
            pass    # a broken bgerror must not re-kill the loop
        finally:
            self._reporting_error = False
        return True

    def connection_lost(self, error) -> None:
        """The display connection died (fault injection, server gone).

        Mirrors Tk's X I/O error handling: report once through the
        background-error path so scripts get to see it, then tear the
        application down — there is no wire left to keep running on.
        """
        if self.destroyed:
            return
        self.report_background_error(error)
        self.destroy()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def update(self) -> int:
        """Process all pending events (the ``update`` command)."""
        return self.dispatcher.update()

    def mainloop(self, until=None, max_iterations: int = 1000000) -> None:
        self.dispatcher.mainloop(until, max_iterations)

    def destroy(self) -> None:
        if self.destroyed:
            return
        self.destroyed = True
        # The display's tracer keeps running for the other
        # applications on it, and its spans stay readable.
        self.interp.detach_tracer()
        if not self.main.destroyed:
            self.main.destroy()
        self.sender.unregister()
        self.display.close()
        if self in getattr(self.server, "apps", []):
            self.server.apps.remove(self)


def pump_all(server: XServer, max_rounds: int = 10000) -> int:
    """Process pending events for every application on ``server``.

    In-process stand-in for the X scheduler: used by send/selection
    waits and by tests that need two applications to make progress.
    Returns the number of rounds in which any application did work, so
    callers (the send wait loop) can detect a quiescent system.
    """
    worked = 0
    for _ in range(max_rounds):
        busy = False
        for app in list(getattr(server, "apps", [])):
            if not app.destroyed and app.dispatcher.do_one_event():
                busy = True
        if not busy:
            break
        worked += 1
    return worked
