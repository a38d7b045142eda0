"""Widget base class and configuration-option machinery (paper section 4).

Two kinds of Tcl commands manipulate widgets:

* a *creation command* per widget type (``button .hello -bg Red ...``)
  creates the window and its widget, configuring options from, in
  decreasing priority, the command line, the option database, and the
  widget type's defaults;
* a *widget command* named after the window (``.hello flash``,
  ``.hello configure -bg PalePink1``) manipulates the widget
  afterwards; ``configure`` is supported by every widget and may change
  any option at any time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..tcl.errors import TclError
from ..tcl.lists import format_list
from ..x11 import events as ev
from . import geometry
from .cache import CacheError


@dataclass(frozen=True)
class OptionSpec:
    """One configuration option of a widget class.

    ``name`` is the command-line switch (without the dash); ``db_name``
    and ``db_class`` key the option database (section 3.5); ``default``
    is the fallback when neither the command line nor the database
    supplies a value.
    """

    name: str
    db_name: str
    db_class: str
    default: str
    synonyms: Tuple[str, ...] = ()


def spec_table(specs: Sequence[OptionSpec]) -> Dict[str, OptionSpec]:
    """Index option specs by every accepted switch name."""
    table: Dict[str, OptionSpec] = {}
    for spec in specs:
        table[spec.name] = spec
        for synonym in spec.synonyms:
            table[synonym] = spec
    return table


class Widget:
    """Base class for all Tk widgets."""

    widget_class = "Widget"
    option_specs: Tuple[OptionSpec, ...] = ()
    #: widget-command subcommands every widget supports
    _common_commands = ("configure", "cget")

    def __init__(self, app, path: str, argv: Sequence[str]):
        self.app = app
        self.path = path
        self.options: Dict[str, str] = {}
        self._spec_table = spec_table(self.option_specs)
        self.window = app.create_window(path, self.widget_class)
        self.window.widget = self
        self._redraw_pending = False
        self._compiled_options: Dict[str, Tuple[str, object]] = {}
        self._initialize_options(argv)
        app.interp.register(path, self._widget_command)
        self.window.add_event_handler(ev.EXPOSURE_MASK, self._on_expose)
        self.configure_changed(list(self._spec_table))

    # ------------------------------------------------------------------
    # option handling
    # ------------------------------------------------------------------

    def _initialize_options(self, argv: Sequence[str]) -> None:
        supplied = self._parse_pairs(argv)
        path = None
        for spec in self.option_specs:
            if spec.name in supplied:
                value = supplied[spec.name]
            else:
                # Unspecified options: check the option database, then
                # fall back to the widget type's default (section 4).
                # The window's database path is walked once per widget,
                # as tkOption.c caches the last window's option stack.
                if path is None:
                    path = self.app.option_path(self.window)
                db_value = self.app.options.get(*path, spec.db_name,
                                                spec.db_class)
                value = db_value if db_value is not None else spec.default
            self.options[spec.name] = value

    def _parse_pairs(self, argv: Sequence[str]) -> Dict[str, str]:
        if len(argv) % 2 != 0:
            raise TclError(
                'value for "%s" missing' % argv[-1])
        supplied: Dict[str, str] = {}
        for position in range(0, len(argv), 2):
            switch, value = argv[position], argv[position + 1]
            spec = self._lookup_spec(switch)
            supplied[spec.name] = value
        return supplied

    def _lookup_spec(self, switch: str) -> OptionSpec:
        if not switch.startswith("-"):
            raise TclError('unknown option "%s"' % switch)
        name = switch[1:]
        spec = self._spec_table.get(name)
        if spec is None:
            raise TclError('unknown option "%s"' % switch)
        return spec

    def cget(self, switch: str) -> str:
        return self.options[self._lookup_spec(switch).name]

    def configure(self, argv: Sequence[str]) -> str:
        """The ``configure`` widget command."""
        if not argv:
            return format_list(self._describe(spec)
                               for spec in self.option_specs)
        if len(argv) == 1:
            return self._describe(self._lookup_spec(argv[0]))
        supplied = self._parse_pairs(argv)
        self.options.update(supplied)
        self.configure_changed(list(supplied))
        return ""

    def _describe(self, spec: OptionSpec) -> str:
        return format_list(["-" + spec.name, spec.db_name, spec.db_class,
                            spec.default, self.options[spec.name]])

    def configure_changed(self, changed: List[str]) -> None:
        """Hook: react to option changes (recompute size, redraw)."""
        self.update_geometry()
        self.schedule_redraw()

    def command_script(self, option_name: str = "command"):
        """The compiled form of a script-valued option such as
        ``-command``.

        A widget's command runs on every invocation (button press,
        keyboard traversal, ...) while its text rarely changes, so it
        is compiled once here.  The cache entry is keyed by the
        option's current value: ``configure -command ...`` invalidates
        it simply by changing the value.  Returns None when the option
        is empty.
        """
        value = self.options[option_name]
        if not value:
            return None
        cached = self._compiled_options.get(option_name)
        if cached is not None and cached[0] == value:
            return cached[1]
        compiled = self.app.interp.compile(value)
        self._compiled_options[option_name] = (value, compiled)
        return compiled

    # ------------------------------------------------------------------
    # resource helpers (textual descriptions through the cache, 3.3)
    # ------------------------------------------------------------------

    def color(self, option_name: str) -> int:
        try:
            return self.app.cache.pixel(self.options[option_name])
        except CacheError as error:
            raise TclError(str(error))

    def font(self):
        try:
            return self.app.cache.font(self.options["font"])
        except CacheError as error:
            raise TclError(str(error))

    def int_option(self, option_name: str) -> int:
        value = self.options[option_name]
        try:
            return int(value)
        except ValueError:
            raise TclError('bad screen distance "%s"' % value)

    # ------------------------------------------------------------------
    # geometry (section 3.4: widgets only *request* sizes)
    # ------------------------------------------------------------------

    def preferred_size(self) -> Tuple[int, int]:
        """Override: the widget's preferred window size."""
        return (self.window.requested_width, self.window.requested_height)

    def update_geometry(self) -> None:
        width, height = self.preferred_size()
        geometry.request_size(self.window, width, height)

    def size_changed(self) -> None:
        """The geometry manager assigned a new size."""
        self.schedule_redraw()

    # ------------------------------------------------------------------
    # drawing
    # ------------------------------------------------------------------

    def schedule_redraw(self) -> None:
        """Coalesce redraws into one when-idle handler, as Tk does."""
        if self._redraw_pending or self.window.destroyed:
            return
        self._redraw_pending = True
        self.app.dispatcher.when_idle(self._redraw_now)

    def _redraw_now(self) -> None:
        self._redraw_pending = False
        if self.window.destroyed or not self.window.mapped:
            return
        display = self.app.display
        display.clear_window(self.window.id)
        try:
            background = self.color("background") \
                if "background" in self.options else 0xFFFFFF
            display.set_window_background(self.window.id, background)
        except (TclError, KeyError):
            pass
        self.draw()

    def _on_expose(self, event) -> None:
        if event.type == ev.EXPOSE:
            self.schedule_redraw()

    def draw(self) -> None:
        """Override: render the widget into its window."""

    def draw_border(self, relief: Optional[str] = None) -> None:
        """Draw the widget's 3-D border (sunken/raised/flat)."""
        border = self.options.get("borderwidth", "0")
        try:
            width = int(border)
        except ValueError:
            width = 0
        if relief is None:
            relief = self.options.get("relief", "flat")
        if width <= 0 or relief == "flat":
            return
        gc = self.app.cache.gc(foreground=0x000000, relief=relief)
        self.app.display.draw_rectangle(
            self.window.id, gc, 0, 0,
            self.window.width - 1, self.window.height - 1)

    # ------------------------------------------------------------------
    # the widget command
    # ------------------------------------------------------------------

    def _widget_command(self, interp, argv: List[str]) -> str:
        if len(argv) < 2:
            raise TclError(
                'wrong # args: should be "%s option ?arg arg ...?"'
                % self.path)
        subcommand = argv[1]
        if subcommand == "configure":
            return self.configure(argv[2:])
        if subcommand == "cget":
            if len(argv) != 3:
                raise TclError('wrong # args: should be "%s cget option"'
                               % self.path)
            return self.cget(argv[2])
        method = getattr(self, "cmd_" + subcommand, None)
        if method is None:
            raise TclError(
                'bad option "%s": must be %s' %
                (subcommand, ", ".join(sorted(self._subcommands()))))
        return method(argv[2:]) or ""

    def _subcommands(self) -> List[str]:
        names = [name[4:] for name in dir(self)
                 if name.startswith("cmd_")]
        return names + list(self._common_commands)

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------

    def destroy(self) -> None:
        self.window.destroy()

    def cleanup(self) -> None:
        """Called by the window as it is destroyed."""
        self.app.selection.forget_window(self.window.id)


def creation_command(widget_factory, usage_name: str):
    """Build the Tcl *creation command* for a widget class.

    ``button .hello -bg Red`` creates the widget and returns the path
    name, which is now also a widget command (section 4).
    """

    def command(interp, argv):
        if len(argv) < 2:
            raise TclError(
                'wrong # args: should be "%s pathName ?options?"'
                % usage_name)
        app = _app_of(interp)
        try:
            widget = widget_factory(app, argv[1], argv[2:])
        except TclError:
            # Creation failed partway (e.g. a bad -font): tear down the
            # half-created window so the name can be reused.
            if app.window_exists(argv[1]):
                app.window(argv[1]).destroy()
            raise
        return widget.path

    return command


def _app_of(interp):
    app = getattr(interp, "tk_app", None)
    if app is None:
        raise TclError("no Tk application attached to this interpreter")
    return app
