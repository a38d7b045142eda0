"""Menu and menubutton widgets.

The second of the two widget types the paper (section 7) lists as
still to be implemented.  A menu is a window holding entries (command,
checkbutton, radiobutton, separator); it stays unmapped until *posted*.
A menubutton posts its associated menu when pressed.  Entry actions
are, as everywhere in Tk, Tcl commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..tcl.errors import TclError
from ..tcl.strings import _to_int
from ..tk.widget import OptionSpec, Widget
from ..x11 import events as ev
from .buttons import Button


@dataclass
class MenuEntry:
    """One entry of a menu."""

    type: str                       # command/checkbutton/radiobutton/separator
    options: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.options.get("label", "")


_ENTRY_OPTIONS = {"label", "command", "variable", "value", "onvalue",
                  "offvalue", "state"}


class Menu(Widget):
    widget_class = "Menu"
    option_specs = (
        OptionSpec("activebackground", "activeBackground", "Foreground",
                   "#eeeeee"),
        OptionSpec("background", "background", "Background", "#dddddd",
                   synonyms=("bg",)),
        OptionSpec("borderwidth", "borderWidth", "BorderWidth", "2",
                   synonyms=("bd",)),
        OptionSpec("font", "font", "Font", "fixed"),
        OptionSpec("foreground", "foreground", "Foreground", "black",
                   synonyms=("fg",)),
        OptionSpec("relief", "relief", "Relief", "raised"),
    )

    def __init__(self, app, path: str, argv):
        self.entries: List[MenuEntry] = []
        self.active_index: Optional[int] = None
        self.posted = False
        super().__init__(app, path, argv)
        self.window.add_event_handler(
            ev.BUTTON_RELEASE_MASK | ev.POINTER_MOTION_MASK,
            self._on_event)

    # -- widget commands ----------------------------------------------------

    def cmd_add(self, args: List[str]) -> str:
        """add type ?-label x -command c ...?"""
        if not args:
            raise TclError(
                'wrong # args: should be "%s add type ?options?"'
                % self.path)
        entry_type = args[0]
        if entry_type not in ("command", "checkbutton", "radiobutton",
                              "separator"):
            raise TclError(
                'bad menu entry type "%s": must be command, checkbutton, '
                'radiobutton, or separator' % entry_type)
        entry = MenuEntry(entry_type)
        entry.options.update(self._parse_entry_options(args[1:]))
        self.entries.append(entry)
        self.update_geometry()
        self.schedule_redraw()
        return ""

    def _parse_entry_options(self, args: List[str]) -> dict:
        if len(args) % 2 != 0:
            raise TclError('value for "%s" missing' % args[-1])
        options = {}
        for position in range(0, len(args), 2):
            switch = args[position]
            if not switch.startswith("-") or \
                    switch[1:] not in _ENTRY_OPTIONS:
                raise TclError('unknown menu entry option "%s"' % switch)
            options[switch[1:]] = args[position + 1]
        return options

    def cmd_entryconfigure(self, args: List[str]) -> str:
        if len(args) < 1:
            raise TclError(
                'wrong # args: should be "%s entryconfigure index '
                '?options?"' % self.path)
        entry = self._entry(args[0])
        entry.options.update(self._parse_entry_options(args[1:]))
        self.schedule_redraw()
        return ""

    def cmd_delete(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TclError('wrong # args: should be "%s delete index"'
                           % self.path)
        index = self._entry_index(args[0])
        del self.entries[index]
        self.update_geometry()
        self.schedule_redraw()
        return ""

    def cmd_index(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TclError('wrong # args: should be "%s index string"'
                           % self.path)
        return str(self._entry_index(args[0]))

    def cmd_invoke(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TclError('wrong # args: should be "%s invoke index"'
                           % self.path)
        return self.invoke(self._entry_index(args[0]))

    def cmd_activate(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TclError('wrong # args: should be "%s activate index"'
                           % self.path)
        self.active_index = self._entry_index(args[0])
        self.schedule_redraw()
        return ""

    def cmd_post(self, args: List[str]) -> str:
        """post x y — display the menu at root coordinates x, y."""
        if len(args) != 2:
            raise TclError('wrong # args: should be "%s post x y"'
                           % self.path)
        self.post(_to_int(args[0]), _to_int(args[1]))
        return ""

    def cmd_unpost(self, args: List[str]) -> str:
        self.unpost()
        return ""

    def cmd_size(self, args: List[str]) -> str:
        return str(len(self.entries))

    # -- entry lookup --------------------------------------------------------

    def _entry_index(self, text: str) -> int:
        if text == "last":
            index = len(self.entries) - 1
        elif text == "active":
            if self.active_index is None:
                raise TclError("no active menu entry")
            index = self.active_index
        else:
            for position, entry in enumerate(self.entries):
                if entry.label == text:
                    return position
            index = _to_int(text)
        if not 0 <= index < len(self.entries):
            raise TclError('bad menu entry index "%s"' % text)
        return index

    def _entry(self, text: str) -> MenuEntry:
        return self.entries[self._entry_index(text)]

    # -- posting and invoking --------------------------------------------

    def post(self, x: int, y: int) -> None:
        parent_x, parent_y = (0, 0)
        if self.window.parent is not None:
            parent_x, parent_y = self.window.parent.root_position()
        self.window.move_resize(x - parent_x, y - parent_y,
                                self.window.requested_width,
                                self.window.requested_height)
        self.posted = True
        self.window.map()
        self.schedule_redraw()

    def unpost(self) -> None:
        self.posted = False
        self.active_index = None
        self.window.unmap()

    def invoke(self, index: int) -> str:
        entry = self.entries[index]
        interp = self.app.interp
        if entry.type == "separator" or \
                entry.options.get("state") == "disabled":
            return ""
        if entry.type == "checkbutton":
            variable = entry.options.get("variable", entry.label)
            onvalue = entry.options.get("onvalue", "1")
            offvalue = entry.options.get("offvalue", "0")
            current = interp.get_global_var(variable) \
                if interp.var_exists(variable) else offvalue
            interp.set_global_var(
                variable, offvalue if current == onvalue else onvalue)
        elif entry.type == "radiobutton":
            variable = entry.options.get("variable", "selectedButton")
            interp.set_global_var(variable,
                                  entry.options.get("value", entry.label))
        command = entry.options.get("command", "")
        result = ""
        if command:
            result = interp.eval_global(command)
        self.schedule_redraw()
        return result

    # -- behaviour -------------------------------------------------------

    def _on_event(self, event) -> None:
        if not self.posted:
            return
        index = self._entry_at(event.y)
        if event.type == ev.MOTION_NOTIFY:
            if index != self.active_index:
                self.active_index = index
                self.schedule_redraw()
        elif event.type == ev.BUTTON_RELEASE:
            self.unpost()
            if index is not None:
                self.invoke(index)

    def _entry_at(self, y: int) -> Optional[int]:
        font = self.font()
        index = y // max(1, font.line_height + 2)
        if 0 <= index < len(self.entries):
            return index
        return None

    # -- geometry ----------------------------------------------------------

    def preferred_size(self) -> Tuple[int, int]:
        font = self.font()
        width = max([font.text_width(entry.label)
                     for entry in self.entries] or [20]) + 24
        height = max(1, len(self.entries)) * (font.line_height + 2) + 4
        return (width, height)

    # -- drawing ----------------------------------------------------------

    def draw(self) -> None:
        display = self.app.display
        font = self.font()
        gc = self.app.cache.gc(foreground=self.color("foreground"),
                               font=font.name)
        active_gc = self.app.cache.gc(
            foreground=self.color("activebackground"))
        for position, entry in enumerate(self.entries):
            y = 2 + position * (font.line_height + 2)
            if position == self.active_index:
                display.fill_rectangle(self.window.id, active_gc, 1, y,
                                       self.window.width - 2,
                                       font.line_height)
            if entry.type == "separator":
                display.draw_line(self.window.id, gc, 2,
                                  y + font.line_height // 2,
                                  self.window.width - 2,
                                  y + font.line_height // 2)
            else:
                marker = ""
                if entry.type in ("checkbutton", "radiobutton"):
                    marker = "* " if self._entry_selected(entry) else "  "
                display.draw_string(self.window.id, gc, 12, y,
                                    marker + entry.label)
        self.draw_border()

    def _entry_selected(self, entry: MenuEntry) -> bool:
        interp = self.app.interp
        variable = entry.options.get("variable",
                                     entry.label if entry.type ==
                                     "checkbutton" else "selectedButton")
        if not interp.var_exists(variable):
            return False
        current = interp.get_global_var(variable)
        if entry.type == "checkbutton":
            return current == entry.options.get("onvalue", "1")
        return current == entry.options.get("value", entry.label)


class Menubutton(Button):
    """A button that posts an associated menu when pressed."""

    widget_class = "Menubutton"
    option_specs = Button.option_specs + (
        OptionSpec("menu", "menu", "Menu", ""),
    )

    def _on_event(self, event) -> None:
        if self.options["state"] == "disabled":
            return
        if event.type == ev.BUTTON_PRESS and event.button == 1:
            self._post_menu()
        else:
            super()._on_event(event)

    def invoke(self) -> None:
        self._post_menu()

    def _post_menu(self) -> None:
        menu_path = self.options["menu"]
        if not menu_path:
            return
        menu_window = self.app.window(menu_path)
        menu = menu_window.widget
        if menu is None:
            raise TclError('"%s" is not a menu' % menu_path)
        root_x, root_y = self.window.root_position()
        menu.post(root_x, root_y + self.window.height)
