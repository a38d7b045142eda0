"""Tcl commands for the Tk intrinsics.

In Xt the intrinsics exist only as C procedures; Tk also exposes
virtually all of them as Tcl commands (paper section 3), which is what
lets the look and feel of an application be queried and modified at any
moment, and lets whole applications be written as scripts.  This module
registers those commands: ``bind``, ``pack``, ``option``, ``selection``,
``focus``, ``send``, ``winfo``, ``destroy``, ``after``, ``update``,
``wm``, and ``tkwait``.
"""

from __future__ import annotations

from typing import List

from ..tcl.errors import TclError
from ..tcl.lists import format_list, parse_list
from ..tcl.strings import _to_int
from . import options as options_mod


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def register_tk_commands(app) -> None:
    """Register every intrinsics command in the application's interp."""
    interp = app.interp
    interp.tk_app = app
    for name, factory in _COMMANDS.items():
        interp.register(name, factory(app))
    from .place import register_place_command
    register_place_command(app)


def _bind_command(app):
    def cmd_bind(interp, argv: List[str]) -> str:
        """bind tag ?sequence? ?script?"""
        if len(argv) < 2 or len(argv) > 4:
            raise _wrong_args("bind window ?pattern? ?command?")
        tag = argv[1]
        if len(argv) == 2:
            return format_list(app.bindings.sequences(tag))
        if len(argv) == 3:
            return app.bindings.binding(tag, argv[2]) or ""
        app.bindings.bind(tag, argv[2], argv[3])
        _refresh_masks(app, tag)
        return ""
    return cmd_bind


def _refresh_masks(app, tag: str) -> None:
    """Re-select X event masks on the windows a binding tag covers."""
    if tag.startswith("."):
        if app.window_exists(tag):
            app.window(tag).update_select_mask()
        return
    for window in list(app._windows_by_path.values()):
        if not window.destroyed and tag in window.binding_tags():
            window.update_select_mask()


def _pack_command(app):
    def cmd_pack(interp, argv: List[str]) -> str:
        """pack append parent window options ?window options ...?

        Also: pack unpack window; pack info parent.
        """
        if len(argv) < 3:
            raise _wrong_args("pack option arg ?arg ...?")
        option = argv[1]
        if option in ("append", "before", "after"):
            return _pack_append(app, option, argv[2:])
        if option in ("unpack", "forget"):
            for path in argv[2:]:
                app.packer.unpack(app.window(path))
            return ""
        if option == "info":
            return _pack_info(app, argv[2])
        raise TclError(
            'bad option "%s": should be append, unpack, or info' % option)
    return cmd_pack


def _pack_append(app, mode: str, args: List[str]) -> str:
    if mode == "append":
        parent = app.window(args[0])
        pairs = args[1:]
        position = None
    else:
        # pack before/after sibling win options ...
        sibling = app.window(args[0])
        parent = sibling.parent
        if parent is None:
            raise TclError("can't pack before/after a top-level window")
        position = app.packer.position_of(sibling)
        if mode == "after":
            position += 1
        pairs = args[1:]
    if len(pairs) % 2 != 0:
        raise TclError("window \"%s\" has no packing options" % pairs[-1])
    for index in range(0, len(pairs), 2):
        window = app.window(pairs[index])
        tokens = parse_list(pairs[index + 1])
        app.packer.append(parent, window, tokens, position)
        if position is not None:
            position += 1
    return ""


def _pack_info(app, parent_path: str) -> str:
    parent = app.window(parent_path)
    entries = []
    for slot in app.packer.slots_for(parent):
        tokens = [slot.side]
        if slot.fill_x and slot.fill_y:
            tokens.append("fill")
        elif slot.fill_x:
            tokens.append("fillx")
        elif slot.fill_y:
            tokens.append("filly")
        if slot.expand:
            tokens.append("expand")
        if slot.padx:
            tokens.extend(["padx", str(slot.padx)])
        if slot.pady:
            tokens.extend(["pady", str(slot.pady)])
        entries.append(format_list([slot.window.path,
                                    format_list(tokens)]))
    return format_list(entries)


def _option_command(app):
    def cmd_option(interp, argv: List[str]) -> str:
        """option add pattern value ?priority? | option get window name
        class | option clear | option readfile fileName ?priority?"""
        if len(argv) < 2:
            raise _wrong_args("option cmd arg ?arg ...?")
        sub = argv[1]
        if sub == "add":
            if len(argv) not in (4, 5):
                raise _wrong_args("option add pattern value ?priority?")
            priority = _priority(argv[4]) if len(argv) == 5 else \
                options_mod.PRIORITIES["interactive"]
            app.options.add(argv[2], argv[3], priority)
            return ""
        if sub == "get":
            if len(argv) != 5:
                raise _wrong_args("option get window name class")
            window = app.window(argv[2])
            value = app.options.get(*app.option_path(window),
                                    argv[3], argv[4])
            return value or ""
        if sub == "clear":
            app.options.clear()
            return ""
        if sub == "readfile":
            if len(argv) not in (3, 4):
                raise _wrong_args("option readfile fileName ?priority?")
            priority = _priority(argv[3]) if len(argv) == 4 else \
                options_mod.PRIORITIES["userDefault"]
            app.options.load_file(argv[2], priority)
            return ""
        raise TclError(
            'bad option "%s": should be add, clear, get, or readfile'
            % sub)
    return cmd_option


def _priority(text: str) -> int:
    if text in options_mod.PRIORITIES:
        return options_mod.PRIORITIES[text]
    try:
        value = int(text)
    except ValueError:
        raise TclError('bad priority level "%s"' % text)
    if not 0 <= value <= 100:
        raise TclError('bad priority level "%s"' % text)
    return value


def _selection_command(app):
    def cmd_selection(interp, argv: List[str]) -> str:
        """selection get | selection handle window script |
        selection own window"""
        if len(argv) < 2:
            raise _wrong_args("selection option ?arg ...?")
        sub = argv[1]
        if sub == "get":
            return app.selection.retrieve()
        if sub == "handle":
            if len(argv) != 4:
                raise _wrong_args("selection handle window script")
            window = app.window(argv[2])
            script = argv[3]
            app.selection.set_handler(
                window, lambda: interp.eval_global(script))
            return ""
        if sub == "own":
            if len(argv) == 2:
                owner = app.display.get_selection_owner(
                    app.selection.primary)
                tkwin = app._windows_by_id.get(owner)
                return tkwin.path if tkwin is not None else ""
            window = app.window(argv[2])
            app.selection.claim(window)
            return ""
        raise TclError(
            'bad option "%s": should be get, handle, or own' % sub)
    return cmd_selection


def _focus_command(app):
    def cmd_focus(interp, argv: List[str]) -> str:
        """focus ?window? — query or assign the application's focus."""
        if len(argv) == 1:
            return app.focus_window.path if app.focus_window is not None \
                else "none"
        if len(argv) != 2:
            raise _wrong_args("focus ?window?")
        if argv[1] == "none":
            app.set_focus(None)
            return ""
        app.set_focus(app.window(argv[1]))
        return ""
    return cmd_focus


def _send_command(app):
    def cmd_send(interp, argv: List[str]) -> str:
        """send ?-async? ?--? appName command ?arg ...?

        With ``-async`` the command is delivered fire-and-forget: no
        reply is requested, the sender does not block, and errors in
        the target are reported through its own bgerror instead.
        """
        args = argv[1:]
        wait = True
        while args and args[0].startswith("-"):
            if args[0] == "-async":
                wait = False
                args = args[1:]
            elif args[0] == "--":
                args = args[1:]
                break
            else:
                raise TclError('bad option "%s": must be -async or --'
                               % args[0])
        if len(args) < 2:
            raise _wrong_args(
                "send ?-async? interpName command ?arg ...?")
        script = " ".join(args[1:])
        return app.sender.send(args[0], script, wait=wait)
    return cmd_send


def _winfo_command(app):
    def cmd_winfo(interp, argv: List[str]) -> str:
        if len(argv) < 2:
            raise _wrong_args("winfo option ?arg?")
        sub = argv[1]
        if sub == "interps":
            return format_list(app.sender.application_names())
        if sub == "screenwidth":
            return str(app.display.screen_width)
        if sub == "screenheight":
            return str(app.display.screen_height)
        if sub == "containing":
            if len(argv) != 4:
                raise _wrong_args("winfo containing rootX rootY")
            target = app.server.root.window_at(_to_int(argv[2]),
                                               _to_int(argv[3]))
            tkwin = app._windows_by_id.get(target.id)
            return tkwin.path if tkwin is not None else ""
        if len(argv) != 3:
            raise _wrong_args("winfo %s window" % sub)
        path = argv[2]
        if sub == "exists":
            return "1" if app.window_exists(path) else "0"
        window = app.window(path)
        if sub == "name":
            return window.name if path != "." else app.name
        if sub == "class":
            return window.class_name
        if sub == "parent":
            return window.parent.path if window.parent is not None else ""
        if sub == "children":
            return format_list(child.path for child in window.children
                               if not child.destroyed)
        if sub == "width":
            return str(window.width)
        if sub == "height":
            return str(window.height)
        if sub == "reqwidth":
            return str(window.requested_width)
        if sub == "reqheight":
            return str(window.requested_height)
        if sub == "x":
            return str(window.x)
        if sub == "y":
            return str(window.y)
        if sub in ("rootx", "rooty"):
            root_x, root_y = window.root_position()
            return str(root_x if sub == "rootx" else root_y)
        if sub == "ismapped":
            return "1" if window.mapped else "0"
        if sub == "geometry":
            return "%dx%d+%d+%d" % (window.width, window.height,
                                    window.x, window.y)
        if sub == "id":
            return str(window.id)
        if sub == "manager":
            return window.manager.name if window.manager is not None else ""
        if sub == "toplevel":
            current = window
            while current.parent is not None:
                current = current.parent
            return current.path
        raise TclError(
            'bad option "%s": must be children, class, containing, '
            'exists, geometry, height, id, interps, ismapped, manager, '
            'name, parent, reqheight, reqwidth, rootx, rooty, '
            'screenheight, screenwidth, toplevel, width, x, or y' % sub)
    return cmd_winfo


def _destroy_command(app):
    def cmd_destroy(interp, argv: List[str]) -> str:
        """destroy ?window ...? — destroy windows and their descendants."""
        for path in argv[1:]:
            if app.window_exists(path):
                app.window(path).destroy()
        return ""
    return cmd_destroy


def _after_command(app):
    def cmd_after(interp, argv: List[str]) -> str:
        """after ms ?script ...? | after cancel id"""
        if len(argv) < 2:
            raise _wrong_args("after milliseconds ?command?")
        if argv[1] == "cancel":
            if len(argv) != 3:
                raise _wrong_args("after cancel id")
            token = argv[2]
            if not token.startswith("after#"):
                raise TclError('bad after token "%s"' % token)
            app.dispatcher.cancel_after(_to_int(token[6:]))
            return ""
        ms = _to_int(argv[1])
        if len(argv) == 2:
            # Plain "after N" waits: advance the loop for N virtual ms.
            deadline = app.dispatcher.now() + ms
            app.dispatcher.after(ms, lambda: None)
            while app.dispatcher.now() < deadline and not app.destroyed:
                if not app.dispatcher.do_one_event(block=True):
                    break
            return ""
        script = " ".join(argv[2:])
        timer_id = app.dispatcher.after(
            ms, lambda: interp.eval_background(script))
        return "after#%d" % timer_id
    return cmd_after


def _update_command(app):
    def cmd_update(interp, argv: List[str]) -> str:
        """update ?idletasks? — process pending events."""
        app.update()
        return ""
    return cmd_update


def _wm_command(app):
    def cmd_wm(interp, argv: List[str]) -> str:
        """wm option window ?args? — minimal window-manager interface."""
        if len(argv) < 3:
            raise _wrong_args("wm option window ?arg ...?")
        sub, window = argv[1], app.window(argv[2])
        if sub == "title":
            atom = app.display.intern_atom("WM_NAME")
            string = app.display.intern_atom("STRING")
            if len(argv) == 4:
                app.display.change_property(window.id, atom, string,
                                            argv[3])
                return ""
            entry = app.display.get_property(window.id, atom)
            return str(entry[1]) if entry is not None else ""
        if sub == "geometry":
            if len(argv) == 4:
                width, height, x, y = _parse_geometry(argv[3])
                window.explicit_size = True
                window.move_resize(x if x is not None else window.x,
                                   y if y is not None else window.y,
                                   width, height)
                manager = window.manager_of_children()
                if manager is not None:
                    manager.parent_configured(window)
                return ""
            return "%dx%d+%d+%d" % (window.width, window.height,
                                    window.x, window.y)
        if sub == "withdraw":
            window.unmap()
            return ""
        if sub == "deiconify":
            window.map()
            return ""
        raise TclError(
            'bad option "%s": should be deiconify, geometry, title, '
            'or withdraw' % sub)
    return cmd_wm


def _parse_geometry(spec: str):
    """Parse WxH, WxH+X+Y geometry specifications."""
    body = spec
    x = y = None
    if "+" in body:
        body, _, rest = body.partition("+")
        x_text, _, y_text = rest.partition("+")
        try:
            x, y = int(x_text), int(y_text)
        except ValueError:
            raise TclError('bad geometry specifier "%s"' % spec)
    width_text, sep, height_text = body.partition("x")
    if not sep:
        raise TclError('bad geometry specifier "%s"' % spec)
    try:
        return int(width_text), int(height_text), x, y
    except ValueError:
        raise TclError('bad geometry specifier "%s"' % spec)


def _raise_command(app):
    def cmd_raise(interp, argv: List[str]) -> str:
        """raise window — move a window to the top of its siblings."""
        if len(argv) != 2:
            raise _wrong_args("raise window")
        app.display.raise_window(app.window(argv[1]).id)
        return ""
    return cmd_raise


def _lower_command(app):
    def cmd_lower(interp, argv: List[str]) -> str:
        """lower window — move a window below all its siblings."""
        if len(argv) != 2:
            raise _wrong_args("lower window")
        app.display.lower_window(app.window(argv[1]).id)
        return ""
    return cmd_lower


def _grab_command(app):
    def cmd_grab(interp, argv: List[str]) -> str:
        """grab set window | grab release window | grab current

        While a grab is set, pointer events outside the grab window's
        subtree are discarded — the modal-dialog behaviour.
        """
        if len(argv) < 2:
            raise _wrong_args("grab option ?window?")
        option = argv[1]
        if option == "current":
            return app.grab_window.path \
                if app.grab_window is not None else ""
        if option == "set":
            if len(argv) != 3:
                raise _wrong_args("grab set window")
            app.grab_window = app.window(argv[2])
            return ""
        if option == "release":
            if len(argv) != 3:
                raise _wrong_args("grab release window")
            if app.grab_window is not None and \
                    app.grab_window.path == argv[2]:
                app.grab_window = None
            return ""
        # "grab window" shorthand for "grab set window".
        app.grab_window = app.window(option)
        return ""
    return cmd_grab


def _cutbuffer_command(app):
    def cmd_cutbuffer(interp, argv: List[str]) -> str:
        """cutbuffer get ?n? | cutbuffer set ?n? value

        The pre-ICCCM cut buffers: eight properties (CUT_BUFFER0..7) on
        the root window.  This is the other "traditional" transfer
        mechanism the paper's section 6 contrasts with send: a passive
        string, no negotiation, no remote invocation.
        """
        if len(argv) < 2:
            raise _wrong_args("cutbuffer option ?arg ...?")
        option = argv[1]
        rest = argv[2:]
        number = 0
        if rest and rest[0].isdigit():
            number = int(rest[0])
            rest = rest[1:]
        if not 0 <= number <= 7:
            raise TclError('bad cut buffer number "%d"' % number)
        atom = app.display.intern_atom("CUT_BUFFER%d" % number)
        string = app.display.intern_atom("STRING")
        if option == "get":
            entry = app.display.get_property(app.display.root, atom)
            return str(entry[1]) if entry is not None else ""
        if option == "set":
            if len(rest) != 1:
                raise _wrong_args("cutbuffer set ?number? value")
            app.display.change_property(app.display.root, atom, string,
                                        rest[0])
            # Cut buffers are shared state on the root window; deliver
            # now so other applications' reads see the store.
            app.display.flush()
            return ""
        raise TclError('bad option "%s": must be get or set' % option)
    return cmd_cutbuffer


def _tkwait_command(app):
    def cmd_tkwait(interp, argv: List[str]) -> str:
        """tkwait variable name | tkwait window path"""
        if len(argv) != 3:
            raise _wrong_args("tkwait variable|window name")
        mode, name = argv[1], argv[2]
        if mode == "window":
            app.mainloop(until=lambda: not app.window_exists(name))
            return ""
        if mode == "variable":
            from ..tcl.commands.variables import split_var_name
            var_name, var_index = split_var_name(name)

            def variable_set() -> bool:
                return interp.var_exists(var_name, var_index)

            app.mainloop(until=variable_set)
            return ""
        raise TclError('bad option "%s": must be variable or window'
                       % mode)
    return cmd_tkwait


def _inspect_command(app):
    def cmd_inspect(interp, argv: List[str]) -> str:
        """inspect ?appName? ?what? ?arg ...?

        tkinspect-style remote introspection over ``send`` (the paper's
        §6 trick): any wish application can pull another's metrics,
        span trace, profile, or session journal off the wire::

            inspect                      list running applications
            inspect NAME metrics ?pat?   NAME's metric listing
            inspect NAME trace           NAME's span tree
            inspect NAME profile ?n?     NAME's profile report
            inspect NAME journal ?n?     NAME's journal listing
            inspect NAME dump            NAME's full obs dump (JSON)

        Everything is implemented as ``send NAME {obs ...}``, so it
        works against any peer with the toolkit's obs layer — including
        this application itself.
        """
        if len(argv) == 1:
            return format_list(app.sender.application_names())
        if len(argv) < 3:
            raise _wrong_args("inspect ?appName what ?arg ...??")
        target, what = argv[1], argv[2]
        rest = argv[3:]
        if what == "metrics":
            if len(rest) > 1:
                raise _wrong_args("inspect appName metrics ?pattern?")
            script = "obs metrics" + (" {%s}" % rest[0] if rest else "")
        elif what == "trace":
            if rest:
                raise _wrong_args("inspect appName trace")
            script = "obs trace dump"
        elif what == "profile":
            if len(rest) > 1:
                raise _wrong_args("inspect appName profile ?limit?")
            script = "obs profile report" + \
                (" -limit %s" % rest[0] if rest else "")
        elif what == "journal":
            if len(rest) > 1:
                raise _wrong_args("inspect appName journal ?limit?")
            script = "obs journal dump" + \
                (" -limit %s" % rest[0] if rest else "")
        elif what == "dump":
            if rest:
                raise _wrong_args("inspect appName dump")
            script = "obs dump"
        else:
            raise TclError(
                'bad option "%s": should be dump, journal, metrics, '
                'profile, or trace' % what)
        return app.sender.send(target, script)
    return cmd_inspect


_COMMANDS = {
    "bind": _bind_command,
    "pack": _pack_command,
    "option": _option_command,
    "selection": _selection_command,
    "focus": _focus_command,
    "send": _send_command,
    "winfo": _winfo_command,
    "destroy": _destroy_command,
    "after": _after_command,
    "update": _update_command,
    "wm": _wm_command,
    "tkwait": _tkwait_command,
    "cutbuffer": _cutbuffer_command,
    "raise": _raise_command,
    "lower": _lower_command,
    "grab": _grab_command,
    "inspect": _inspect_command,
}
