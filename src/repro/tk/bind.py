"""Event bindings (paper section 3.2 and Figure 7).

The ``bind`` command arranges for Tcl commands to be executed when X
events — or *sequences* of X events — occur in a window::

    bind .x <Enter>            {print "hi\\n"}
    bind .x a                  {print "you typed 'a'\\n"}
    bind .x <Escape>q          {print "you typed escape-q\\n"}
    bind .x <Double-Button-1>  {print "mouse at %x %y\\n"}

Before executing the command Tk replaces ``%`` sequences with fields
from the event (``%x``/``%y`` above).

This module implements the event-pattern language (modifiers,
Double/Triple counts, multi-event sequences), the per-window event
history used to match sequences, the specificity rules that pick one
binding when several match, and the ``%`` substitution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..tcl.errors import TclError
from ..tcl.lists import quote_element
from ..x11 import events as ev
from ..x11.keysyms import is_keysym

#: Double/Triple clicks must fall within this many milliseconds/pixels.
DOUBLE_TIME_MS = 500
DOUBLE_SPACE_PX = 20

#: Maximum events remembered for sequence matching.
_HISTORY = 12

_EVENT_TYPES = {
    "KeyPress": ev.KEY_PRESS, "Key": ev.KEY_PRESS,
    "KeyRelease": ev.KEY_RELEASE,
    "ButtonPress": ev.BUTTON_PRESS, "Button": ev.BUTTON_PRESS,
    "ButtonRelease": ev.BUTTON_RELEASE,
    "Motion": ev.MOTION_NOTIFY,
    "Enter": ev.ENTER_NOTIFY, "Leave": ev.LEAVE_NOTIFY,
    "FocusIn": ev.FOCUS_IN, "FocusOut": ev.FOCUS_OUT,
    "Expose": ev.EXPOSE,
    "Destroy": ev.DESTROY_NOTIFY,
    "Unmap": ev.UNMAP_NOTIFY, "Map": ev.MAP_NOTIFY,
    "Configure": ev.CONFIGURE_NOTIFY,
    "Property": ev.PROPERTY_NOTIFY,
}

_MODIFIERS = {
    "Control": ev.CONTROL_MASK,
    "Shift": ev.SHIFT_MASK,
    "Lock": ev.LOCK_MASK,
    "Meta": ev.MOD1_MASK, "M": ev.MOD1_MASK, "Alt": ev.MOD1_MASK,
    "B1": ev.BUTTON1_MASK, "Button1": ev.BUTTON1_MASK,
    "B2": ev.BUTTON2_MASK, "Button2": ev.BUTTON2_MASK,
    "B3": ev.BUTTON3_MASK, "Button3": ev.BUTTON3_MASK,
}

#: Extra event mask each event type requires the window to select.
_SELECT_MASKS = {
    ev.KEY_PRESS: ev.KEY_PRESS_MASK,
    ev.KEY_RELEASE: ev.KEY_RELEASE_MASK,
    ev.BUTTON_PRESS: ev.BUTTON_PRESS_MASK,
    ev.BUTTON_RELEASE: ev.BUTTON_RELEASE_MASK,
    ev.MOTION_NOTIFY: ev.POINTER_MOTION_MASK,
    ev.ENTER_NOTIFY: ev.ENTER_WINDOW_MASK,
    ev.LEAVE_NOTIFY: ev.LEAVE_WINDOW_MASK,
    ev.FOCUS_IN: ev.FOCUS_CHANGE_MASK,
    ev.FOCUS_OUT: ev.FOCUS_CHANGE_MASK,
    ev.EXPOSE: ev.EXPOSURE_MASK,
    ev.DESTROY_NOTIFY: ev.STRUCTURE_NOTIFY_MASK,
    ev.UNMAP_NOTIFY: ev.STRUCTURE_NOTIFY_MASK,
    ev.MAP_NOTIFY: ev.STRUCTURE_NOTIFY_MASK,
    ev.CONFIGURE_NOTIFY: ev.STRUCTURE_NOTIFY_MASK,
    ev.PROPERTY_NOTIFY: ev.PROPERTY_CHANGE_MASK,
}


@dataclass(frozen=True)
class EventPattern:
    """One element of a binding sequence."""

    event_type: int
    detail: str = ""          # keysym, or button number as a string
    modifiers: int = 0
    count: int = 1            # 2 for Double-, 3 for Triple-
    any_modifiers: bool = False

    def matches(self, event) -> bool:
        if event.type != self.event_type:
            return False
        if self.detail:
            if self.event_type in (ev.KEY_PRESS, ev.KEY_RELEASE):
                if event.keysym != self.detail:
                    return False
            elif self.event_type in (ev.BUTTON_PRESS, ev.BUTTON_RELEASE):
                if str(event.button) != self.detail:
                    return False
        if not self.any_modifiers and (self.modifiers & ~event.state):
            return False
        return True

    @property
    def specificity(self) -> tuple:
        return (self.count, 1 if self.detail else 0,
                bin(self.modifiers).count("1"))


def parse_sequence(sequence: str) -> Tuple[EventPattern, ...]:
    """Parse a binding sequence like ``<Escape>q``."""
    patterns: List[EventPattern] = []
    position = 0
    end = len(sequence)
    while position < end:
        ch = sequence[position]
        if ch in " \t":
            position += 1
            continue
        if ch == "<":
            close = sequence.find(">", position)
            if close < 0:
                raise TclError(
                    'missing ">" in binding "%s"' % sequence)
            patterns.append(_parse_angle(sequence[position + 1:close],
                                         sequence))
            position = close + 1
        else:
            patterns.append(EventPattern(ev.KEY_PRESS, detail=ch))
            position += 1
    if not patterns:
        raise TclError('no events specified in binding "%s"' % sequence)
    return tuple(patterns)


def _parse_angle(body: str, sequence: str) -> EventPattern:
    tokens = [token for token in body.split("-") if token]
    if not tokens:
        raise TclError('no event type in binding "%s"' % sequence)
    modifiers = 0
    count = 1
    any_modifiers = False
    event_type: Optional[int] = None
    detail = ""
    for token in tokens:
        if token in _MODIFIERS:
            modifiers |= _MODIFIERS[token]
        elif token == "Double":
            count = 2
        elif token == "Triple":
            count = 3
        elif token == "Any":
            any_modifiers = True
        elif token in _EVENT_TYPES:
            if event_type is not None:
                raise TclError(
                    'extra event type "%s" in binding "%s"'
                    % (token, sequence))
            event_type = _EVENT_TYPES[token]
        elif event_type is not None or detail:
            if detail:
                raise TclError(
                    'extra detail "%s" in binding "%s"' % (token, sequence))
            detail = token
        else:
            detail = token
    if event_type is None:
        if detail.isdigit():
            event_type = ev.BUTTON_PRESS
        elif detail and is_keysym(detail):
            event_type = ev.KEY_PRESS
        else:
            raise TclError(
                'bad event type or keysym "%s" in binding "%s"'
                % (detail or body, sequence))
    if detail and event_type in (ev.KEY_PRESS, ev.KEY_RELEASE) and \
            not is_keysym(detail):
        raise TclError('bad keysym "%s" in binding "%s"' % (detail,
                                                            sequence))
    return EventPattern(event_type, detail, modifiers, count,
                        any_modifiers)


@dataclass
class _Binding:
    sequence_text: str
    patterns: Tuple[EventPattern, ...]
    script: str
    #: Compiled form of ``script``, prepared at bind time when the
    #: script contains no % sequences (so the text to evaluate is the
    #: same for every event).  Rebinding replaces the whole _Binding,
    #: which invalidates this automatically.
    compiled: object = None

    @property
    def specificity(self) -> tuple:
        return (len(self.patterns) + self.patterns[-1].count - 1,
                self.patterns[-1].specificity)


class BindingTable:
    """All Tcl bindings of one application, indexed by tag.

    A tag is normally a window path name; widget class names (e.g.
    ``Button``) are also accepted so that default behaviours can be
    expressed in Tcl.
    """

    def __init__(self, interp):
        self.interp = interp
        self._bindings: Dict[str, Dict[str, _Binding]] = {}
        self._history: Dict[str, deque] = {}

    # -- binding management -------------------------------------------

    def bind(self, tag: str, sequence: str, script: str) -> None:
        patterns = parse_sequence(sequence)
        if not script:
            self.unbind(tag, sequence)
            return
        for pattern in patterns[:-1]:
            if pattern.event_type not in (ev.KEY_PRESS, ev.BUTTON_PRESS):
                raise TclError(
                    "only key and button presses may appear before the "
                    'last event of a binding: "%s"' % sequence)
        binding = _Binding(sequence, patterns, script)
        if "%" not in script:
            # Event handlers are the hottest re-evaluated scripts in a
            # running UI (paper section 3.2): compile them once here
            # rather than per dispatched event.  Scripts with %
            # sequences change text per event and go through
            # substitute_percents (and the interpreter's compile
            # cache) instead.
            binding.compiled = self.interp.compile(script)
        table = self._bindings.setdefault(tag, {})
        table[sequence] = binding

    def unbind(self, tag: str, sequence: str) -> None:
        table = self._bindings.get(tag)
        if table is not None:
            table.pop(sequence, None)

    def binding(self, tag: str, sequence: str) -> Optional[str]:
        table = self._bindings.get(tag, {})
        entry = table.get(sequence)
        return entry.script if entry is not None else None

    def sequences(self, tag: str) -> List[str]:
        return sorted(self._bindings.get(tag, {}))

    def drop_tag(self, tag: str) -> None:
        """Forget everything about a destroyed window."""
        self._bindings.pop(tag, None)
        self._history.pop(tag, None)

    def select_mask(self, tags: List[str]) -> int:
        """The X event mask a window must select for its bindings."""
        mask = 0
        for tag in tags:
            for binding in self._bindings.get(tag, {}).values():
                for pattern in binding.patterns:
                    mask |= _SELECT_MASKS.get(pattern.event_type, 0)
        return mask

    # -- event dispatch ---------------------------------------------------

    def dispatch(self, window, event) -> bool:
        """Run the best matching binding for ``event`` on ``window``.

        Candidates come from three tags — the window's path name, its
        widget class, and "all".  The most *specific* match wins
        (sequence length, detail, modifiers); between equally specific
        bindings, the more local tag wins (window over class over all).
        Returns True if a binding fired.
        """
        history = self._remember(window.path, event)
        best = None
        best_key = None
        for rank, tag in enumerate((window.path, window.class_name,
                                    "all")):
            binding = self._best_match(tag, event, history)
            if binding is None:
                continue
            key = (binding.specificity, -rank)
            if best_key is None or key > best_key:
                best, best_key = binding, key
        if best is None:
            return False
        tracer = self.interp._tracer
        if tracer.enabled:
            span = tracer.begin("binding", best.sequence_text, window.path)
            try:
                self._fire(best, window, event)
            finally:
                tracer.finish(span)
        else:
            self._fire(best, window, event)
        return True

    def _fire(self, binding: "_Binding", window, event) -> None:
        if binding.compiled is not None:
            self.interp.eval_background(binding.compiled)
        else:
            script = substitute_percents(binding.script, event, window)
            self.interp.eval_background(script)

    def _remember(self, path: str, event) -> deque:
        history = self._history.setdefault(path, deque(maxlen=_HISTORY))
        if event.type in (ev.KEY_PRESS, ev.BUTTON_PRESS):
            history.append(event)
        return history

    def _best_match(self, tag: str, event, history) -> Optional[_Binding]:
        best: Optional[_Binding] = None
        for binding in self._bindings.get(tag, {}).values():
            if not self._sequence_matches(binding, event, history):
                continue
            if best is None or binding.specificity > best.specificity:
                best = binding
        return best

    def _sequence_matches(self, binding: _Binding, event,
                          history) -> bool:
        patterns = binding.patterns
        last = patterns[-1]
        if not last.matches(event):
            return False
        if len(patterns) == 1 and last.count == 1:
            return True
        # Multi-event sequences and Double/Triple need the history
        # (which already ends with the current event if it is a press).
        events = list(history)
        if not events or events[-1] is not event:
            return False
        position = len(events) - 1
        for pattern in reversed(patterns):
            for repeat in range(pattern.count):
                if position < 0:
                    return False
                candidate = events[position]
                if not pattern.matches(candidate):
                    return False
                if repeat + 1 < pattern.count:
                    previous = events[position - 1] if position > 0 \
                        else None
                    if previous is None or \
                            not _close_in_time(previous, candidate):
                        return False
                position -= 1
        return True


def _close_in_time(earlier, later) -> bool:
    if later.time - earlier.time > DOUBLE_TIME_MS:
        return False
    return (abs(later.x_root - earlier.x_root) <= DOUBLE_SPACE_PX and
            abs(later.y_root - earlier.y_root) <= DOUBLE_SPACE_PX)


def substitute_percents(script: str, event, window) -> str:
    """Replace % sequences in a binding script with event fields."""
    out: List[str] = []
    i = 0
    end = len(script)
    while i < end:
        ch = script[i]
        if ch != "%" or i + 1 >= end:
            out.append(ch)
            i += 1
            continue
        code = script[i + 1]
        i += 2
        out.append(_percent_field(code, event, window))
    return "".join(out)


def _percent_field(code: str, event, window) -> str:
    if code == "%":
        return "%"
    if code == "x":
        return str(event.x)
    if code == "y":
        return str(event.y)
    if code == "X":
        return str(event.x_root)
    if code == "Y":
        return str(event.y_root)
    if code == "b":
        return str(event.button)
    if code == "k":
        return str(ord(event.keychar)) if event.keychar else "0"
    if code == "K":
        return event.keysym or "??"
    if code == "A":
        return quote_element(event.keychar) if event.keychar else "{}"
    if code == "W":
        return window.path
    if code == "w":
        return str(event.width)
    if code == "h":
        return str(event.height)
    if code == "t":
        return str(event.time)
    if code == "s":
        return str(event.state)
    if code == "T":
        return str(event.type)
    if code == "#":
        return str(event.serial)
    if code == "E":
        return "1" if event.send_event else "0"
    # Unknown % sequences are passed through untouched, as Tk does.
    return "%" + code
