"""The packer geometry manager (paper section 3.4, Figures 8-9).

The packer maintains, for each parent window, an ordered list of
*slots*.  Windows are processed in order, each taking a band of the
remaining cavity against one side of the parent (``top``, ``bottom``,
``left``, or ``right``); the window is then positioned inside its band
according to ``fill``/``anchor``, and ``expand`` distributes any
leftover cavity space among the windows that ask for it.

The Tcl syntax is the classic one from the paper::

    pack append . .scroll {right filly} .list {left expand fill}

The packer also performs geometry propagation: the requested size of
the parent is recomputed from its slots (using Tk's reverse-order
cavity algorithm), so a dialog ends up exactly big enough for its
contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..tcl.errors import TclError
from ..tcl.lists import parse_list
from . import geometry

_SIDES = ("top", "bottom", "left", "right")

_ANCHORS = {
    "center": (0.5, 0.5), "n": (0.5, 0.0), "s": (0.5, 1.0),
    "e": (1.0, 0.5), "w": (0.0, 0.5), "ne": (1.0, 0.0),
    "nw": (0.0, 0.0), "se": (1.0, 1.0), "sw": (0.0, 1.0),
}


@dataclass(eq=False)  # identity equality: slots are used as dict keys
class PackSlot:
    """One packed window and its packing options."""

    window: object
    side: str = "top"
    fill_x: bool = False
    fill_y: bool = False
    expand: bool = False
    padx: int = 0
    pady: int = 0
    anchor: str = "center"

    @property
    def slice_width(self) -> int:
        return self.window.requested_width + 2 * self.padx

    @property
    def slice_height(self) -> int:
        return self.window.requested_height + 2 * self.pady


def parse_options(tokens: List[str]) -> PackSlot:
    """Parse a packing-option list like {right filly padx 5}."""
    slot = PackSlot(window=None)
    position = 0
    while position < len(tokens):
        token = tokens[position]
        position += 1
        if token in _SIDES:
            slot.side = token
        elif token == "fill":
            slot.fill_x = True
            slot.fill_y = True
        elif token == "fillx":
            slot.fill_x = True
        elif token == "filly":
            slot.fill_y = True
        elif token in ("expand", "e"):
            slot.expand = True
        elif token in ("padx", "pady"):
            if position >= len(tokens):
                raise TclError(
                    '"%s" option must be followed by screen distance'
                    % token)
            try:
                amount = int(tokens[position])
            except ValueError:
                raise TclError('bad screen distance "%s"'
                               % tokens[position])
            position += 1
            if token == "padx":
                slot.padx = amount
            else:
                slot.pady = amount
        elif token == "frame":
            if position >= len(tokens) or \
                    tokens[position] not in _ANCHORS:
                raise TclError('bad anchor "%s": must be n, ne, e, se, '
                               's, sw, w, nw, or center'
                               % (tokens[position] if position <
                                  len(tokens) else ""))
            slot.anchor = tokens[position]
            position += 1
        else:
            raise TclError(
                'bad option "%s": should be top, bottom, left, right, '
                'expand, fill, fillx, filly, padx, pady, or frame'
                % token)
    return slot


class Packer(geometry.GeometryManager):
    """The packer: one instance serves a whole application."""

    name = "pack"

    def __init__(self):
        #: parent window -> ordered slots
        self._slots: Dict[object, List[PackSlot]] = {}
        #: child window -> its slot (for forget/child_request)
        self._slot_of: Dict[object, PackSlot] = {}
        #: child window -> parent window
        self._parent_of: Dict[object, object] = {}
        #: layout passes started so far, and (parent, number) of the
        #: last pass that ran to completion
        self._passes = 0
        self._completed: tuple = (None, 0)

    # ------------------------------------------------------------------
    # slot list manipulation
    # ------------------------------------------------------------------

    def append(self, parent, window, option_tokens: List[str],
               position: Optional[int] = None) -> None:
        """Add ``window`` to ``parent``'s packing list."""
        if window.parent is not parent:
            raise TclError(
                "can't pack %s inside %s: not its parent"
                % (window.path, parent.path))
        if window in self._slot_of:
            self.forget(window)
        slot = parse_options(option_tokens)
        slot.window = window
        slots = self._slots.setdefault(parent, [])
        if position is None:
            slots.append(slot)
        else:
            slots.insert(position, slot)
        self._slot_of[window] = slot
        self._parent_of[window] = parent
        geometry.claim(window, self)
        self.arrange(parent)

    def unpack(self, window) -> None:
        """Remove ``window`` from its packing list and unmap it."""
        if window not in self._slot_of:
            return
        parent = self._parent_of.pop(window)
        slot = self._slot_of.pop(window)
        self._slots[parent].remove(slot)
        geometry.release(window, self)
        if not window.destroyed:
            window.unmap()
        self.arrange(parent)

    forget = unpack

    def slots_for(self, parent) -> List[PackSlot]:
        return list(self._slots.get(parent, []))

    def position_of(self, window) -> int:
        parent = self._parent_of[window]
        return self._slots[parent].index(self._slot_of[window])

    # ------------------------------------------------------------------
    # geometry-manager protocol
    # ------------------------------------------------------------------

    def child_request(self, window) -> None:
        parent = self._parent_of.get(window)
        if parent is not None:
            self.arrange(parent)

    def parent_configured(self, parent) -> None:
        if parent in self._slots:
            self.arrange(parent)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def requested_size(self, parent) -> tuple:
        """Parent size needed to grant every slot its requested slice.

        Tk's reverse-order cavity computation: walking backwards, a
        top/bottom slot adds its height to the running need and widens
        it; a left/right slot adds its width.
        """
        need_width = 0
        need_height = 0
        for slot in reversed(self._slots.get(parent, [])):
            window = slot.window
            slice_width = window.requested_width + 2 * slot.padx
            slice_height = window.requested_height + 2 * slot.pady
            if slot.side == "top" or slot.side == "bottom":
                if slice_width > need_width:
                    need_width = slice_width
                need_height += slice_height
            else:
                if slice_height > need_height:
                    need_height = slice_height
                need_width += slice_width
        return max(need_width, 1), max(need_height, 1)

    def arrange(self, parent) -> None:
        """Assign geometry to every packed child of ``parent``."""
        slots = self._slots.get(parent)
        if not slots:
            return
        self._passes += 1
        number = self._passes
        if not parent.explicit_size:
            # Geometry propagation: ask that the parent be exactly big
            # enough for its slots.  A parent with a user-pinned size
            # (frame -geometry, wm geometry) keeps it.
            need_width, need_height = self.requested_size(parent)
            geometry.request_size(parent, need_width, need_height)
            # Resizing the parent usually re-arranged it already.  When
            # that nested pass finished and no pass began after it,
            # nothing has changed since, and this pass would only
            # repeat it on the same inputs.
            if self._completed == (parent, self._passes) and \
                    self._passes > number:
                return
        width, height = parent.width, parent.height

        extra_x, extra_y = self._expand_extras(slots, width, height)
        cavity_x, cavity_y = 0, 0
        cavity_w, cavity_h = width, height
        for slot in slots:
            side = slot.side
            if side == "top" or side == "bottom":
                band_h = slot.window.requested_height + 2 * slot.pady
                if extra_y:
                    band_h += extra_y.pop(slot, 0)
                if band_h > cavity_h:
                    band_h = cavity_h
                band_w = cavity_w
                band_x = cavity_x
                if side == "top":
                    band_y = cavity_y
                    cavity_y += band_h
                else:
                    band_y = cavity_y + cavity_h - band_h
                cavity_h -= band_h
            else:
                band_w = slot.window.requested_width + 2 * slot.padx
                if extra_x:
                    band_w += extra_x.pop(slot, 0)
                if band_w > cavity_w:
                    band_w = cavity_w
                band_h = cavity_h
                band_y = cavity_y
                if side == "left":
                    band_x = cavity_x
                    cavity_x += band_w
                else:
                    band_x = cavity_x + cavity_w - band_w
                cavity_w -= band_w
            self._place(slot, band_x, band_y, band_w, band_h,
                        width, height)
        self._completed = (parent, number)

    def _expand_extras(self, slots: List[PackSlot], width: int,
                       height: int) -> tuple:
        """Distribute leftover cavity space among expanding slots."""
        extra_x: Dict[PackSlot, int] = {}
        extra_y: Dict[PackSlot, int] = {}
        expanders_x = [slot for slot in slots if slot.expand and
                       slot.side in ("left", "right")]
        expanders_y = [slot for slot in slots if slot.expand and
                       slot.side in ("top", "bottom")]
        if expanders_x:
            used_x = sum(slot.slice_width for slot in slots
                         if slot.side in ("left", "right"))
            leftover_x = max(0, width - used_x)
            if leftover_x:
                share, remainder = divmod(leftover_x, len(expanders_x))
                for index, slot in enumerate(expanders_x):
                    extra_x[slot] = share + (1 if index < remainder else 0)
        if expanders_y:
            used_y = sum(slot.slice_height for slot in slots
                         if slot.side in ("top", "bottom"))
            leftover_y = max(0, height - used_y)
            if leftover_y:
                share, remainder = divmod(leftover_y, len(expanders_y))
                for index, slot in enumerate(expanders_y):
                    extra_y[slot] = share + (1 if index < remainder else 0)
        return extra_x, extra_y

    def _place(self, slot: PackSlot, band_x: int, band_y: int,
               band_w: int, band_h: int, parent_w: int,
               parent_h: int) -> None:
        """Size and position a window inside its band."""
        window = slot.window
        padx, pady = slot.padx, slot.pady
        inner_w = band_w - 2 * padx
        if inner_w < 0:
            inner_w = 0
        inner_h = band_h - 2 * pady
        if inner_h < 0:
            inner_h = 0
        width = inner_w
        if not slot.fill_x and window.requested_width < inner_w:
            width = window.requested_width
        height = inner_h
        if not slot.fill_y and window.requested_height < inner_h:
            height = window.requested_height
        if width < 1:
            width = 1
        if height < 1:
            height = 1
        fx, fy = _ANCHORS[slot.anchor]
        x = band_x + padx + int((inner_w - width) * fx)
        y = band_y + pady + int((inner_h - height) * fy)
        # A window whose band was squeezed to nothing still gets its
        # minimum 1x1 geometry; keep it inside the parent.
        if x > parent_w - width:
            x = parent_w - width
        if x < 0:
            x = 0
        if y > parent_h - height:
            y = parent_h - height
        if y < 0:
            y = 0
        window.move_resize(x, y, width, height)
        window.map()
