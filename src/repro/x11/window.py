"""Server-side window objects for the simulated X server.

Windows form a tree rooted at the screen's root window.  Each window
records its geometry, map state, per-client event selections, its
properties, and the drawing operations performed into it (consumed by
the renderer to produce screen dumps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class DrawOp:
    """One recorded drawing request (for the renderer)."""

    kind: str            # 'fill', 'rect', 'text', 'line', 'clear'
    args: tuple
    gc_values: dict


class Window:
    """A server-side window."""

    def __init__(self, wid: int, parent: Optional["Window"], x: int, y: int,
                 width: int, height: int, border_width: int = 0,
                 creator=None):
        self.id = wid
        self.parent = parent
        self.children: List["Window"] = []
        self.x = x
        self.y = y
        self.width = max(1, width)
        self.height = max(1, height)
        self.border_width = border_width
        self.mapped = False
        self.destroyed = False
        self.background: Optional[int] = None
        self.creator = creator
        #: client -> event mask selected on this window.
        self.event_selections: Dict[object, int] = {}
        #: True once the owner granted other clients property-write
        #: access (mailbox windows: send comm, selection requestors)
        self.properties_open = False
        #: atom -> (type_atom, value)
        self.properties: Dict[int, Tuple[int, object]] = {}
        self.draw_ops: List[DrawOp] = []
        if parent is not None:
            parent.children.append(self)

    # -- tree queries ----------------------------------------------------

    def ancestors(self):
        window = self.parent
        while window is not None:
            yield window
            window = window.parent

    def is_viewable(self) -> bool:
        """Mapped, and so are all its ancestors."""
        if not self.mapped:
            return False
        return all(ancestor.mapped for ancestor in self.ancestors())

    def root_position(self) -> Tuple[int, int]:
        """Position of this window's origin in root coordinates."""
        x, y = self.x, self.y
        for ancestor in self.ancestors():
            x += ancestor.x
            y += ancestor.y
        return x, y

    def window_at(self, root_x: int, root_y: int) -> "Window":
        """Deepest viewable window containing the given root point.

        Assumes the point is inside this window.  Children later in the
        stacking list are on top, so they are searched first.  The
        descent carries the point in the current window's coordinates,
        so each child test is a comparison against its own geometry.
        """
        origin_x, origin_y = self.root_position()
        x, y = root_x - origin_x, root_y - origin_y
        window = self
        while True:
            for child in reversed(window.children):
                if child.mapped and \
                        child.x <= x < child.x + child.width and \
                        child.y <= y < child.y + child.height:
                    x -= child.x
                    y -= child.y
                    window = child
                    break
            else:
                return window

    # -- drawing record ----------------------------------------------------

    def record(self, kind: str, args: tuple, gc_values: dict) -> None:
        self.draw_ops.append(DrawOp(kind, args, dict(gc_values)))

    def clear_drawing(self) -> None:
        self.draw_ops = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Window %d %dx%d+%d+%d%s>" % (
            self.id, self.width, self.height, self.x, self.y,
            " mapped" if self.mapped else "")
