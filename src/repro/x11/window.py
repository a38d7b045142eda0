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


# -- regions ---------------------------------------------------------------
#
# A region is a list of disjoint half-open rectangles (x0, y0, x1, y1).
# The server keeps visible regions in this form; Expose events carry
# them as banded (x, y, width, height) rectangles.

Rect = Tuple[int, int, int, int]


def clip_region(region: List[Rect], x0: int, y0: int, x1: int,
                y1: int) -> List[Rect]:
    """The part of ``region`` inside the rectangle."""
    return [(max(a, x0), max(b, y0), min(c, x1), min(d, y1))
            for a, b, c, d in region
            if a < x1 and x0 < c and b < y1 and y0 < d]


def subtract_rect(region: List[Rect], x0: int, y0: int, x1: int,
                  y1: int) -> List[Rect]:
    """The part of ``region`` outside the rectangle."""
    out = []
    for rect in region:
        a, b, c, d = rect
        if a >= x1 or x0 >= c or b >= y1 or y0 >= d:
            out.append(rect)
            continue
        if b < y0:
            out.append((a, b, c, y0))
        if y1 < d:
            out.append((a, y1, c, d))
        top, bottom = max(b, y0), min(d, y1)
        if a < x0:
            out.append((a, top, x0, bottom))
        if x1 < c:
            out.append((x1, top, c, bottom))
    return out


def bands(region: List[Rect]) -> List[Rect]:
    """``region`` as (x, y, width, height) rectangles in y-then-x bands.

    The region is cut at every rectangle's top and bottom edge; each
    horizontal slab keeps its covered x spans, touching spans merge,
    and a slab merges into the one above it when their spans are equal.
    The result is the same for every decomposition of one point set.
    """
    if len(region) == 1:
        a, b, c, d = region[0]
        return [(a, b, c - a, d - b)]
    edges = sorted({y for _, top, _, bottom in region for y in (top, bottom)})
    slabs: List[list] = []
    for top, bottom in zip(edges, edges[1:]):
        spans: List[list] = []
        for a, c in sorted((a, c) for a, b, c, d in region
                           if b <= top and bottom <= d):
            if spans and spans[-1][1] == a:
                spans[-1][1] = c
            else:
                spans.append([a, c])
        if not spans:
            continue
        if slabs and slabs[-1][1] == top and slabs[-1][2] == spans:
            slabs[-1][1] = bottom
        else:
            slabs.append([top, bottom, spans])
    return [(a, top, c - a, bottom - top)
            for top, bottom, spans in slabs for a, c in spans]
