"""Screen-dump renderer for the simulated display.

The real Tk drew pixels into X windows; the simulator records drawing
requests per window (fill/rect/line/text) and this module composites
them into a character-cell "screen dump" — the reproduction of the
paper's Figure 10.  A coarse PPM pixel renderer is also provided.

The character grid maps ``cell_width`` x ``cell_height`` pixels to one
character (defaults match the 6x13 "fixed" font rounded up, so text
drawn at font positions lands on sensible cells).
"""

from __future__ import annotations

from typing import List, Optional

from .window import Window
from .xserver import XServer


def _shade_for_pixel(pixel: Optional[int]) -> str:
    """Map a background pixel value to a shading character."""
    if pixel is None:
        return " "
    red = (pixel >> 16) & 0xFF
    green = (pixel >> 8) & 0xFF
    blue = pixel & 0xFF
    brightness = (red * 299 + green * 587 + blue * 114) // 1000
    if brightness >= 200:
        return " "
    if brightness >= 140:
        return "."
    if brightness >= 80:
        return ":"
    return "#"


class TextCanvas:
    """A character grid with clipped drawing primitives."""

    def __init__(self, columns: int, rows: int):
        self.columns = columns
        self.rows = rows
        self.cells: List[List[str]] = [[" "] * columns for _ in range(rows)]

    def put(self, column: int, row: int, char: str) -> None:
        if 0 <= column < self.columns and 0 <= row < self.rows:
            self.cells[row][column] = char

    def fill(self, column: int, row: int, width: int, height: int,
             char: str) -> None:
        for r in range(row, row + height):
            for c in range(column, column + width):
                self.put(c, r, char)

    def put_soft(self, column: int, row: int, char: str) -> None:
        """Write only over background shading or other border marks,
        never over text."""
        if 0 <= column < self.columns and 0 <= row < self.rows and \
                self.cells[row][column] in " .:#-|+":
            self.cells[row][column] = char

    def outline(self, column: int, row: int, width: int,
                height: int) -> None:
        if width <= 0 or height <= 0:
            return
        for c in range(column, column + width):
            self.put_soft(c, row, "-")
            self.put_soft(c, row + height - 1, "-")
        for r in range(row, row + height):
            self.put_soft(column, r, "|")
            self.put_soft(column + width - 1, r, "|")
        for c, r in ((column, row), (column + width - 1, row),
                     (column, row + height - 1),
                     (column + width - 1, row + height - 1)):
            self.put_soft(c, r, "+")

    def text(self, column: int, row: int, string: str) -> None:
        for offset, char in enumerate(string):
            self.put(column + offset, row, char)

    def render(self) -> str:
        return "\n".join("".join(row).rstrip() for row in self.cells)


class Renderer:
    """Composites a window subtree into a :class:`TextCanvas`."""

    def __init__(self, server: XServer, cell_width: int = 8,
                 cell_height: int = 16):
        self.server = server
        self.cell_width = cell_width
        self.cell_height = cell_height

    def _to_cell(self, x: int, y: int) -> tuple:
        return (x // self.cell_width, y // self.cell_height)

    def render_window(self, window_id: int) -> str:
        """Render one window (and its descendants) as text."""
        window = self.server.window(window_id)
        columns = max(1, -(-window.width // self.cell_width))
        rows = max(1, -(-window.height // self.cell_height))
        canvas = TextCanvas(columns, rows)
        origin_x, origin_y = window.root_position()
        self._paint(window, canvas, origin_x, origin_y)
        return canvas.render()

    def _paint(self, window: Window, canvas: TextCanvas,
               origin_x: int, origin_y: int) -> None:
        if not window.mapped and window.parent is not None:
            return
        window_x, window_y = window.root_position()
        base_col, base_row = self._to_cell(window_x - origin_x,
                                           window_y - origin_y)
        width_cells = max(1, window.width // self.cell_width)
        height_cells = max(1, window.height // self.cell_height)
        background = _shade_for_pixel(window.background)
        if background != " " or window.parent is not None:
            canvas.fill(base_col, base_row, width_cells, height_cells,
                        background)
        if window.border_width > 0:
            canvas.outline(base_col, base_row, width_cells, height_cells)
        for op in window.draw_ops:
            self._paint_op(op, canvas, base_col, base_row)
        for child in window.children:
            self._paint(child, canvas, origin_x, origin_y)

    def _paint_op(self, op, canvas: TextCanvas, base_col: int,
                  base_row: int) -> None:
        if op.kind == "fill":
            x, y, width, height = op.args
            col, row = self._to_cell(x, y)
            pixel = op.gc_values.get("foreground")
            char = _shade_for_pixel(pixel if pixel is not None else 0)
            if char == " ":
                char = "."
            canvas.fill(base_col + col, base_row + row,
                        max(1, width // self.cell_width),
                        max(1, height // self.cell_height), char)
        elif op.kind == "rect":
            x, y, width, height = op.args
            col, row = self._to_cell(x, y)
            canvas.outline(base_col + col, base_row + row,
                           max(2, -(-width // self.cell_width)),
                           max(2, -(-height // self.cell_height)))
        elif op.kind == "line":
            x1, y1, x2, y2 = op.args
            self._paint_line(canvas, base_col, base_row, x1, y1, x2, y2)
        elif op.kind == "text":
            x, y, text = op.args
            col, row = self._to_cell(x, y)
            canvas.text(base_col + col, base_row + row, text)

    def _paint_line(self, canvas: TextCanvas, base_col: int, base_row: int,
                    x1: int, y1: int, x2: int, y2: int) -> None:
        col1, row1 = self._to_cell(x1, y1)
        col2, row2 = self._to_cell(x2, y2)
        if row1 == row2:
            for col in range(min(col1, col2), max(col1, col2) + 1):
                canvas.put(base_col + col, base_row + row1, "-")
        elif col1 == col2:
            for row in range(min(row1, row2), max(row1, row2) + 1):
                canvas.put(base_col + col1, base_row + row, "|")
        else:
            steps = max(abs(col2 - col1), abs(row2 - row1))
            for step in range(steps + 1):
                col = col1 + (col2 - col1) * step // steps
                row = row1 + (row2 - row1) * step // steps
                canvas.put(base_col + col, base_row + row, "*")


def render_ppm(server: XServer, window_id: int, scale: int = 1) -> bytes:
    """Render a window subtree as a binary PPM image (backgrounds only)."""
    window = server.window(window_id)
    width, height = window.width * scale, window.height * scale
    white = (255, 255, 255)
    pixels = [[white] * width for _ in range(height)]
    origin_x, origin_y = window.root_position()

    def paint(win: Window) -> None:
        if not win.mapped and win.parent is not None:
            return
        win_x, win_y = win.root_position()
        x0 = (win_x - origin_x) * scale
        y0 = (win_y - origin_y) * scale
        pixel_value = win.background if win.background is not None \
            else 0xFFFFFF
        rgb = ((pixel_value >> 16) & 0xFF, (pixel_value >> 8) & 0xFF,
               pixel_value & 0xFF)
        for y in range(max(0, y0), min(height, y0 + win.height * scale)):
            row = pixels[y]
            for x in range(max(0, x0), min(width, x0 + win.width * scale)):
                row[x] = rgb
        for child in win.children:
            paint(child)

    paint(window)
    header = b"P6\n%d %d\n255\n" % (width, height)
    body = bytearray()
    for row in pixels:
        for rgb in row:
            body.extend(rgb)
    return header + bytes(body)
