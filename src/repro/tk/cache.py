"""Resource caches (paper section 3.3).

Allocating X resources such as pixel values or fonts is expensive
because it requires inter-process communication with the X server.  The
cache is indexed by *textual descriptions* (``MediumSeaGreen``,
``coffee_mug``, ``@star``) rather than binary values, which makes it
easy to name resources in Tcl commands and in the option database; the
reverse mapping (id -> name) lets widgets report their configuration in
human-readable form.

Only the first request for a given name costs a server round trip;
later requests share the existing resource.  ``enabled=False`` turns
the cache off for the ablation benchmark.

Effectiveness is recorded per resource type in the metrics registry:
``tk.cache.hits{kind=color|font|cursor|bitmap|gc}`` and matching
``tk.cache.misses``.  A *miss* is a successful allocation the cache
could not serve; a request whose allocation fails (unknown color name,
bad font) raises :class:`CacheError` and counts as
``tk.cache.errors{kind=...}``, not as a miss — a failed lookup says
nothing about cache effectiveness.  The legacy ``hits``/``misses``
integers are read-only sums across kinds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs import MetricsRegistry
from ..x11.display import Display
from ..x11.resources import Bitmap, Color, Cursor, Font, GraphicsContext
from ..x11.xserver import XProtocolError

#: Resource kinds the cache tracks, in reporting order.
KINDS = ("color", "font", "cursor", "bitmap", "gc")

#: The id field of each kind the reverse (id -> name) map covers; GCs
#: are keyed by their values and have no name.
_ID_FIELDS = {"color": "pixel", "font": "fid", "cursor": "cid",
              "bitmap": "bid"}


class ResourceCache:
    """Client-side cache of colors, fonts, cursors, bitmaps, and GCs."""

    def __init__(self, display: Display, enabled: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self.display = display
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_hits, self._m_misses, self._m_errors = (
            {kind: self.metrics.counter(name, kind=kind) for kind in KINDS}
            for name in ("tk.cache.hits", "tk.cache.misses",
                         "tk.cache.errors"))
        self._colors: Dict[str, Color] = {}
        self._fonts: Dict[str, Font] = {}
        self._cursors: Dict[str, Cursor] = {}
        self._bitmaps: Dict[str, Bitmap] = {}
        self._gcs: Dict[Tuple, GraphicsContext] = {}
        self._names: Dict[int, str] = {}

    def _lookup(self, kind: str, store: Dict, key, error: Optional[str],
                allocate, arg):
        """``store[key]`` (a hit), else ``allocate(display, arg)``.

        A failed allocation counts as an error, not a miss; a protocol
        error becomes CacheError(``error % key``) unless ``error`` is
        None.
        """
        if self.enabled:
            cached = store.get(key)
            if cached is not None:
                self._m_hits[kind].value += 1
                return cached
        try:
            resource = allocate(self.display, arg)
        except XProtocolError:
            if error is None:
                raise
            self._m_errors[kind].value += 1
            raise CacheError(error % key)
        except CacheError:
            self._m_errors[kind].value += 1
            raise
        self._m_misses[kind].value += 1
        if self.enabled:
            store[key] = resource
        field = _ID_FIELDS.get(kind)
        if field is not None:
            self._names[getattr(resource, field)] = key
        return resource

    def color(self, name: str) -> Color:
        """Resolve a textual color name to an allocated color."""
        return self._lookup("color", self._colors, name,
                            'unknown color name "%s"',
                            Display.alloc_named_color, name)

    def pixel(self, name: str) -> int:
        return self.color(name).pixel

    def font(self, name: str) -> Font:
        return self._lookup("font", self._fonts, name,
                            'font "%s" doesn\'t exist',
                            Display.load_font, name)

    def cursor(self, name: str) -> Cursor:
        return self._lookup("cursor", self._cursors, name,
                            'bad cursor spec "%s"',
                            Display.create_cursor, name)

    def bitmap(self, name: str) -> Bitmap:
        """Resolve a bitmap: a built-in name or ``@filename``."""
        if name.startswith("@"):
            # A bad file raises CacheError; a protocol error on the
            # sized request that follows is not the name's fault.
            return self._lookup("bitmap", self._bitmaps, name, None,
                                _create_file_bitmap, name)
        return self._lookup("bitmap", self._bitmaps, name,
                            'bitmap "%s" not defined',
                            Display.create_bitmap, name)

    def gc(self, **values) -> GraphicsContext:
        """Share graphics contexts with identical values."""
        return self._lookup("gc", self._gcs, tuple(sorted(values.items())),
                            None, _create_gc, values)

    # -- reverse lookup ------------------------------------------------------

    def name_of(self, resource_id: int) -> Optional[str]:
        """The textual name a resource was allocated under, if any."""
        return self._names.get(resource_id)

    # -- statistics ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(counter.value for counter in self._m_hits.values())

    @property
    def misses(self) -> int:
        return sum(counter.value for counter in self._m_misses.values())

    @property
    def errors(self) -> int:
        return sum(counter.value for counter in self._m_errors.values())

    def stats(self) -> Tuple[int, int]:
        return (self.hits, self.misses)

    def stats_by_kind(self) -> Dict[str, Tuple[int, int, int]]:
        """``{kind: (hits, misses, errors)}`` for every resource kind."""
        return {kind: (self._m_hits[kind].value,
                       self._m_misses[kind].value,
                       self._m_errors[kind].value)
                for kind in KINDS}


class CacheError(Exception):
    """A textual resource description could not be resolved."""


def _create_gc(display: Display, values: Dict) -> GraphicsContext:
    return display.create_gc(**values)


def _create_file_bitmap(display: Display, name: str) -> Bitmap:
    width, height = _read_bitmap_file(name[1:])
    return display.create_bitmap(name, width, height)


def _read_bitmap_file(filename: str) -> Tuple[int, int]:
    """Parse the width/height out of an X11 bitmap (.xbm) file."""
    try:
        with open(filename, "r") as handle:
            text = handle.read()
    except OSError:
        raise CacheError(
            'error reading bitmap file "%s"' % filename)
    width = height = 0
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#define") and line.split():
            fields = line.split()
            if len(fields) >= 3 and fields[1].endswith("_width"):
                width = int(fields[2])
            elif len(fields) >= 3 and fields[1].endswith("_height"):
                height = int(fields[2])
    if width <= 0 or height <= 0:
        raise CacheError('file "%s" isn\'t a valid bitmap' % filename)
    return width, height
