"""Binary wire codec for the simulated X protocol.

Until now the Display→XServer boundary was in-process Python method
calls, which makes bandwidth — the quantity that dominates real X11
performance over thin links — unmeasurable.  This module gives every
request, reply, event, and error crossing that boundary a byte-exact
encoding, so a transport (see :mod:`repro.x11.transport`) can carry
the session over a real socket, count bytes per client, and let the
fault plan act on frames instead of calls.

Framing
-------

A frame is::

    +--------------+-----------+------------------+
    | length (u32) | type (u8) | payload (value)  |
    +--------------+-----------+------------------+

``length`` is big-endian and covers the type byte plus the payload.
The payload is exactly one *value* in the tagged encoding below; a
frame whose payload leaves trailing bytes is rejected.  The single
exception is the optional **trace context** on BATCH, ONEWAY, and
REQUEST frames (codec version 2): while the server's span tracer is
started, the transport appends one ``T_SPAN`` tagged i64 — the issuing
wire-span id — after the payload, and the server opens a child span
under that id for every request it handles (see
:mod:`repro.obs.trace`).  With the tracer stopped the field is absent
and every frame is byte-identical to codec version 1, so traced and
untraced runs of the same workload differ *only* by the 9-byte
suffix, and untraced byte accounting is unchanged.  Frame types:

========== ====== =================================================
SETUP      0x01   client hello (payload None)
SETUP_ACK  0x02   (client number, root id, screen width, height)
BATCH      0x03   list of (name, window, args, kwargs) request ops
BATCH_ACK  0x04   int: requests delivered
ONEWAY     0x05   one unbuffered request (name, window, args, kwargs)
ONEWAY_ACK 0x06   None
REQUEST    0x07   reply-bearing request (name, args, kwargs)
REPLY      0x08   the reply value
ERROR      0x09   (kind, message); kind 0=XProtocolError 1=XConnectionLost
EVENT      0x0A   one Event
BYE        0x0C   orderly client close-down
========== ====== =================================================

Values
------

Self-describing tagged encoding, one tag byte per value.  Integers are
signed 64-bit (with a big-int escape), strings are UTF-8 with a u32
length, containers carry a u32 count.  Dicts preserve insertion order
— no sorting, so an encode→decode→encode round trip is byte-stable.
The X resource dataclasses (Color, Font, Cursor, Bitmap,
GraphicsContext) and :class:`~repro.x11.events.Event` have dedicated
tags; a Client is encoded by connection number and resolved back to
the live object (or a :class:`ClientRef` placeholder) at decode time.

The codec is strict: unknown tags, unknown frame types, truncated
input, and trailing bytes all raise :class:`WireError`.  Nothing here
depends on wall time or interpreter identity, so the same session
produces the same bytes on every run — the transport tests compare
whole wire logs across transports for equality.

The encoder and decoder try exact types (and the tags they produce)
first, ahead of the general branches.  A server-built Event — sixteen
ints within i64, two ASCII strings, empty ``data``, a bool — is encoded
by three packs and decoded by one unpack per part
(:func:`_encode_event`, :func:`_decode_event`); any other shape, and
any malformed input, takes the general field-by-field path.  These fast
paths define nothing: ``tests/x11/test_wire.py`` (``TestEventCodec``)
runs them in lockstep with the general path and requires the same
bytes, the same decoded fields and types, one serial per decoded event
and the same :class:`WireError` on every truncated or mangled frame.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Tuple

from .events import Event, WIRE_FIELDS
from .resources import Bitmap, Color, Cursor, Font, GraphicsContext
from .xserver import Client, XConnectionLost, XProtocolError

__all__ = [
    "WireError", "ClientRef", "encode_frame", "decode_frame",
    "decode_frame_ex", "extract_frames", "frame_name", "frame_size",
    "error_value", "error_from_value", "CODEC_VERSION", "TRACED_FRAMES",
    "SETUP", "SETUP_ACK", "BATCH", "BATCH_ACK", "ONEWAY", "ONEWAY_ACK",
    "REQUEST", "REPLY", "ERROR", "EVENT", "BYE",
]

#: Codec version 2 added the optional trailing trace-context field on
#: BATCH/ONEWAY/REQUEST frames.  Version 1 frames remain decodable
#: (the field is optional) and version 1 decoders reject only *traced*
#: version 2 frames — untraced frames are byte-identical across both.
CODEC_VERSION = 2


class WireError(Exception):
    """Malformed or unrepresentable wire data."""


# ----------------------------------------------------------------------
# frame types
# ----------------------------------------------------------------------

SETUP = 0x01
SETUP_ACK = 0x02
BATCH = 0x03
BATCH_ACK = 0x04
ONEWAY = 0x05
ONEWAY_ACK = 0x06
REQUEST = 0x07
REPLY = 0x08
ERROR = 0x09
EVENT = 0x0A
BYE = 0x0C

#: Frame types that may carry a trailing trace-context field.  Only
#: client→server request traffic is traced: replies, events, and
#: errors inherit causality from the request frame they answer.
TRACED_FRAMES = frozenset((BATCH, ONEWAY, REQUEST))

FRAME_NAMES = {
    SETUP: "SETUP",
    SETUP_ACK: "SETUP_ACK",
    BATCH: "BATCH",
    BATCH_ACK: "BATCH_ACK",
    ONEWAY: "ONEWAY",
    ONEWAY_ACK: "ONEWAY_ACK",
    REQUEST: "REQUEST",
    REPLY: "REPLY",
    ERROR: "ERROR",
    EVENT: "EVENT",
    BYE: "BYE",
}

#: Upper bound on a single frame body; anything larger in a length
#: prefix means the stream is garbage, not a request.
MAX_FRAME = 1 << 24

# ----------------------------------------------------------------------
# value tags
# ----------------------------------------------------------------------

T_NONE = 0x00
T_FALSE = 0x01
T_TRUE = 0x02
T_INT = 0x03
T_BIGINT = 0x04
T_STR = 0x05
T_BYTES = 0x06
T_FLOAT = 0x07
T_LIST = 0x08
T_TUPLE = 0x09
T_DICT = 0x0A
T_EVENT = 0x0B
T_GC = 0x0C
T_COLOR = 0x0D
T_FONT = 0x0E
T_CURSOR = 0x0F
T_BITMAP = 0x10
T_CLIENT = 0x11
#: Trace-context suffix tag (codec version 2).  Never a payload value:
#: it may appear only after the payload of a TRACED_FRAMES frame,
#: followed by one i64 span id.
T_SPAN = 0x12

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
#: a tag byte and its i64 or u32 operand, packed in one call
_TAGGED_I64 = struct.Struct(">Bq")
_TAGGED_U32 = struct.Struct(">BI")

_EVENT_FIELD_COUNT = len(WIRE_FIELDS)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class ClientRef:
    """A decoded client with no live object to resolve to.

    Equality and hashing go by connection number, so a ClientRef can
    stand in for a :class:`~repro.x11.xserver.Client` in encoded data
    that merely names a connection.
    """

    __slots__ = ("number",)

    def __init__(self, number: int):
        self.number = number

    def __eq__(self, other):
        return isinstance(other, (Client, ClientRef)) and \
            other.number == self.number

    def __hash__(self):
        return hash(("client", self.number))

    def __repr__(self):  # pragma: no cover - debugging aid
        return "ClientRef(%d)" % self.number


def frame_name(ftype: int) -> str:
    return FRAME_NAMES.get(ftype, "0x%02X" % ftype)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

def _encode_value(value, out: bytearray) -> None:
    # Exact-type fast paths for what requests and events are made of.
    # Bools, big ints, subclasses and every other value fall through to
    # the isinstance chain below, which defines the encoding.
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out += _TAGGED_I64.pack(T_INT, value)
            return
    elif kind is str:
        raw = value.encode("utf-8")
        out += _TAGGED_U32.pack(T_STR, len(raw))
        out += raw
        return
    elif kind is tuple or kind is list:
        out += _TAGGED_U32.pack(T_TUPLE if kind is tuple else T_LIST,
                                len(value))
        for item in value:
            _encode_value(item, out)
        return
    elif kind is dict:
        out += _TAGGED_U32.pack(T_DICT, len(value))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
        return
    elif kind is Event and _encode_event(value, out):
        return
    if value is None:
        out.append(T_NONE)
    elif value is True:
        out.append(T_TRUE)
    elif value is False:
        out.append(T_FALSE)
    elif isinstance(value, bool):  # numpy-ish bool subclasses
        out.append(T_TRUE if value else T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(T_INT)
            out += _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big",
                                 signed=True)
            out.append(T_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(T_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, float):
        out.append(T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, list):
        out.append(T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, tuple):
        out.append(T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    elif isinstance(value, Event):
        out.append(T_EVENT)
        out.append(len(WIRE_FIELDS))
        for name in WIRE_FIELDS:
            _encode_value(getattr(value, name), out)
    elif isinstance(value, GraphicsContext):
        out.append(T_GC)
        _encode_value(value.gid, out)
        _encode_value(value.values, out)
    elif isinstance(value, Color):
        out.append(T_COLOR)
        for field in (value.pixel, value.red, value.green, value.blue):
            _encode_value(field, out)
    elif isinstance(value, Font):
        out.append(T_FONT)
        for field in (value.fid, value.name, value.char_width,
                      value.ascent, value.descent):
            _encode_value(field, out)
    elif isinstance(value, Cursor):
        out.append(T_CURSOR)
        _encode_value(value.cid, out)
        _encode_value(value.name, out)
    elif isinstance(value, Bitmap):
        out.append(T_BITMAP)
        for field in (value.bid, value.name, value.width, value.height):
            _encode_value(field, out)
    elif isinstance(value, (Client, ClientRef)):
        out.append(T_CLIENT)
        out += _I64.pack(value.number)
    else:
        raise WireError("unencodable value of type %s: %r"
                        % (type(value).__name__, value))


#: The common-shape Event on the wire, in three parts around its two
#: strings' characters: the tag, field count, seven tagged i64s and
#: keysym's string header; keychar's string header (_TAGGED_U32); nine
#: tagged i64s, the empty data tuple and the send_event bool.
_EVENT_HEAD = struct.Struct(">BB" + "Bq" * 7 + "BI")
_EVENT_TAIL = struct.Struct(">" + "Bq" * 9 + "BIB")


def _encode_event(event, out: bytearray) -> bool:
    # The straight-line twin of _event_size: a server-built Event (exact
    # ints within i64, ASCII strings, empty data, a bool) is encoded by
    # three packs.  Any other shape returns False, leaving ``out``
    # untouched, and is encoded field by field by _encode_value.
    fields = event.__dict__
    kind, window, x = fields["type"], fields["window"], fields["x"]
    y, x_root, y_root = fields["y"], fields["x_root"], fields["y_root"]
    state, keysym = fields["state"], fields["keysym"]
    keychar, button = fields["keychar"], fields["button"]
    width, height, time = fields["width"], fields["height"], fields["time"]
    atom, selection = fields["atom"], fields["selection"]
    target, property_ = fields["target"], fields["property"]
    requestor, data = fields["requestor"], fields["data"]
    send_event = fields["send_event"]
    if not (type(kind) is int and type(window) is int and type(x) is int
            and type(y) is int and type(x_root) is int and
            type(y_root) is int and type(state) is int and
            type(keysym) is str and type(keychar) is str and
            type(button) is int and type(width) is int and
            type(height) is int and type(time) is int and
            type(atom) is int and type(selection) is int and
            type(target) is int and type(property_) is int and
            type(requestor) is int and type(data) is tuple and
            not data and (send_event is False or send_event is True) and
            keysym.isascii() and keychar.isascii()):
        return False
    try:
        head = _EVENT_HEAD.pack(
            T_EVENT, _EVENT_FIELD_COUNT, T_INT, kind, T_INT, window,
            T_INT, x, T_INT, y, T_INT, x_root, T_INT, y_root, T_INT, state,
            T_STR, len(keysym))
        tail = _EVENT_TAIL.pack(
            T_INT, button, T_INT, width, T_INT, height, T_INT, time,
            T_INT, atom, T_INT, selection, T_INT, target, T_INT, property_,
            T_INT, requestor, T_TUPLE, 0, T_TRUE if send_event else T_FALSE)
    except struct.error:
        return False            # an int outside i64
    out += head
    out += keysym.encode("ascii")
    out += _TAGGED_U32.pack(T_STR, len(keychar))
    out += keychar.encode("ascii")
    out += tail
    return True


def encode_frame(ftype: int, value=None, ctx: Optional[int] = None
                 ) -> bytes:
    """One complete frame: length prefix, type byte, encoded payload.

    ``ctx`` is the optional trace context — the issuing wire-span id —
    appended as a ``T_SPAN`` suffix after the payload.  Only
    BATCH/ONEWAY/REQUEST frames may carry one; passing a context on
    any other type raises :class:`WireError`.  ``ctx=None`` (the
    untraced case) produces codec-version-1 bytes exactly.
    """
    if ftype not in FRAME_NAMES:
        raise WireError("unknown frame type 0x%02X" % ftype)
    body = bytearray()
    body.append(ftype)
    _encode_value(value, body)
    if ctx is not None:
        if ftype not in TRACED_FRAMES:
            raise WireError("trace context not allowed on %s frame"
                            % frame_name(ftype))
        body.append(T_SPAN)
        body += _I64.pack(ctx)
    return _U32.pack(len(body)) + bytes(body)


def _value_size(value) -> int:
    # The encoded size of the values requests and events are made of,
    # by exact type, without materialising bytes: this runs on every
    # loopback request and event.  Anything else is encoded to size it.
    if value is None or value is True or value is False:
        return 1
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            return 9
        return 5 + (value.bit_length() + 8) // 8
    if kind is str:
        if value.isascii():
            return 5 + len(value)
        return 5 + len(value.encode("utf-8"))
    if kind is float:
        return 9
    if kind is list or kind is tuple:
        total = 5
        for item in value:
            total += _value_size(item)
        return total
    if kind is dict:
        total = 5
        for key, item in value.items():
            total += _value_size(key) + _value_size(item)
        return total
    if kind is Event:
        return _event_size(value)
    if kind is Client:
        return 9
    if kind is GraphicsContext:
        return 1 + _value_size(value.gid) + _value_size(value.values)
    return _encoded_size(value)


def _encoded_size(value) -> int:
    # The sizers' fallback (subclasses, bytes, colors, fonts, events of
    # an odd shape): encode into scratch and measure, so the size and
    # any WireError are encode_frame's own.
    scratch = bytearray()
    _encode_value(value, scratch)
    return len(scratch)


#: the sixteen int fields of the common shape, range-checked in one call
_EVENT_INTS = struct.Struct(">16q")
#: frame bytes of a common-shape Event, apart from its two strings'
#: characters: tag and field count, sixteen i64s, two string headers,
#: the empty data tuple, the send_event bool
_EVENT_FIXED = 2 + 16 * 9 + 2 * 5 + 5 + 1


def _event_size(event) -> int:
    # The hottest case by far: one EVENT frame per delivered event.
    # Server-built events have one shape — exact ints within i64, ASCII
    # strings, empty data, a bool — whose size is a constant plus the
    # string lengths.  Anything else (bools or floats in int fields,
    # big ints, non-ASCII text, data items) is encoded to size it.  Every
    # wire field is a plain dataclass attribute, so the instance dict
    # lookup is exactly getattr.  The fields are read into locals, at
    # most three per statement: unpacking a longer tuple would allocate
    # one per event, and that alone makes the cyclic GC run often
    # enough to hold on to more garbage.
    fields = event.__dict__
    kind, window, x = fields["type"], fields["window"], fields["x"]
    y, x_root, y_root = fields["y"], fields["x_root"], fields["y_root"]
    state, keysym = fields["state"], fields["keysym"]
    keychar, button = fields["keychar"], fields["button"]
    width, height, time = fields["width"], fields["height"], fields["time"]
    atom, selection = fields["atom"], fields["selection"]
    target, property_ = fields["target"], fields["property"]
    requestor, data = fields["requestor"], fields["data"]
    send_event = fields["send_event"]
    if type(kind) is int and type(window) is int and type(x) is int and \
            type(y) is int and type(x_root) is int and \
            type(y_root) is int and type(state) is int and \
            type(keysym) is str and type(keychar) is str and \
            type(button) is int and type(width) is int and \
            type(height) is int and type(time) is int and \
            type(atom) is int and type(selection) is int and \
            type(target) is int and type(property_) is int and \
            type(requestor) is int and type(data) is tuple and \
            not data and (send_event is False or send_event is True) and \
            keysym.isascii() and keychar.isascii():
        try:
            _EVENT_INTS.pack(kind, window, x, y, x_root, y_root, state,
                             button, width, height, time, atom, selection,
                             target, property_, requestor)
        except struct.error:
            pass                # an int outside i64: sized below
        else:
            return _EVENT_FIXED + len(keysym) + len(keychar)
    return _encoded_size(event)


def _batch_size(ops: list) -> int:
    # A BATCH payload in one flat loop: each (name, window, args,
    # kwargs) op costs its three container headers plus its values.
    # Exact ints within i64, ASCII strs, None, bools and Clients are
    # sized here; any other value, and any op of another shape, goes
    # to _value_size.
    size = 5
    for op in ops:
        if type(op) is not tuple or len(op) != 4 or \
                type(op[2]) is not tuple or type(op[3]) is not dict:
            size += _value_size(op)
            continue
        name, window, args, kwargs = op
        size += 15
        for value in (name, window, *args, *kwargs, *kwargs.values()):
            kind = type(value)
            if kind is int and _I64_MIN <= value <= _I64_MAX:
                size += 9
            elif kind is str and value.isascii():
                size += 5 + len(value)
            elif value is None or kind is bool:
                size += 1
            elif kind is Client:
                size += 9
            else:
                size += _value_size(value)
    return size


def frame_size(ftype: int, value=None, ctx: Optional[int] = None) -> int:
    """Exact ``len(encode_frame(ftype, value, ctx))`` without encoding.

    The loopback transport accounts for bytes on every request; this
    keeps that accounting off the allocation path.  Must stay
    byte-for-byte in lockstep with :func:`encode_frame` — the codec
    tests assert equality over the whole value battery, and the
    transport-invariance gate compares the resulting counters with the
    socket transport's real encoded traffic.  A trace context adds the
    9-byte ``T_SPAN`` suffix, subject to the same frame-type rule.
    """
    if type(value) is Event and ctx is None and ftype in FRAME_NAMES:
        return 5 + _event_size(value)   # one EVENT frame per delivery
    if ftype not in FRAME_NAMES:
        raise WireError("unknown frame type 0x%02X" % ftype)
    if ftype == BATCH and type(value) is list:
        size = 5 + _batch_size(value)
    else:
        size = 5 + _value_size(value)
    if ctx is not None:
        if ftype not in TRACED_FRAMES:
            raise WireError("trace context not allowed on %s frame"
                            % frame_name(ftype))
        size += 9
    return size


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------

def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise WireError("truncated value: need %d bytes at offset %d, "
                        "have %d" % (count, offset, len(data) - offset))


#: _EVENT_HEAD and _EVENT_TAIL with the tag bytes skipped, for decoding;
#: the tags they skip, compared as one stepped slice each
_EVENT_HEAD_IN = struct.Struct(">" + "xq" * 7 + "xI")
_EVENT_TAIL_IN = struct.Struct(">" + "xq" * 9 + "xIB")
_EVENT_HEAD_TAGS = bytes((T_INT,) * 7 + (T_STR,))
_EVENT_TAIL_TAGS = bytes((T_INT,) * 9 + (T_TUPLE,))


def _decode_event(data: bytes, offset: int):
    # The straight-line twin of _encode_event, from just past the
    # T_EVENT tag: an event whose tags match the common shape decodes
    # with one unpack per part.  Anything else — other tags, a short
    # buffer, invalid UTF-8 — returns None before an Event (and its
    # serial) is made, and _decode_value decodes or rejects it field by
    # field.
    # Tags sit every nine bytes: seven T_INTs then keysym's T_STR in the
    # head (slice of 64), nine T_INTs then data's T_TUPLE in the tail (82).
    head = offset + 1
    end = len(data)
    if head + _EVENT_HEAD_IN.size > end or \
            data[offset] != _EVENT_FIELD_COUNT or \
            data[head:head + 64:9] != _EVENT_HEAD_TAGS:
        return None
    kind, window, x, y, x_root, y_root, state, length = \
        _EVENT_HEAD_IN.unpack_from(data, head)
    start = head + _EVENT_HEAD_IN.size
    stop = start + length
    if stop + 5 > end or data[stop] != T_STR:
        return None
    keysym = data[start:stop]
    start = stop + 5
    stop = start + _U32.unpack_from(data, stop + 1)[0]
    tail = stop + _EVENT_TAIL_IN.size
    if tail > end or data[stop:stop + 82:9] != _EVENT_TAIL_TAGS:
        return None
    (button, width, height, time, atom, selection, target, property_,
     requestor, count, flag) = _EVENT_TAIL_IN.unpack_from(data, stop)
    if count or (flag != T_TRUE and flag != T_FALSE):
        return None
    try:
        keysym = keysym.decode("utf-8")
        keychar = data[start:stop].decode("utf-8")
    except UnicodeDecodeError:
        return None
    return Event(kind, window, x, y, x_root, y_root, state, keysym,
                 keychar, button, width, height, time, atom, selection,
                 target, property_, requestor, (),
                 send_event=flag == T_TRUE), tail


def _decode_value(data: bytes, offset: int,
                  resolve_client: Optional[Callable[[int], object]]):
    # The common tags come first, each behind one inline bounds check;
    # _need is called only to raise the truncation error.
    end = len(data)
    if offset >= end:
        _need(data, offset, 1)
    tag = data[offset]
    offset += 1
    if tag == T_INT:
        if offset + 8 > end:
            _need(data, offset, 8)
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag == T_STR:
        if offset + 4 > end:
            _need(data, offset, 4)
        start = offset + 4
        stop = start + _U32.unpack_from(data, offset)[0]
        if stop > end:
            _need(data, start, stop - start)
        try:
            text = data[start:stop].decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireError("invalid UTF-8 in string value: %s" % error)
        return text, stop
    if tag == T_TUPLE or tag == T_LIST:
        if offset + 4 > end:
            _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_value(data, offset, resolve_client)
            items.append(item)
        return (items if tag == T_LIST else tuple(items)), offset
    if tag == T_DICT:
        if offset + 4 > end:
            _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        result = {}
        for _ in range(count):
            key, offset = _decode_value(data, offset, resolve_client)
            item, offset = _decode_value(data, offset, resolve_client)
            result[key] = item
        return result, offset
    if tag == T_NONE:
        return None, offset
    if tag == T_TRUE:
        return True, offset
    if tag == T_FALSE:
        return False, offset
    if tag == T_EVENT:
        decoded = _decode_event(data, offset)
        if decoded is not None:
            return decoded
        _need(data, offset, 1)
        count = data[offset]
        offset += 1
        if count != len(WIRE_FIELDS):
            raise WireError("event field count %d does not match codec "
                            "(%d fields)" % (count, len(WIRE_FIELDS)))
        fields = {}
        for name in WIRE_FIELDS:
            fields[name], offset = _decode_value(data, offset,
                                                 resolve_client)
        return Event(**fields), offset
    if tag == T_BIGINT:
        _need(data, offset, 4)
        length = _U32.unpack_from(data, offset)[0]
        offset += 4
        _need(data, offset, length)
        raw = data[offset:offset + length]
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == T_BYTES:
        _need(data, offset, 4)
        length = _U32.unpack_from(data, offset)[0]
        offset += 4
        _need(data, offset, length)
        return bytes(data[offset:offset + length]), offset + length
    if tag == T_FLOAT:
        _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == T_GC:
        gid, offset = _decode_value(data, offset, resolve_client)
        values, offset = _decode_value(data, offset, resolve_client)
        return GraphicsContext(gid=gid, values=values), offset
    if tag == T_COLOR:
        fields = []
        for _ in range(4):
            item, offset = _decode_value(data, offset, resolve_client)
            fields.append(item)
        return Color(*fields), offset
    if tag == T_FONT:
        fields = []
        for _ in range(5):
            item, offset = _decode_value(data, offset, resolve_client)
            fields.append(item)
        return Font(*fields), offset
    if tag == T_CURSOR:
        cid, offset = _decode_value(data, offset, resolve_client)
        name, offset = _decode_value(data, offset, resolve_client)
        return Cursor(cid=cid, name=name), offset
    if tag == T_BITMAP:
        fields = []
        for _ in range(4):
            item, offset = _decode_value(data, offset, resolve_client)
            fields.append(item)
        return Bitmap(*fields), offset
    if tag == T_CLIENT:
        _need(data, offset, 8)
        number = _I64.unpack_from(data, offset)[0]
        offset += 8
        if resolve_client is not None:
            return resolve_client(number), offset
        return ClientRef(number), offset
    raise WireError("unknown value tag 0x%02X at offset %d"
                    % (tag, offset - 1))


def decode_frame_ex(frame: bytes,
                    resolve_client: Optional[Callable[[int],
                                                      object]] = None
                    ) -> Tuple[int, object, Optional[int]]:
    """Decode one frame into ``(frame_type, payload, trace_context)``.

    ``resolve_client`` maps a connection number to a live object for
    T_CLIENT values; without it they decode to :class:`ClientRef`.
    ``trace_context`` is the span id from an optional ``T_SPAN``
    suffix, or None for version-1 (untraced) frames.  Any other
    trailing bytes — including a trace suffix on a frame type that
    cannot carry one — are rejected.
    """
    if len(frame) < 5:
        raise WireError("truncated frame: %d bytes" % len(frame))
    (length,) = _U32.unpack_from(frame, 0)
    if length != len(frame) - 4:
        raise WireError("frame length %d does not match body of %d bytes"
                        % (length, len(frame) - 4))
    ftype = frame[4]
    if ftype not in FRAME_NAMES:
        raise WireError("unknown frame type 0x%02X" % ftype)
    value, offset = _decode_value(frame, 5, resolve_client)
    ctx = None
    if offset == len(frame) - 9 and frame[offset] == T_SPAN and \
            ftype in TRACED_FRAMES:
        ctx = _I64.unpack_from(frame, offset + 1)[0]
        offset += 9
    if offset != len(frame):
        raise WireError("%d trailing bytes after %s payload"
                        % (len(frame) - offset, frame_name(ftype)))
    return ftype, value, ctx


def decode_frame(frame: bytes,
                 resolve_client: Optional[Callable[[int], object]] = None
                 ) -> Tuple[int, object]:
    """Decode one complete frame into ``(frame_type, payload)``.

    The trace-context suffix, if present, is accepted and discarded;
    callers that propagate it use :func:`decode_frame_ex`.
    """
    ftype, value, _ = decode_frame_ex(frame, resolve_client)
    return ftype, value


def extract_frames(buffer: bytearray) -> List[bytes]:
    """Split every complete frame off the front of a stream buffer.

    Consumes the extracted bytes from ``buffer`` in place; a trailing
    partial frame is left for the next read.  An implausible length
    prefix raises :class:`WireError` — the stream cannot recover.
    """
    frames: List[bytes] = []
    while len(buffer) >= 4:
        (length,) = _U32.unpack_from(buffer, 0)
        if length < 1 or length > MAX_FRAME:
            raise WireError("implausible frame length %d" % length)
        if len(buffer) < 4 + length:
            break
        frames.append(bytes(buffer[:4 + length]))
        del buffer[:4 + length]
    return frames


# ----------------------------------------------------------------------
# error marshalling
# ----------------------------------------------------------------------

def error_value(error: Exception) -> tuple:
    """An X error as an ERROR-frame payload, preserving its type."""
    kind = 1 if isinstance(error, XConnectionLost) else 0
    return (kind, str(error))


def error_from_value(value) -> XProtocolError:
    """Rebuild the exception an ERROR frame carries."""
    kind, message = value
    if kind == 1:
        return XConnectionLost(message)
    return XProtocolError(message)
