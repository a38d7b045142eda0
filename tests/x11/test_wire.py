"""Tests for the binary wire codec and its cross-transport identity.

Three layers: value/frame round-trips (every tag, every frame type),
strictness (truncation, garbage, trailing bytes all raise WireError
rather than mis-decoding), and the tentpole acceptance criterion — the
golden journal replayed over LoopbackTransport and SocketTransport
produces byte-identical wire logs and byte-identical replay journals.
"""

import contextlib
import dataclasses
import os
import random
import string
from unittest import mock

import pytest

from repro.x11 import events as ev
from repro.x11 import wire
from repro.x11.resources import (Bitmap, Color, Cursor, Font,
                                 GraphicsContext)
from repro.x11.wire import ClientRef, WireError
from repro.x11.xserver import XConnectionLost, XProtocolError, XServer

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "examples", "golden.journal")


def roundtrip(value, ftype=wire.REPLY, resolve_client=None):
    frame = wire.encode_frame(ftype, value)
    got_type, got = wire.decode_frame(frame, resolve_client)
    assert got_type == ftype
    return got


class TestValueRoundTrips:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 255, -256,
        (1 << 63) - 1, -(1 << 63),           # i64 extremes
        1 << 64, -(1 << 200),                # bigint escape
        0.0, -1.5, 3.141592653589793, 1e300,
        "", "hello", "snÖwmän ☃", "\x00nul",
        b"", b"raw\x00bytes", bytearray(b"mutable"),
        [], [1, "two", None], (4, 5), ((),),
        {}, {"a": 1}, {1: [2, {"x": (None, True)}]},
    ])
    def test_scalar_and_container(self, value):
        got = roundtrip(value)
        if isinstance(value, bytearray):
            assert got == bytes(value)
        else:
            assert got == value
            assert type(got) is type(value)

    def test_dict_preserves_insertion_order(self):
        value = {"z": 1, "a": 2, "m": 3}
        got = roundtrip(value)
        assert list(got) == ["z", "a", "m"]
        # encode→decode→encode is byte-stable
        frame = wire.encode_frame(wire.REPLY, value)
        assert wire.encode_frame(wire.REPLY, got) == frame

    def test_bool_not_confused_with_int(self):
        got = roundtrip([True, 1, False, 0])
        assert got == [True, 1, False, 0]
        assert [type(item) for item in got] == [bool, int, bool, int]

    @pytest.mark.parametrize("resource", [
        Color(pixel=7, red=65535, green=0, blue=32768),
        Font(fid=3, name="fixed", char_width=6, ascent=10, descent=2),
        Cursor(cid=11, name="arrow"),
        Bitmap(bid=4, name="gray50", width=16, height=16),
    ])
    def test_frozen_resources(self, resource):
        assert roundtrip(resource) == resource

    def test_graphics_context(self):
        gc = GraphicsContext(gid=9, values={"foreground": 1,
                                            "line_width": 2})
        got = roundtrip(gc)
        assert got.gid == 9
        assert got.values == {"foreground": 1, "line_width": 2}

    def test_event_round_trips_every_wire_field(self):
        event = ev.Event(type=ev.KEY_PRESS, window=5, x=1, y=2,
                         x_root=3, y_root=4, state=8, keysym="a",
                         keychar="a", button=0, width=10, height=20,
                         time=1234, atom=6, selection=7, target=8,
                         property=9, requestor=10, data=(1, "two"),
                         send_event=True)
        got = roundtrip(event)
        for name in ev.WIRE_FIELDS:
            assert getattr(got, name) == getattr(event, name), name

    def test_event_serial_is_fresh_not_shipped(self):
        event = ev.Event(type=ev.EXPOSE, window=1)
        frame = wire.encode_frame(wire.EVENT, event)
        first = wire.decode_frame(frame)[1]
        second = wire.decode_frame(frame)[1]
        # serial is assigned at decode, monotonically, like real Xlib
        assert second.serial > first.serial
        assert first.serial != event.serial
        # everything else identical across the two decodes
        strip = {"serial"}
        for f in dataclasses.fields(ev.Event):
            if f.name not in strip:
                assert getattr(first, f.name) == getattr(second, f.name)

    def test_client_decodes_to_ref_without_resolver(self):
        server = XServer()
        client = server.connect()
        got = roundtrip(client)
        assert isinstance(got, ClientRef)
        assert got == client and client == got
        assert hash(got) == hash(ClientRef(client.number))

    def test_client_resolver_returns_live_object(self):
        server = XServer()
        client = server.connect()
        table = {client.number: client}
        got = roundtrip([client], resolve_client=table.__getitem__)
        assert got[0] is client

    def test_clientref_round_trips(self):
        assert roundtrip(ClientRef(42)) == ClientRef(42)

    def test_unencodable_value_raises(self):
        with pytest.raises(WireError):
            wire.encode_frame(wire.REPLY, object())
        with pytest.raises(WireError):
            wire.encode_frame(wire.REPLY, {1, 2})


class TestFrameSize:
    """wire.frame_size is the loopback transport's accounting fast
    path; it must agree with len(encode_frame) for every value, or the
    transport-invariance byte gate silently rots."""

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, (1 << 63) - 1, -(1 << 63),
        1 << 64, -(1 << 200), 0.0, 1e300,
        "", "hello", "snÖwmän ☃", "\x00nul",
        b"", b"raw\x00bytes", bytearray(b"mutable"),
        [1, "two", None], (4, 5), {1: [2, {"x": (None, True)}]},
        Color(pixel=7, red=65535, green=0, blue=32768),
        Font(fid=3, name="fixed", char_width=6, ascent=10, descent=2),
        Cursor(cid=11, name="arrow"),
        Bitmap(bid=4, name="gray50", width=16, height=16),
        GraphicsContext(gid=9, values={"foreground": 1}),
        ClientRef(42),
        ev.Event(type=ev.KEY_PRESS, window=5, x=1, y=2, keysym="ö",
                 data=(1, "two"), send_event=True),
    ])
    def test_matches_encoded_length(self, value):
        assert wire.frame_size(wire.REPLY, value) == \
            len(wire.encode_frame(wire.REPLY, value))

    def test_unencodable_and_unknown_type_raise_like_encode(self):
        with pytest.raises(WireError):
            wire.frame_size(wire.REPLY, object())
        with pytest.raises(WireError):
            wire.frame_size(wire.REPLY, [1, {2, 3}])
        with pytest.raises(WireError):
            wire.frame_size(0x7F, None)

    # The Event sizer's fast path covers one shape (exact ints in i64,
    # ASCII strings, empty data, a bool); each case below leaves that
    # shape in one field and must size, or fail, exactly like encode.
    @pytest.mark.parametrize("fields", [
        {},                                          # the common shape
        {"keysym": "Return", "keychar": "\r", "time": 99},
        {"x": True},                                 # bool in int field
        {"state": False, "button": True},
        {"time": 1 << 63},                           # just past i64
        {"time": -(1 << 63) - 1},
        {"time": -(1 << 63), "atom": (1 << 63) - 1},  # i64 extremes
        {"time": 1 << 200},
        {"x": 1.5},                                  # float in int field
        {"keysym": "ö"},                             # non-ASCII strings
        {"keychar": "☃"},
        {"data": (1, "two", None)},                  # non-empty data
        {"send_event": True},
    ])
    def test_event_sizer_lockstep(self, fields):
        event = ev.Event(type=ev.EXPOSE, window=3, width=10, height=20,
                         **fields)
        for ftype in (wire.EVENT, wire.REPLY):
            assert wire.frame_size(ftype, event) == \
                len(wire.encode_frame(ftype, event))

    @pytest.mark.parametrize("fields", [
        {"data": (1, object())},                     # unencodable item
        {"data": ({1, 2},)},
        {"x": object()},
        {"keychar": b"raw", "requestor": object()},
    ])
    def test_event_sizer_raises_like_encode(self, fields):
        event = ev.Event(type=ev.KEY_PRESS, **fields)
        with pytest.raises(WireError) as encoded:
            wire.encode_frame(wire.EVENT, event)
        with pytest.raises(WireError) as sized:
            wire.frame_size(wire.EVENT, event)
        assert str(sized.value) == str(encoded.value)

    #: values outside the common shape, by the field's usual type
    ODD_VALUES = {int: (True, 2.5, 1 << 63, None), str: ("é", None, 7),
                  tuple: ((1,), [], None), bool: (1, None)}

    @pytest.mark.parametrize("name", ev.WIRE_FIELDS)
    def test_event_sizer_checks_every_field(self, name):
        kind = type(getattr(ev.Event(ev.EXPOSE), name))
        for value in self.ODD_VALUES[kind]:
            event = ev.Event(ev.EXPOSE, window=4)
            setattr(event, name, value)
            assert wire.frame_size(wire.EVENT, event) == \
                len(wire.encode_frame(wire.EVENT, event)), value

    # Request payloads carry a live Client (select_input) and GCs
    # (draw_*); both have exact-type arms ahead of the isinstance chain.
    GC_VALUES = [{}, {"foreground": 1, "background": 0},
                 {"font": "fixed", "line_width": 1 << 70},
                 {"dashes": [1, (2, 3)], "name": "snöw"}]

    @staticmethod
    def _payloads(client, gc):
        ops = [("select_input", 7, (client, 7, 1 << 15), {}),
               ("configure_window", 9, (9,), {"x": 0, "width": 40}),
               ("draw_string", 9, (9, gc, 3, 11, "label"), {}),
               ("destroy_window", 9, (9,), {})]
        return [(wire.BATCH, ops),
                (wire.REQUEST, ("create_gc", (client,), gc.values)),
                (wire.REQUEST, ("fill_rectangle", (9, gc, 0, 0, 5, 5),
                                {})),
                (wire.REPLY, client), (wire.REPLY, gc)]

    @pytest.mark.parametrize("values", GC_VALUES)
    def test_client_and_gc_arms_lockstep(self, values):
        client = XServer().connect()
        gc = GraphicsContext(gid=5, values=values)
        with mock.patch.object(wire, "_encoded_size",
                               side_effect=AssertionError("slow path")):
            for ftype, value in self._payloads(client, gc):
                for ctx in (None, 12345):
                    if ctx is not None and \
                            ftype not in wire.TRACED_FRAMES:
                        continue
                    assert wire.frame_size(ftype, value, ctx) == \
                        len(wire.encode_frame(ftype, value, ctx))

    def test_gc_arm_raises_like_encode(self):
        gc = GraphicsContext(gid=5, values={"stipple": object()})
        with pytest.raises(WireError) as encoded:
            wire.encode_frame(wire.BATCH, [("draw_line", 1, (1, gc), {})])
        with pytest.raises(WireError) as sized:
            wire.frame_size(wire.BATCH, [("draw_line", 1, (1, gc), {})])
        assert str(sized.value) == str(encoded.value)

    def test_event_frame_arm_keeps_the_frame_rules(self):
        event = ev.Event(ev.EXPOSE, window=3, width=10, height=20)
        for ftype in (wire.EVENT, wire.REPLY):
            assert wire.frame_size(ftype, event) == \
                len(wire.encode_frame(ftype, event))
        with pytest.raises(WireError):
            wire.frame_size(0x7F, event)
        with pytest.raises(WireError):
            wire.frame_size(wire.EVENT, event, 5)
        assert wire.frame_size(wire.REQUEST, event, 5) == \
            len(wire.encode_frame(wire.REQUEST, event, 5))


@contextlib.contextmanager
def generic_event_codec():
    """Switch the straight-line EVENT encoder and decoder off, so every
    Event goes field by field through the generic codec."""
    with mock.patch.object(wire, "_encode_event",
                           lambda event, out: False), \
            mock.patch.object(wire, "_decode_event",
                              lambda data, offset: None):
        yield


def wire_fields(event):
    """Every wire field of ``event`` as (type, repr)."""
    return [(type(getattr(event, name)), repr(getattr(event, name)))
            for name in ev.WIRE_FIELDS]


def decode_outcome(frame):
    """What decoding ``frame`` yields: its frame type and the wire
    fields of every event in it, or the WireError message; plus the
    number of event serials the decode took."""
    before = ev.Event(ev.EXPOSE).serial
    try:
        ftype, value = wire.decode_frame(frame)
    except WireError as error:
        result = ("WireError", str(error))
    else:
        events = [value] if isinstance(value, ev.Event) else \
            [item for item in value if isinstance(item, ev.Event)]
        result = (ftype, [wire_fields(event) for event in events])
    taken = ev.Event(ev.EXPOSE).serial - before - 1
    return result, taken


class TestEventCodec:
    """The straight-line EVENT encoder and decoder against the generic
    field-by-field codec: same bytes, same decoded fields and types, one
    serial per decoded event, and the same WireError on bad frames."""

    INT_FIELDS = [name for name in ev.WIRE_FIELDS
                  if type(getattr(ev.Event(ev.EXPOSE), name)) is int]
    #: values that leave the common shape in an int field
    ODD_INTS = (True, False, 2.5, None, 1 << 63, -(1 << 63) - 1,
                1 << 200, (1 << 63) - 1, -(1 << 63))

    @staticmethod
    def common_event(rng):
        """A random server-shaped Event: i64 ints, ASCII strings."""
        def text():
            return "".join(rng.choice(string.printable)
                           for _ in range(rng.choice((0, 1, 1, 6, 40))))
        fields = {name: rng.choice((0, 1, rng.randrange(1 << 16),
                                    rng.randrange(-(1 << 63), 1 << 63),
                                    (1 << 63) - 1, -(1 << 63)))
                  for name in TestEventCodec.INT_FIELDS}
        return ev.Event(keysym=text(), keychar=text(),
                        send_event=rng.random() < 0.5, **fields)

    @classmethod
    def battery(cls):
        rng = random.Random(1991)
        events = [cls.common_event(rng) for _ in range(30)]
        for name in cls.INT_FIELDS:
            for value in cls.ODD_INTS:
                event = cls.common_event(rng)
                setattr(event, name, value)
                events.append(event)
        odd = {"keysym": ("ö", "☃ key", "\x00"), "keychar": ("é", "☃"),
               "data": ((1, "two"), (None,), [], ((),)),
               "send_event": (True, False, 1, None)}
        for name, values in odd.items():
            for value in values:
                event = cls.common_event(rng)
                setattr(event, name, value)
                events.append(event)
        return events

    def frames(self):
        for event in self.battery():
            yield wire.EVENT, event
            yield wire.REPLY, [event, 7, event]

    def test_battery_covers_both_paths(self):
        shaped = sum(wire._encode_event(event, bytearray())
                     for event in self.battery())
        assert 30 <= shaped < len(self.battery())

    def test_frame_bytes_identical(self):
        for ftype, payload in self.frames():
            fast = wire.encode_frame(ftype, payload)
            with generic_event_codec():
                assert wire.encode_frame(ftype, payload) == fast, payload
            assert wire.frame_size(ftype, payload) == len(fast)

    def test_decoded_fields_types_and_serials_identical(self):
        for ftype, payload in self.frames():
            frame = wire.encode_frame(ftype, payload)
            fast = decode_outcome(frame)
            with generic_event_codec():
                assert decode_outcome(frame) == fast
            if ftype == wire.EVENT:
                expected = [wire_fields(payload)]
            else:
                expected = [wire_fields(payload[0])] * 2
            assert fast == ((ftype, expected), len(expected))

    def assert_same_outcome(self, frame):
        fast = decode_outcome(frame)
        with generic_event_codec():
            assert decode_outcome(frame) == fast

    def test_truncated_frames_fail_identically(self):
        for ftype, payload in list(self.frames())[::5]:
            frame = wire.encode_frame(ftype, payload)
            for cut in range(5, len(frame)):
                prefix = wire._U32.pack(cut - 4) + frame[4:cut]
                self.assert_same_outcome(prefix)

    def test_trailing_bytes_fail_identically(self):
        for ftype, payload in list(self.frames())[::3]:
            frame = wire.encode_frame(ftype, payload)
            for extra in (b"\x00", b"\x02",
                          bytes([wire.T_SPAN]) + b"\x00" * 8):
                padded = wire._U32.pack(len(frame) - 4 + len(extra)) + \
                    frame[4:] + extra
                self.assert_same_outcome(padded)

    def test_wrong_tags_fail_identically(self):
        # Overwrite every byte in turn with each tag the event shape
        # uses (and one unknown): where it hits a tag or a length, the
        # fast decoder must step aside for the generic one.
        for ftype, payload in list(self.frames())[::19]:
            frame = wire.encode_frame(ftype, payload)
            for position in range(5, len(frame)):
                for tag in (wire.T_TRUE, wire.T_INT, wire.T_STR,
                            wire.T_TUPLE, 0x7E):
                    mutated = bytearray(frame)
                    mutated[position] = tag
                    self.assert_same_outcome(bytes(mutated))


class TestExactTypeFastPaths:
    """_encode_value checks exact types first; a subclass takes the
    isinstance chain, which must encode it the same way."""

    class Int(int):
        pass

    class Str(str):
        pass

    class List(list):
        pass

    class Tuple(tuple):
        pass

    class Dict(dict):
        pass

    @pytest.mark.parametrize("plain, wrapped", [
        (5, Int(5)), (-(1 << 63), Int(-(1 << 63))), (1 << 70, Int(1 << 70)),
        ("snÖw", Str("snÖw")), ([1, "a"], List([1, "a"])),
        ((None, 2.5), Tuple((None, 2.5))), ({"k": (1,)}, Dict({"k": (1,)})),
    ])
    def test_subclass_encodes_like_exact_type(self, plain, wrapped):
        assert wire.encode_frame(wire.REPLY, wrapped) == \
            wire.encode_frame(wire.REPLY, plain)


class TestFrames:
    def test_every_frame_type_round_trips(self):
        payloads = {
            wire.SETUP: None,
            wire.SETUP_ACK: (1, 1, 800, 600),
            wire.BATCH: [("map_window", 3, (), {}),
                         ("clear_area", 3, (0, 0, 10, 10), {})],
            wire.BATCH_ACK: 2,
            wire.ONEWAY: ("warp_pointer", 0, (5, 6), {}),
            wire.ONEWAY_ACK: None,
            wire.REQUEST: ("get_geometry", (3,), {}),
            wire.REPLY: (0, 0, 10, 10, 1),
            wire.ERROR: (0, "BadWindow"),
            wire.EVENT: ev.Event(type=ev.EXPOSE, window=3),
            wire.BYE: None,
        }
        for ftype, payload in payloads.items():
            frame = wire.encode_frame(ftype, payload)
            got_type, got = wire.decode_frame(frame)
            assert got_type == ftype
            if ftype != wire.EVENT:
                assert got == payload

    def test_unknown_frame_type_rejected_both_ways(self):
        with pytest.raises(WireError):
            wire.encode_frame(0x7F, None)
        frame = bytearray(wire.encode_frame(wire.BYE))
        frame[4] = 0x7F
        with pytest.raises(WireError):
            wire.decode_frame(bytes(frame))

    def test_every_truncation_rejected(self):
        frame = wire.encode_frame(
            wire.REPLY, {"k": [1, "two", 3.0, b"x", ClientRef(1)]})
        for cut in range(len(frame)):
            prefix = frame[:cut]
            if cut >= 4:
                # keep the length honest so we test payload truncation,
                # not just the length-mismatch guard
                prefix = wire._U32.pack(max(0, cut - 4)) + prefix[4:]
            with pytest.raises(WireError):
                wire.decode_frame(prefix)

    def test_trailing_bytes_rejected(self):
        frame = wire.encode_frame(wire.REPLY, 5)
        padded = wire._U32.pack(len(frame) - 4 + 1) + frame[4:] + b"\x00"
        with pytest.raises(WireError):
            wire.decode_frame(padded)

    def test_unknown_tag_rejected(self):
        body = bytes([wire.REPLY, 0x7E])
        frame = wire._U32.pack(len(body)) + body
        with pytest.raises(WireError):
            wire.decode_frame(frame)

    def test_bad_utf8_rejected(self):
        body = bytes([wire.REPLY, wire.T_STR]) + \
            wire._U32.pack(2) + b"\xff\xfe"
        frame = wire._U32.pack(len(body)) + body
        with pytest.raises(WireError):
            wire.decode_frame(frame)

    def test_event_field_count_mismatch_rejected(self):
        frame = bytearray(wire.encode_frame(
            wire.EVENT, ev.Event(type=ev.EXPOSE)))
        assert frame[6] == len(ev.WIRE_FIELDS)
        frame[6] = len(ev.WIRE_FIELDS) - 1
        with pytest.raises(WireError):
            wire.decode_frame(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = wire.encode_frame(wire.REPLY, "abc")
        bad = wire._U32.pack(len(frame)) + frame[4:]  # off by four
        with pytest.raises(WireError):
            wire.decode_frame(bad)


class TestExtractFrames:
    def test_splits_concatenated_stream(self):
        frames = [wire.encode_frame(wire.REPLY, n) for n in range(3)]
        buffer = bytearray(b"".join(frames))
        got = wire.extract_frames(buffer)
        assert got == frames
        assert buffer == b""

    def test_partial_tail_left_in_buffer(self):
        frame = wire.encode_frame(wire.REPLY, "payload")
        buffer = bytearray(frame + frame[:7])
        got = wire.extract_frames(buffer)
        assert got == [frame]
        assert bytes(buffer) == frame[:7]
        buffer += frame[7:]
        assert wire.extract_frames(buffer) == [frame]

    def test_short_header_waits(self):
        buffer = bytearray(b"\x00\x00")
        assert wire.extract_frames(buffer) == []
        assert buffer == b"\x00\x00"

    @pytest.mark.parametrize("length", [0, wire.MAX_FRAME + 1])
    def test_implausible_length_raises(self, length):
        buffer = bytearray(wire._U32.pack(length) + b"\x00" * 8)
        with pytest.raises(WireError):
            wire.extract_frames(buffer)


class TestErrorMarshalling:
    def test_protocol_error_preserves_type_and_message(self):
        error = wire.error_from_value(
            roundtrip(wire.error_value(XProtocolError("BadWindow: 9")),
                      wire.ERROR))
        assert type(error) is XProtocolError
        assert str(error) == "BadWindow: 9"

    def test_connection_lost_preserves_type(self):
        error = wire.error_from_value(
            roundtrip(wire.error_value(XConnectionLost("gone")),
                      wire.ERROR))
        assert type(error) is XConnectionLost
        assert str(error) == "gone"


class TestCrossTransportIdentity:
    """The tentpole gate: same session, same bytes, both transports."""

    def _replay_capturing(self, kind):
        from repro.obs.journal import Journal
        from repro.obs.replay import replay_journal
        from repro.x11.transport import resolve_transport
        captured = []

        def factory(server):
            transport = resolve_transport(server, kind)
            captured.append(transport.capture_wire())
            return transport

        result = replay_journal(Journal.load(GOLDEN), mode="default",
                                transport=factory)
        return result, captured[0]

    def test_golden_wire_for_wire_identical(self):
        loop_result, loop_log = self._replay_capturing("loopback")
        sock_result, sock_log = self._replay_capturing("socket")
        assert loop_result.matched, loop_result.report()
        assert sock_result.matched, sock_result.report()
        assert len(loop_log) == len(sock_log)
        for i, (a, b) in enumerate(zip(loop_log, sock_log)):
            assert a == b, "frame %d differs: %s vs %s" % (
                i, wire.frame_name(a[4]), wire.frame_name(b[4]))
        # and every frame in the log re-decodes cleanly
        for frame in loop_log:
            wire.decode_frame(frame)

    def test_golden_replay_matches_on_socket(self):
        from repro.obs.journal import Journal
        from repro.obs.replay import replay_journal
        result = replay_journal(Journal.load(GOLDEN), mode="default",
                                transport="socket")
        assert result.matched, result.report()


class TestTraceContext:
    """Codec v2: the optional trace-context suffix on traced frames."""

    PAYLOADS = {
        wire.BATCH: [("map_window", 3, (), {})],
        wire.ONEWAY: ("warp_pointer", 0, (5, 6), {}),
        wire.REQUEST: ("get_geometry", (3,), {}),
    }

    def test_codec_version_bumped(self):
        assert wire.CODEC_VERSION == 2

    @pytest.mark.parametrize("ftype", sorted(wire.TRACED_FRAMES))
    def test_ctx_round_trips_on_traced_frames(self, ftype):
        payload = self.PAYLOADS[ftype]
        for ctx in (0, 1, 41, (1 << 63) - 1, -(1 << 63)):
            frame = wire.encode_frame(ftype, payload, ctx)
            got_type, got, got_ctx = wire.decode_frame_ex(frame)
            assert (got_type, got, got_ctx) == (ftype, payload, ctx)

    @pytest.mark.parametrize("ftype", sorted(wire.TRACED_FRAMES))
    def test_frame_size_lockstep_with_ctx(self, ftype):
        payload = self.PAYLOADS[ftype]
        assert wire.frame_size(ftype, payload) == \
            len(wire.encode_frame(ftype, payload))
        assert wire.frame_size(ftype, payload, 7) == \
            len(wire.encode_frame(ftype, payload, 7))
        assert wire.frame_size(ftype, payload, 7) == \
            wire.frame_size(ftype, payload) + 9

    @pytest.mark.parametrize("ftype", sorted(wire.TRACED_FRAMES))
    def test_untraced_encoding_is_v1_byte_identical(self, ftype):
        payload = self.PAYLOADS[ftype]
        assert wire.encode_frame(ftype, payload, None) == \
            wire.encode_frame(ftype, payload)

    def test_ctx_rejected_on_untraced_frame_types(self):
        for ftype in (wire.REPLY, wire.EVENT, wire.BYE):
            with pytest.raises(WireError):
                wire.encode_frame(ftype, None if ftype != wire.REPLY
                                  else 5, 1)
            with pytest.raises(WireError):
                wire.frame_size(ftype, None if ftype != wire.REPLY
                                else 5, 1)

    def test_span_suffix_on_untraced_frame_rejected(self):
        # Hand-build a REPLY frame with a trailing T_SPAN suffix: the
        # decoder must treat it as trailing garbage, not trace context.
        traced = wire.encode_frame(wire.REQUEST,
                                   self.PAYLOADS[wire.REQUEST], 9)
        suffix = traced[-9:]
        assert suffix[0] == wire.T_SPAN
        reply = wire.encode_frame(wire.REPLY, 5)
        forged = wire._U32.pack(len(reply) - 4 + 9) + \
            reply[4:] + suffix
        with pytest.raises(WireError):
            wire.decode_frame_ex(forged)

    def test_decode_frame_discards_ctx(self):
        frame = wire.encode_frame(wire.REQUEST,
                                  self.PAYLOADS[wire.REQUEST], 13)
        got_type, got = wire.decode_frame(frame)
        assert got_type == wire.REQUEST
        assert got == self.PAYLOADS[wire.REQUEST]

    def test_trailing_garbage_still_rejected_after_ctx(self):
        frame = wire.encode_frame(wire.REQUEST,
                                  self.PAYLOADS[wire.REQUEST], 13)
        padded = wire._U32.pack(len(frame) - 4 + 1) + \
            frame[4:] + b"\x00"
        with pytest.raises(WireError):
            wire.decode_frame_ex(padded)

    def test_truncated_ctx_suffix_rejected(self):
        frame = wire.encode_frame(wire.REQUEST,
                                  self.PAYLOADS[wire.REQUEST], 13)
        cut = wire._U32.pack(len(frame) - 4 - 1) + frame[4:-1]
        with pytest.raises(WireError):
            wire.decode_frame_ex(cut)
