"""Wire-format conformance of the socket transport's codec (repro.net.framing).

``test_framing.py`` checks that values survive a round trip.  This file pins
*which bytes* they travel as: the pure-python packer claims to emit the
smallest msgpack representation, exactly as the reference C packer does, so
every size class of the msgpack spec is checked at both of its edges by its
leading marker byte and its header length.  It also covers the rejection
paths of the unpacker and of the ``[tag, body]`` object codec that no
well-formed round trip reaches: unsupported markers, invalid UTF-8, values
outside the msgpack subset, malformed codec bodies and a peer that closes
the connection exactly at the frame body's edge.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.messages import MessageCategory, ReplyStatus
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup
from repro.net.framing import (
    FrameError,
    decode_value,
    encode_frame,
    encode_value,
    packb,
    read_frame,
    unpackb,
    write_frame,
)


def _assert_canonical(value: object, marker: int, header: int, body: int) -> None:
    """``value`` packs behind ``marker`` with a ``header``-byte type/size
    prefix, the payload takes ``body`` more bytes, and it unpacks unchanged."""
    data = packb(value)
    assert data[0] == marker, f"marker 0x{data[0]:02x}, expected 0x{marker:02x}"
    assert len(data) == header + body
    assert unpackb(data) == value


# --------------------------------------------------------------------- #
# Smallest-representation markers, one case per size-class edge
# --------------------------------------------------------------------- #

# (value, marker, total encoded length)
INT_CASES = [
    (0, 0x00, 1),
    (127, 0x7F, 1),
    (128, 0xCC, 2),
    (255, 0xCC, 2),
    (256, 0xCD, 3),
    (65535, 0xCD, 3),
    (65536, 0xCE, 5),
    (2**32 - 1, 0xCE, 5),
    (2**32, 0xCF, 9),
    (2**64 - 1, 0xCF, 9),
    (-1, 0xFF, 1),
    (-32, 0xE0, 1),
    (-33, 0xD0, 2),
    (-128, 0xD0, 2),
    (-129, 0xD1, 3),
    (-32768, 0xD1, 3),
    (-32769, 0xD2, 5),
    (-(2**31), 0xD2, 5),
    (-(2**31) - 1, 0xD3, 9),
    (-(2**63), 0xD3, 9),
]


@pytest.mark.parametrize(("value", "marker", "length"), INT_CASES, ids=lambda v: repr(v))
def test_int_uses_smallest_marker(value, marker, length):
    _assert_canonical(value, marker, length, 0)


@pytest.mark.parametrize(
    ("value", "marker"),
    [(None, 0xC0), (False, 0xC2), (True, 0xC3)],
    ids=["nil", "false", "true"],
)
def test_constant_markers(value, marker):
    data = packb(value)
    assert data == bytes((marker,))
    assert unpackb(data) is value


def test_float_is_always_float64():
    _assert_canonical(0.5, 0xCB, 1, 8)


# (length, marker, header bytes before the payload)
STR_CASES = [
    (0, 0xA0, 1),
    (31, 0xBF, 1),
    (32, 0xD9, 2),
    (255, 0xD9, 2),
    (256, 0xDA, 3),
    (65535, 0xDA, 3),
    (65536, 0xDB, 5),
]


@pytest.mark.parametrize(("size", "marker", "header"), STR_CASES, ids=lambda v: str(v))
def test_str_size_classes(size, marker, header):
    _assert_canonical("s" * size, marker, header, size)


def test_str_size_counts_utf8_bytes_not_characters():
    # 16 two-byte characters are 32 UTF-8 bytes: past the fixstr limit.
    _assert_canonical("é" * 16, 0xD9, 2, 32)


BIN_CASES = [
    (0, 0xC4, 2),
    (255, 0xC4, 2),
    (256, 0xC5, 3),
    (65535, 0xC5, 3),
    (65536, 0xC6, 5),
]


@pytest.mark.parametrize(("size", "marker", "header"), BIN_CASES, ids=lambda v: str(v))
def test_bin_size_classes(size, marker, header):
    _assert_canonical(b"\x07" * size, marker, header, size)


def test_bytearray_packs_as_bin():
    data = packb(bytearray(b"ab"))
    assert data == b"\xc4\x02ab"
    assert unpackb(data) == b"ab"


# Every element is a one-byte positive fixint, so the payload after the
# header is exactly ``size`` bytes long.
ARRAY_CASES = [
    (0, 0x90, 1),
    (15, 0x9F, 1),
    (16, 0xDC, 3),
    (65535, 0xDC, 3),
    (65536, 0xDD, 5),
]


@pytest.mark.parametrize(("size", "marker", "header"), ARRAY_CASES, ids=lambda v: str(v))
def test_array_size_classes(size, marker, header):
    _assert_canonical([1] * size, marker, header, size)


def test_tuple_packs_as_array():
    data = packb((1, 2))
    assert data == b"\x92\x01\x02"
    assert unpackb(data) == [1, 2]


MAP_CASES = [
    (0, 0x80, 1),
    (15, 0x8F, 1),
    (16, 0xDE, 3),
    (65536, 0xDF, 5),
]


@pytest.mark.parametrize(("size", "marker", "header"), MAP_CASES, ids=lambda v: str(v))
def test_map_size_classes(size, marker, header):
    # Integer keys past 127 take more than one byte, so the size field in
    # the header is checked instead of the total length.
    value = {index: None for index in range(size)}
    data = packb(value)
    assert data[0] == marker
    declared = data[0] & 0x0F if header == 1 else int.from_bytes(data[1:header], "big")
    assert declared == size
    assert unpackb(data) == value


# --------------------------------------------------------------------- #
# Unpacker rejections
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "marker",
    [0xC1, 0xC7, 0xC8, 0xC9, 0xCA, 0xD4, 0xD8],
    ids=["never-used", "ext8", "ext16", "ext32", "float32", "fixext1", "fixext16"],
)
def test_marker_outside_subset_rejected(marker):
    with pytest.raises(FrameError, match="unsupported msgpack marker"):
        unpackb(bytes((marker,)) + b"\x00" * 16)


@pytest.mark.parametrize(
    "data",
    [b"\xa1\xff", b"\xd9\x02\xc3\x28", b"\xa2\xe2\x82"],
    ids=["fixstr", "str8", "truncated-sequence"],
)
def test_invalid_utf8_rejected(data):
    with pytest.raises(FrameError, match="invalid utf-8"):
        unpackb(data)


@pytest.mark.parametrize(
    "data",
    [b"\xda\x00", b"\xdb\x00\x00\x00\x05ab", b"\xc5\x01", b"\xdc\x00\x02\x01", b"\xdf\x00\x00\x00\x01\x01"],
    ids=["str16-size", "str32-body", "bin16-size", "array16-items", "map32-value"],
)
def test_truncated_wide_size_classes_rejected(data):
    with pytest.raises(FrameError, match="truncated"):
        unpackb(data)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, object(), 1 + 2j, IdentifierKey(1, 8)],
    ids=["set", "object", "complex", "protocol-record"],
)
def test_value_outside_subset_cannot_be_packed(value):
    # Protocol records must go through encode_value first.
    with pytest.raises(FrameError, match="cannot pack"):
        packb(value)


# --------------------------------------------------------------------- #
# Object codec: containers and malformed bodies
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "value",
    [
        (IdentifierKey(3, 8), KeyGroup(prefix=1, depth=2, width=8)),
        {"owner": KeyGroup(prefix=0, depth=0, width=16), 7: [IdentifierKey(9, 16)]},
        {(1, "a"): (ReplyStatus.OK, MessageCategory.LOOKUP)},
    ],
    ids=["tuple-of-records", "dict-of-records", "tuple-keyed-dict"],
)
def test_containers_of_records_round_trip_with_their_types(value):
    # Tuples stay tuples (a plain msgpack array would come back as a list).
    decoded = decode_value(unpackb(packb(encode_value(value))))
    assert decoded == value
    assert type(decoded) is type(value)


@pytest.mark.parametrize(
    ("encoded", "message"),
    [
        ("scalar", "malformed encoded value"),
        ([0], "malformed encoded value"),
        ([0, 1, 2], "malformed encoded value"),
        ([0, [1]], "malformed scalar body"),
        ([0, {"a": 1}], "malformed scalar body"),
        ([16, 5], "non-array body"),
    ],
    ids=["not-a-list", "one-element", "three-elements", "list-as-scalar", "map-as-scalar", "record-with-int-body"],
)
def test_malformed_encoded_value_rejected(encoded, message):
    with pytest.raises(FrameError, match=message):
        decode_value(encoded)


@pytest.mark.parametrize(
    ("encoded", "record"),
    [
        ([16, [b"\x10", 4]], "IdentifierKey"),
        ([16, [b"\x01", 0]], "IdentifierKey"),
        ([17, [b"\x01", 9, 8]], "KeyGroup"),
        ([17, [b"\x04", 2, 8]], "KeyGroup"),
        ([18, [999]], "MessageCategory"),
        ([19, ["no-such-status"]], "ReplyStatus"),
    ],
    ids=["key-exceeds-width", "key-zero-width", "group-deeper-than-width", "group-prefix-exceeds-depth", "unknown-category", "unknown-status"],
)
def test_invalid_record_body_rejected_at_the_boundary(encoded, record):
    with pytest.raises(FrameError, match=f"invalid {record} frame"):
        decode_value(encoded)


# --------------------------------------------------------------------- #
# Frame layer over a socket pair
# --------------------------------------------------------------------- #


def test_write_frame_then_read_frame():
    left, right = socket.socketpair()
    try:
        payload = encode_value(KeyGroup(prefix=5, depth=3, width=24))
        write_frame(left, payload)
        write_frame(left, [1, "two"])
        assert decode_value(read_frame(right)) == KeyGroup(prefix=5, depth=3, width=24)
        assert read_frame(right) == [1, "two"]
    finally:
        left.close()
        right.close()


def test_eof_after_length_prefix_rejected():
    # The peer sends a complete prefix and closes before any body byte:
    # not a clean EOF between frames.
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame([1, 2, 3])[:4])
        left.close()
        with pytest.raises(FrameError, match="before the 4-byte frame body"):
            read_frame(right)
    finally:
        right.close()


def test_eof_inside_length_prefix_rejected():
    left, right = socket.socketpair()
    try:
        left.sendall(b"\x00\x00")
        left.close()
        with pytest.raises(FrameError, match="mid-frame"):
            read_frame(right)
    finally:
        right.close()
