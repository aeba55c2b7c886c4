"""Canonical wire encoding shared by every record in the system.

One deterministic, injective byte layout: fields in declaration order,
unsigned integers as 8-byte big-endian, byte strings length-prefixed with a
4-byte big-endian length, a record's lists of items prefixed with a u64
count, and variant tags as a single byte. Hashing, signing and encryption
all run over these bytes, so independent nodes agree bit-for-bit.

A wire record states its layout once: a `Record` is its one-byte `WIRE_TAG`,
then the fields of its `LAYOUT`, (field name, `Codec`) pairs in wire order,
and the one `Record` implementation writes and reads them all. A nested
record is written and read through its class's methods as they are at call
time, so a method replaced on the class is the one used.

A list of `(timestamp, heart_rate)` readings is a u64 count followed by the
packed array of its pairs, each value an 8-byte big-endian unsigned integer:
the same bytes as the count and every value written one u64 at a time, but
packed and unpacked by `struct` in C rather than one field at a time. A
`Readings` list keeps those bytes, and `READINGS` writes them as they are.
"""

from __future__ import annotations

import struct
from dataclasses import field
from itertools import starmap
from operator import methodcaller
from typing import Callable, NamedTuple, Optional

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
READING = struct.Struct(">QQ")  # one (timestamp, heart_rate) pair

U64_MAX = 2**64 - 1


class DecodeError(ValueError):
    """Raised when bytes do not parse as the expected record."""


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"value out of u64 range: {value}")
    return _U64.pack(value)


def enc_u8(value: int) -> bytes:
    if not 0 <= value <= 0xFF:
        raise ValueError(f"value out of u8 range: {value}")
    return bytes([value])


def enc_bytes(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def enc_str(text: str) -> bytes:
    return enc_bytes(text.encode("utf-8"))


def enc_readings(readings) -> bytes:
    """A u64 count, then each (timestamp, heart_rate) pair as two u64s.

    Raises `ValueError` for a value outside the u64 range and for a reading
    that is not exactly a pair.
    """
    try:
        return _U64.pack(len(readings)) + b"".join(starmap(READING.pack, readings))
    except struct.error as exc:
        raise ValueError(f"reading is not a pair of u64 values: {exc}") from exc


class Readings(list):
    """(timestamp, heart_rate) readings that carry their `enc_readings` bytes."""

    __slots__ = ("packed",)

    def __init__(self, readings, packed: bytes):
        super().__init__(readings)
        self.packed = packed


def enc_list(items, enc_item) -> bytes:
    parts = [_U32.pack(len(items))]
    parts.extend(enc_item(item) for item in items)
    return b"".join(parts)


def cache_field():
    """A value a frozen record derives from its fields and keeps once computed.

    It is no constructor argument, so `dataclasses.replace` never copies a
    stale value into a changed record, and it takes no part in equality or
    repr.
    """
    return field(default=None, init=False, repr=False, compare=False)


def set_cached(record, name: str, value):
    """Store a derived value on a frozen record; returns the value."""
    object.__setattr__(record, name, value)
    return value


class Reader:
    """Sequential decoder over one canonical byte string, or over
    `data[pos:end]` in place."""

    def __init__(self, data: bytes, pos: int = 0, end: Optional[int] = None):
        self._data = data
        self._pos = pos
        self._end = len(data) if end is None else end

    # Each field is read in place after a bounds check, with no slice between.

    def u64(self) -> int:
        pos = self._pos
        if pos + 8 > self._end:
            raise DecodeError(f"short read: need 8 bytes at offset {pos}")
        self._pos = pos + 8
        return _U64.unpack_from(self._data, pos)[0]

    def u32(self) -> int:
        pos = self._pos
        if pos + 4 > self._end:
            raise DecodeError(f"short read: need 4 bytes at offset {pos}")
        self._pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise DecodeError(f"short read: need 1 bytes at offset {pos}")
        self._pos = pos + 1
        return self._data[pos]

    def count(self, min_item_size: int) -> int:
        """A u64 item count, rejected before anything is allocated when that
        many items of at least `min_item_size` bytes cannot fit in the rest."""
        count = self.u64()
        if count > self.remaining // min_item_size:
            raise DecodeError(f"{count} items do not fit in {self.remaining} bytes")
        return count

    def readings(self) -> list:
        """The (timestamp, heart_rate) tuples written by `enc_readings`."""
        count = self.count(READING.size)
        start = self._pos
        self._pos += count * READING.size
        return list(READING.iter_unpack(self._data[start : self._pos]))

    def reading_count(self) -> int:
        """The count of the readings `enc_readings` wrote, passing over their bytes unread."""
        count = self.count(READING.size)
        self._pos += count * READING.size
        return count

    def bytes_(self) -> bytes:
        n = self.u32()
        pos = self._pos
        if pos + n > self._end:
            raise DecodeError(f"short read: need {n} bytes at offset {pos}")
        self._pos = pos + n
        return self._data[pos : pos + n]

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8 in string field") from exc

    def peek_u8(self) -> int:
        """The next byte, left unread."""
        if self._pos >= self._end:
            raise DecodeError(f"short read: need 1 bytes at offset {self._pos}")
        return self._data[self._pos]

    def expect_tag(self, tag: int) -> None:
        got = self.u8()
        if got != tag:
            raise DecodeError(f"expected record tag {tag}, got {got}")

    def expect_eof(self) -> None:
        if self._pos != self._end:
            raise DecodeError(f"{self._end - self._pos} trailing bytes")

    @property
    def remaining(self) -> int:
        return self._end - self._pos

    @property
    def pos(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes consumed from offset `start` up to the current position."""
        return self._data[start : self._pos]


# --- records -------------------------------------------------------------------


class Codec(NamedTuple):
    """How one field goes to bytes (`write`) and back (`read`, raising DecodeError)."""

    write: Callable
    read: Callable


U64 = Codec(enc_u64, Reader.u64)
BYTES = Codec(enc_bytes, Reader.bytes_)
STR = Codec(enc_str, Reader.str_)
READINGS = Codec(lambda rs: rs.packed if type(rs) is Readings else enc_readings(rs), Reader.readings)


def record(cls) -> Codec:
    """A nested record of class `cls`, tag included."""
    return Codec(methodcaller("encode"), lambda r: cls.read(r))


def one_of(kind: str, *classes) -> Codec:
    """A nested record of any of `classes`, told apart by its tag; `kind` names them in errors."""
    by_tag = {cls.WIRE_TAG: cls for cls in classes}

    def write(value) -> bytes:
        if type(value) not in classes:
            raise TypeError(f"a {type(value).__name__} is no {kind}")
        return value.encode()

    def read(r: Reader):
        tag = r.peek_u8()
        if tag not in by_tag:
            raise DecodeError(f"unknown {kind} tag {tag}")
        return by_tag[tag].read(r)

    return Codec(write, read)


def optional(codec: Codec) -> Codec:
    """A u8 flag, then the value when the flag is 1; 0 stands for None."""

    def read(r: Reader):
        flag = r.u8()
        if flag > 1:
            raise DecodeError(f"bad presence flag {flag}")
        return codec.read(r) if flag else None

    return Codec(lambda value: b"\x00" if value is None else b"\x01" + codec.write(value), read)


def untagged(make, *codecs: Codec) -> Codec:
    """Values written one after another with no tag, read back as `make(*values)`."""
    return Codec(
        lambda values: b"".join([write(value) for (write, _), value in zip(codecs, values)]),
        lambda r: make(*[read(r) for _, read in codecs]),
    )


def items(codec: Codec, min_size: int) -> Codec:
    """A u64 count, then each item; read as a tuple, after rejecting a count
    that cannot fit items of at least `min_size` bytes in what is left."""
    return Codec(
        lambda values: _U64.pack(len(values)) + b"".join(map(codec.write, values)),
        lambda r: tuple([codec.read(r) for _ in range(r.count(min_size))]),
    )


def pack(tag: int, layout, value_of) -> bytes:
    """The tag, then each field of `layout` written by its codec; `value_of(name)` is the field's value."""
    parts = [bytes((tag,))]
    for name, (write, _) in layout:
        parts.append(write(value_of(name)))
    return b"".join(parts)


def unpack(r: Reader, tag: int, layout) -> list:
    """The field values `pack` wrote for `layout` under `tag`."""
    r.expect_tag(tag)
    return [read(r) for _, (_, read) in layout]


class Record:
    """A wire record: `WIRE_TAG`, then the fields of `LAYOUT`, whose (field
    name, Codec) pairs name the dataclass's leading constructor arguments in order."""

    WIRE_TAG: int
    LAYOUT: tuple

    def encode(self) -> bytes:
        return pack(self.WIRE_TAG, self.LAYOUT, self.__getattribute__)

    @classmethod
    def read(cls, r: Reader):
        return cls(*unpack(r, cls.WIRE_TAG, cls.LAYOUT))

    @classmethod
    def decode(cls, data: bytes):
        r = Reader(data)
        decoded = cls.read(r)
        r.expect_eof()
        return decoded
