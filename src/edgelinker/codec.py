"""Canonical wire encoding shared by every record in the system.

One deterministic, injective byte layout: fields in declaration order,
unsigned integers as 8-byte big-endian, byte strings length-prefixed with a
4-byte big-endian length, a record's lists of items prefixed with a u64
count, and variant tags as a single byte. Hashing, signing and encryption
all run over these bytes, so independent nodes agree bit-for-bit. The
contract state digests list their items after a u32 count (`enc_list`).

A wire record states its layout once: a `Record` is its one-byte `WIRE_TAG`,
then the fields of its `LAYOUT`, (field name, `Codec`) pairs in wire order.
Each `Codec` says how one field is written and read; its `form` names the
field's kind. When a record class is defined, `Record.__init_subclass__`
compiles its `encode`, `read` and `decode` from its layout into Python
source, run with `exec` as `dataclasses` builds `__init__`: the tag and each
run of adjacent fixed-width fields are packed and unpacked by one
`struct.Struct`, byte strings, strings and reading arrays are written and
read inline, bounds checks included, and a variant's class is chosen inline
when it is read. These are the kinds the records on every message carry. A
field of any other kind (a nested record, an optional value, a list of
items, an enum), and a variant when it is written, is written and read by
its `Codec`'s own `write` and `read`, which reach a nested record through
its class's methods as they are at call time, so a method replaced on the
class is the one used. The tests keep a
field-by-field interpreter of the same layouts (`pack` and `unpack`) as the
reference the compiled codecs are checked against.

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
            raise _short(8, pos)
        self._pos = pos + 8
        return _U64.unpack_from(self._data, pos)[0]

    def u32(self) -> int:
        pos = self._pos
        if pos + 4 > self._end:
            raise _short(4, pos)
        self._pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise _short(1, pos)
        self._pos = pos + 1
        return self._data[pos]

    def fits(self, count: int, min_item_size: int) -> int:
        """`count`, rejected before anything is allocated when that many items
        of at least `min_item_size` bytes cannot fit in the rest."""
        if count > self.remaining // min_item_size:
            raise _unfit(count, self.remaining)
        return count

    def readings(self) -> list:
        """The (timestamp, heart_rate) tuples written by `enc_readings`."""
        count = self.fits(self.u64(), READING.size)
        start = self._pos
        self._pos += count * READING.size
        return list(READING.iter_unpack(self._data[start : self._pos]))

    def bytes_(self) -> bytes:
        n = self.u32()
        pos = self._pos
        if pos + n > self._end:
            raise _short(n, pos)
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
            raise _short(1, self._pos)
        return self._data[self._pos]

    def expect_eof(self) -> None:
        if self._pos != self._end:
            raise DecodeError(f"{self._end - self._pos} trailing bytes")

    @property
    def remaining(self) -> int:
        return self._end - self._pos


def _short(need: int, pos: int) -> DecodeError:
    return DecodeError(f"short read: need {need} bytes at offset {pos}")


def _unfit(count: int, left: int) -> DecodeError:
    return DecodeError(f"{count} items do not fit in {left} bytes")


# --- field codecs ----------------------------------------------------------------


class Codec(NamedTuple):
    """How one field goes to bytes (`write`) and back (`read`, raising
    DecodeError), and its `form`: its kind and parameters, from which the
    record compiler writes the same steps inline where it compiles the kind."""

    write: Callable
    read: Callable
    form: tuple


U64 = Codec(enc_u64, Reader.u64, ("Q",))
BYTES = Codec(enc_bytes, Reader.bytes_, ("bytes",))
STR = Codec(enc_str, Reader.str_, ("str",))
READINGS = Codec(lambda rs: rs.packed if type(rs) is Readings else enc_readings(rs), Reader.readings, ("readings",))


def sized_bytes(size: int) -> Codec:
    """A byte string written as `BYTES`, rejected on read unless it is `size` bytes long."""

    def read(r: Reader) -> bytes:
        data = r.bytes_()
        if len(data) != size:
            raise DecodeError(f"need a {size}-byte string, got {len(data)} bytes")
        return data

    return Codec(enc_bytes, read, ("bytes", size))


def enum_u8(enum) -> Codec:
    """A member of the integer enum `enum`, as one byte."""

    def read(r: Reader):
        value = r.u8()
        try:
            return enum(value)
        except ValueError:
            raise DecodeError(f"{value} is not a valid {enum.__name__}") from None

    return Codec(enc_u8, read, ("enum", enum))


def record(cls) -> Codec:
    """A nested record of class `cls`, tag included."""
    return Codec(lambda value: value.encode(), lambda r: cls.read(r), ("record", cls))


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

    return Codec(write, read, ("one_of", kind, classes, by_tag))


def optional(codec: Codec) -> Codec:
    """A u8 flag, then the value when the flag is 1; 0 stands for None."""

    def read(r: Reader):
        flag = r.u8()
        if flag > 1:
            raise DecodeError(f"bad presence flag {flag}")
        return codec.read(r) if flag else None

    return Codec(lambda value: b"\x00" if value is None else b"\x01" + codec.write(value), read, ("optional", codec))


def items(codec: Codec, min_size: int) -> Codec:
    """A u64 count, then each item; read as a tuple, after rejecting a count
    that cannot fit items of at least `min_size` bytes in what is left."""
    return Codec(
        lambda values: enc_u64(len(values)) + b"".join(map(codec.write, values)),
        lambda r: tuple([codec.read(r) for _ in range(r.fits(r.u64(), min_size))]),
        ("items", codec, min_size),
    )


# --- compiled record codecs --------------------------------------------------------

class Source:
    """The body of one compiled function, and the namespace it runs in.

    Read code reads `data[pos:end]`, advancing `pos`. u64 integers, byte
    strings, strings and reading arrays are read and written inline; a
    variant's class is chosen inline and reads itself. Any other field, and
    a variant being written, is read and written by its codec's own `read`
    and `write`. A call that reads goes through a `Reader`, `r`, set to
    `pos` before the call and read back after it. Fixed-width fields read
    one after another are collected and emitted as one `struct.Struct`
    unpack when the next variable-width one needs `pos`.
    """

    def __init__(self, names: dict):
        self.names = names
        self.lines: list = []
        self.uses_reader = False
        self._pending: list = []  # (struct code, local, lines run after the unpack)
        self._locals = 0

    def emit(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * depth + line for line in lines)

    def name(self, value) -> str:
        """A global of the compiled code bound to `value`."""
        key = f"_g{len(self.names)}"
        self.names[key] = value
        return key

    def local(self, hint: str) -> str:
        self._locals += 1
        return f"{hint}_{self._locals}"

    # reading

    def read_fields(self, tag: Optional[int], layout, depth: int, count_readings: bool = False) -> list:
        """Emit code that reads `tag` (unless None) and the fields of
        `layout`; returns the locals that hold the field values. With
        `count_readings`, a `READINGS` field holds its count, its pairs left unread."""
        if tag is not None:
            got = self.local("tag")
            self._pending.append(("B", got, (f"if {got} != {tag}:", f"    raise DecodeError(f'expected record tag {tag}, got {{{got}}}')")))
        targets = []
        for name, codec in layout:
            targets.append(f"f_{name}")
            self._read(codec, targets[-1], depth, count_readings)
        self._flush(depth)
        return targets

    def _read(self, codec: Codec, target: str, depth: int, count_readings: bool = False) -> None:
        kind, *opts = codec.form
        if kind == "Q":
            self._pending.append(("Q", target, ()))
        elif kind in ("bytes", "str"):
            n = self.local("n")
            checks = ()
            if opts:  # sized_bytes
                checks = (f"if {n} != {opts[0]}:", f"    raise DecodeError(f'need a {opts[0]}-byte string, got {{{n}}} bytes')")
            self._pending.append(("I", n, checks))
            self._flush(depth)
            self.emit(depth, f"if pos + {n} > end:", f"    raise _short({n}, pos)", f"{target} = data[pos:pos + {n}]", f"pos += {n}")
            if kind == "str":
                self.emit(depth, "try:", f"    {target} = {target}.decode('utf-8')", "except UnicodeDecodeError as exc:")
                self.emit(depth, "    raise DecodeError('invalid utf-8 in string field') from exc")
        elif kind == "readings":
            count = self.local("count")
            self._pending.append(("Q", count, self._fits(count, READING.size)))
            self._flush(depth)
            if count_readings:
                self.emit(depth, f"{target} = {count}")
            else:
                self.emit(depth, f"{target} = list({self.name(READING)}.iter_unpack(data[pos:pos + {count} * {READING.size}]))")
            self.emit(depth, f"pos += {count} * {READING.size}")
        elif kind == "one_of":
            what, _classes, by_tag = opts
            cls = self.local("cls")
            self._flush(depth)
            self.emit(depth, "if pos >= end:", "    raise _short(1, pos)", f"{cls} = {self.name(by_tag)}.get(data[pos])")
            self.emit(depth, f"if {cls} is None:", f"    raise DecodeError(f'unknown {what} tag {{data[pos]}}')")
            self._nested(depth, target, f"{cls}.read(r)")
        else:  # read by the codec's own function
            self._nested(depth, target, f"{self.name(codec.read)}(r)")

    def _fits(self, count: str, min_size: int) -> tuple:
        return (f"if {count} > (end - pos) // {min_size}:", f"    raise _unfit({count}, end - pos)")

    def _nested(self, depth: int, target: str, call: str) -> None:
        self._flush(depth)
        self.uses_reader = True
        self.emit(depth, "r._pos = pos", f"{target} = {call}", "pos = r._pos")

    def _flush(self, depth: int) -> None:
        """Emit the pending fixed-width reads as one unpack, then their checks."""
        if not self._pending:
            return
        packer = struct.Struct(">" + "".join(code for code, _, _ in self._pending))
        targets = "".join(f"{target}, " for _, target, _ in self._pending)
        self.emit(depth, f"if pos + {packer.size} > end:", f"    raise _short({packer.size}, pos)")
        self.emit(depth, f"{targets}= {self.name(packer)}.unpack_from(data, pos)", f"pos += {packer.size}")
        for _, _, after in self._pending:
            self.emit(depth, *after)
        self._pending = []

    # writing

    def write_fields(self, tag: Optional[int], layout, value_of: str, depth: int) -> list:
        """Emit what writing `tag` (unless None) and the fields of `layout`
        needs first; returns the parts to `join`. `value_of` formats a field
        name into the source of its value."""
        parts = [] if tag is None else [("B", str(tag))]
        for name, codec in layout:
            parts += self._write(codec, value_of.format(name), depth)
        return parts

    def _write(self, codec: Codec, value: str, depth: int) -> list:
        """The parts of `value`'s bytes: (struct code, int source) for a
        fixed-width value, (None, bytes source) for the others."""
        kind = codec.form[0]
        if kind == "Q":
            return [("Q", value)]
        if kind not in ("bytes", "str", "readings"):  # written by the codec's own function
            return [(None, f"{self.name(codec.write)}({value})")]
        v = value
        if not value.isidentifier():  # a local, so the value is evaluated once
            v = self.local("v")
            self.emit(depth, f"{v} = {value}")
        if kind in ("bytes", "str"):
            if kind == "str":
                self.emit(depth, f"{v} = {v}.encode('utf-8')")
            return [("I", f"len({v})"), (None, v)]
        return [(None, f"({v}.packed if type({v}) is {self.name(Readings)} else {self.name(enc_readings)}({v}))")]

    def join(self, parts: list) -> str:
        """The source of the parts' bytes one after another, each run of
        fixed-width parts packed by one `struct.Struct`."""
        exprs, run = [], []
        for code, expr in parts + [(None, None)]:
            if code is not None:
                run.append((code, expr))
                continue
            if run:
                packer = struct.Struct(">" + "".join(c for c, _ in run))
                if all(e.isdigit() for _, e in run):
                    exprs.append(repr(packer.pack(*[int(e) for _, e in run])))
                else:
                    exprs.append(f"{self.name(packer)}.pack({', '.join(e for _, e in run)})")
                run = []
            if expr is not None:
                exprs.append(expr)
        if len(exprs) <= 2:
            return " + ".join(exprs)
        return f"b''.join(({', '.join(exprs)}))"


class Compiler:
    """Compiles the codec methods of one record class and installs them in its own `__dict__`."""

    def __init__(self, cls):
        self.cls = cls
        self.names = {
            "DecodeError": DecodeError,
            "Reader": Reader,
            "_short": _short,
            "_unfit": _unfit,
            "_set": object.__setattr__,
            "_struct_error": struct.error,
        }
        self.lines: list = []  # the source of every function
        self.methods: list = []  # (name, wrapper or None) of each function installed on the class

    def encoder(self, name, tag, layout, value_of="self.{}", arg="self", keep=None, first=None, wrap=None) -> None:
        """`name(arg)` returns the bytes of `tag` and `layout`'s fields, after
        the bytes of the source `first`, if given. With `keep`, a method keeps
        them in the record's `keep` field. A value out of its field's range
        raises ValueError."""
        src = Source(self.names)
        parts = ([(None, first)] if first else []) + src.write_fields(tag, layout, value_of, 2)
        lines = [f"def {name}({arg}):"]
        if keep:
            lines += [f"    out = self.{keep}", "    if out is not None:", "        return out"]
        lines += ["    try:", *src.lines, f"        out = {src.join(parts)}", "    except _struct_error as exc:"]
        lines += ["        raise ValueError(f'a value does not fit its field: {exc}') from exc"]
        if keep:
            lines.append(f"    _set(self, {keep!r}, out)")
        self.lines += lines + ["    return out"]
        self.methods.append((name, wrap))

    def reader(self, fill, read="read", decode="decode") -> None:
        """The classmethods `read(cls, r)`, which reads at the reader's
        position, and `decode(cls, data)`, which reads all of `data`, around
        one compiled body; a name given as None is left out. `fill(src)` emits
        the body at depth 1 and returns the source of the result; `start` is
        where the record began."""
        src = Source(self.names)
        result = fill(src)
        body = f"_{decode or read}_from"
        self.lines += [f"def {body}(cls, data, pos, end, r):", "    start = pos", *src.lines, f"    return {result}, pos"]
        if read:
            self.lines += [f"def {read}(cls, r):", f"    result, r._pos = {body}(cls, r._data, r._pos, r._end, r)", "    return result"]
            self.methods.append((read, classmethod))
        if decode:
            r = "Reader(data)" if src.uses_reader else "None"
            self.lines += [f"def {decode}(cls, data):", f"    result, pos = {body}(cls, data, 0, len(data), {r})"]
            self.lines += ["    if pos != len(data):", "        raise DecodeError(f'{len(data) - pos} trailing bytes')", "    return result"]
            self.methods.append((decode, classmethod))

    def install(self) -> None:
        cls = self.cls
        exec(compile("\n".join(self.lines), f"<compiled codec of {cls.__module__}.{cls.__qualname__}>", "exec"), self.names)
        for name, wrap in self.methods:
            function = self.names.pop(name)
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            function.__module__ = cls.__module__
            setattr(cls, name, function if wrap is None else wrap(function))


class Record:
    """A wire record: `WIRE_TAG`, then the fields of `LAYOUT`, whose (field
    name, Codec) pairs name the dataclass's leading constructor arguments in
    order. A `WIRE_TAG` of None writes no tag, for bytes that carry one kind
    of record only.

    Each class that states a `LAYOUT` gets its own `encode`, `read` and
    `decode`, compiled from it by `compile_codec`. One with a `_raw` field
    keeps its bytes there once written.
    """

    WIRE_TAG: Optional[int]
    LAYOUT: tuple

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "LAYOUT" in cls.__dict__:
            compiler = Compiler(cls)
            cls.compile_codec(compiler)
            compiler.install()

    @classmethod
    def compile_codec(cls, compiler: Compiler) -> None:
        compiler.encoder("encode", cls.WIRE_TAG, cls.LAYOUT, keep="_raw" if hasattr(cls, "_raw") else None)
        compiler.reader(lambda src: f"cls({', '.join(src.read_fields(cls.WIRE_TAG, cls.LAYOUT, 1))})")
