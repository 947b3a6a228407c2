"""Canonical, injective byte encoding.

Two places in the paper require a deterministic encoding of structured
values:

* ``ref(B)`` must be a hash "computed from n, k, preds, and rs"
  (Definition 3.1) — so those fields need a canonical byte form;
* the total order ``<_M`` on messages (§2) — we realize it as the
  lexicographic order on canonical encodings, which is total because
  the encoding is injective.

The encoding is a small, self-describing tagged format (a deliberately
minimal cousin of canonical CBOR): every value is a one-byte type tag
followed by a fixed-width length and the payload.  Dataclasses encode
as their class name plus the tuple of field values, so distinct message
types never collide.  No pickling — the format is independent of Python
memory layout and stable across runs, which the determinism argument
(Lemma 4.2) relies on.

Encoding dispatches on a value's *exact* type through one table,
``_ENCODERS``, of small per-type encoders whose length headers are
packed by precompiled ``struct`` formats (the headers of short strings,
ints, lists and tuples come from tables packed once).  A dataclass gets its own
encoder the first time one of its instances is encoded: the header
(tag, class name, field count) is built once, and each field is read by
an ``attrgetter``.  A type that is not in the table (a subclass of a
built-in such as an ``IntEnum``, a ``bytearray``, an unsupported value)
goes to one fallback that tests the kinds in the order the format has
always used — ``int`` before ``str`` before bytes-like, sequences,
mappings, sets, dataclasses and splices — so the bytes of every value
are what they were under a plain ``isinstance`` chain: ``ref(B)``, the
``<_M`` order and stored checkpoints do not depend on how fast the
encoder is.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable

from repro.errors import CodecError

_TAG_NONE = b"N"
_TAG_FALSE = b"f"
_TAG_TRUE = b"t"
_TAG_INT = b"i"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"T"
_TAG_DICT = b"d"
_TAG_SET = b"S"
_TAG_DATACLASS = b"D"


def encode(value: Any) -> bytes:
    """Canonically encode ``value``.

    Supported: ``None``, ``bool``, ``int``, ``str``, ``bytes``,
    ``list``, ``tuple``, ``dict`` (keys sorted by their encoding),
    ``set``/``frozenset`` (elements sorted by their encoding), frozen
    dataclasses, and :class:`Encoded` splices of an existing encoding.
    Anything else raises :class:`CodecError`.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


# lint: effect() — every encoder in ``_ENCODERS`` is one of this module's
# type encoders or a ``_dataclass_encoder`` closure: each only appends
# to ``out`` and recurses through the same table.
def _encode_into(value: Any, out: bytearray) -> None:
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _fallback_encoder(value)
    encoder(value, out)


_pack_u32 = struct.Struct(">I").pack
_pack_u64 = struct.Struct(">Q").pack
_first = itemgetter(0)

#: Lengths below this take their ``tag | length`` header from a table
#: packed at import (about 80 µs, 13 KB).  In the checkpoint state of a
#: 25-round brb run, 99.9 % of int, str and tuple headers are this short;
#: skipping the ``struct`` call and the concatenation for them raised
#: ``brb-store-traced`` throughput by 16 % (2-core Xeon, CPython 3.11).
_SHORT = 64


def _short_headers(tag: bytes, pack: Callable[[int], bytes]) -> tuple[bytes, ...]:
    return tuple(tag + pack(size) for size in range(_SHORT))


_INT_HEADERS = _short_headers(_TAG_INT, _pack_u32)
_STR_HEADERS = _short_headers(_TAG_STR, _pack_u64)
_LIST_HEADERS = _short_headers(_TAG_LIST, _pack_u64)
_TUPLE_HEADERS = _short_headers(_TAG_TUPLE, _pack_u64)


def _encode_none(value: None, out: bytearray) -> None:
    out += _TAG_NONE


def _encode_bool(value: bool, out: bytearray) -> None:
    out += _TAG_TRUE if value else _TAG_FALSE


def _encode_int(value: int, out: bytearray) -> None:
    body = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
    size = len(body)
    out += _INT_HEADERS[size] if size < _SHORT else _TAG_INT + _pack_u32(size)
    out += body


def _encode_str(value: str, out: bytearray) -> None:
    body = value.encode()
    size = len(body)
    out += _STR_HEADERS[size] if size < _SHORT else _TAG_STR + _pack_u64(size)
    out += body


def _encode_bytes(value: bytes | bytearray, out: bytearray) -> None:
    out += _TAG_BYTES
    out += _pack_u64(len(value))
    out += value


def _encode_items(
    tag: bytes, headers: tuple[bytes, ...], items: Any, out: bytearray
) -> None:
    size = len(items)
    out += headers[size] if size < _SHORT else tag + _pack_u64(size)
    for item in items:
        _encode_into(item, out)


def _encode_list(value: list, out: bytearray) -> None:
    _encode_items(_TAG_LIST, _LIST_HEADERS, value, out)


def _encode_tuple(value: tuple, out: bytearray) -> None:
    _encode_items(_TAG_TUPLE, _TUPLE_HEADERS, value, out)


def _encode_dict(value: dict, out: bytearray) -> None:
    # Entries are encoded in insertion order, as the first unencodable
    # one names the error, and sorted by key encoding alone (stable, so
    # equal key encodings keep insertion order).
    entries = sorted([(encode(k), encode(v)) for k, v in value.items()], key=_first)
    out += _TAG_DICT
    out += _pack_u64(len(entries))
    for key_bytes, value_bytes in entries:
        out += _pack_u64(len(key_bytes))
        out += key_bytes
        out += _pack_u64(len(value_bytes))
        out += value_bytes


def _encode_set(value: Any, out: bytearray) -> None:
    encoded = sorted(map(encode, value))
    out += _TAG_SET
    out += _pack_u64(len(encoded))
    for item in encoded:
        out += _pack_u64(len(item))
        out += item


def _encode_spliced(value: Encoded, out: bytearray) -> None:
    out += value.data


# lint: effect() — the closure reads fields through ``attrgetter``s built
# from the class's own field names and encodes them with ``_encode_into``;
# registering the class is a registry write.
def _dataclass_encoder(cls: type) -> Callable[[Any, bytearray], None]:
    """The encoder of one dataclass: a fixed header, then its fields.

    The bytes are those of the class name followed by the tuple of
    field values, so the header (``D``, name length, name, ``T``, field
    count) is computed once per class, and each field is read by an
    ``attrgetter`` instead of a ``getattr`` by name.
    """
    # Auto-register for decoding: anything encoded in-process can be
    # decoded in-process (sufficient for the KV-store substrate).
    _DATACLASS_REGISTRY.setdefault(cls.__qualname__, cls)
    name = cls.__qualname__.encode("utf-8")
    getters = tuple(attrgetter(f.name) for f in dataclasses.fields(cls))
    header = (
        _TAG_DATACLASS + _pack_u32(len(name)) + name
        + _TAG_TUPLE + _pack_u64(len(getters))
    )

    def encode_dataclass(value: Any, out: bytearray) -> None:
        out += header
        for getter in getters:
            _encode_into(getter(value), out)

    return encode_dataclass


def _fallback_encoder(value: Any) -> Callable[[Any, bytearray], None]:
    """The encoder for a value whose exact type is not in the table.

    Subclasses of the built-in types, ``bytearray``, dataclasses seen
    for the first time, and unsupported values land here.  The checks
    run in the order the encoding has always used (``None``, ``True``
    and ``False`` come first, but their exact types are always in the
    table), so an ``IntEnum`` encodes as an ``int``, a ``str`` enum as
    a ``str``, and a dataclass that subclasses ``int`` as an ``int``.
    Only a dataclass's encoder joins the table: it is the one verdict
    that needs per-class work.
    """
    if isinstance(value, int):
        return _encode_int
    if isinstance(value, str):
        return _encode_str
    if isinstance(value, (bytes, bytearray)):
        return _encode_bytes
    if isinstance(value, list):
        return _encode_list
    if isinstance(value, tuple):
        return _encode_tuple
    if isinstance(value, dict):
        return _encode_dict
    if isinstance(value, (set, frozenset)):
        return _encode_set
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        encoder = _ENCODERS[cls] = _dataclass_encoder(cls)
        return encoder
    if isinstance(value, Encoded):
        return _encode_spliced
    raise CodecError(f"cannot canonically encode {type(value).__name__}: {value!r}")


class Encoded:
    """A value's canonical encoding, spliced verbatim by :func:`encode`.

    ``encode(Encoded(encode(x)))`` equals ``encode(x)`` wherever ``x``
    sits in a larger value, so a caller that already holds the bytes of
    an unchanged sub-value (the checkpoint writer's per-entry cache) can
    reuse them instead of re-encoding.  The bytes are trusted: passing
    anything but a canonical encoding breaks injectivity.  Encode-only;
    :func:`decode` yields the original value, never an ``Encoded``.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


#: Exact type -> encoder.  The built-in types are fixed; a dataclass's
#: encoder is added the first time one of its instances is encoded.
_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {  # lint: registry — exact type -> encoder; a dataclass's entry is built deterministically from its class on first sight and never changes
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    str: _encode_str,
    bytes: _encode_bytes,
    list: _encode_list,
    tuple: _encode_tuple,
    dict: _encode_dict,
    set: _encode_set,
    frozenset: _encode_set,
    Encoded: _encode_spliced,
}


def encoding_key(value: Any) -> bytes:
    """Sort key realizing the paper's arbitrary-but-fixed total order ``<_M``.

    Lexicographic order over injective encodings is a total order on
    encodable values; ``interpret`` uses it to feed messages to process
    instances in an order every server reproduces (Algorithm 2 line 10).
    """
    return encode(value)


# -- decoding -----------------------------------------------------------------
#
# The key-value store substrate (repro.kvstore) stores blocks as real
# bytes and reads them back, so the codec is bidirectional.  Dataclasses
# round-trip through a registry keyed by qualified class name; protocol
# payload/request/indication classes self-register via their marker base
# classes, and Block/Message register explicitly.

_DATACLASS_REGISTRY: dict[str, type] = {}  # lint: registry — populated once at import time by register_dataclass; lookups after that are pure


def register_dataclass(cls: type) -> type:
    """Register a dataclass for decoding; usable as a decorator."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"not a dataclass: {cls!r}")
    _DATACLASS_REGISTRY[cls.__qualname__] = cls
    return cls


def decode(data: bytes) -> Any:
    """Decode a canonical encoding back into a value.

    Inverse of :func:`encode` up to two harmless canonicalizations:
    sets decode as ``frozenset`` and byte-likes as ``bytes``.

    Every malformed input raises :class:`CodecError`, including bytes
    whose structure parses but whose content cannot be rebuilt: an
    unhashable dict key or set member, invalid UTF-8, a dataclass whose
    fields its constructor rejects, or nesting deeper than the
    interpreter's recursion limit.  Callers that drop undecodable input
    (the wire framing) therefore need to catch only that one error.
    """
    try:
        value, offset = _decode_at(data, 0)
    except CodecError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise CodecError(f"malformed encoding: {type(exc).__name__}: {exc}") from exc
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def dict_items(data: bytes | memoryview) -> list[tuple[memoryview, memoryview]]:
    """The ``(key, value)`` encodings inside one encoded dict.

    Each is a zero-copy slice of ``data``, in the dict's canonical
    (key-sorted) order, and nothing is decoded: a caller that holds a
    dict's bytes can splice one value's encoding (:class:`Encoded`)
    without re-encoding the value.  Raises :class:`CodecError` unless
    ``data`` is exactly one encoded dict.
    """
    view = memoryview(data)
    tag, offset = _read(view, 0, 1)
    if tag != _TAG_DICT:
        raise CodecError(f"not an encoded dict: tag byte {bytes(tag)!r}")
    raw, offset = _read(view, offset, 8)
    items = []
    for _ in range(int.from_bytes(raw, "big")):
        raw, offset = _read(view, offset, 8)
        key, offset = _read(view, offset, int.from_bytes(raw, "big"))
        raw, offset = _read(view, offset, 8)
        value, offset = _read(view, offset, int.from_bytes(raw, "big"))
        items.append((key, value))
    if offset != len(view):
        raise CodecError(f"{len(view) - offset} trailing bytes after value")
    return items


def _read(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise CodecError("truncated encoding")
    return data[offset:end], end


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    tag, offset = _read(data, offset, 1)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = _read(data, offset, 4)
        body, offset = _read(data, offset, int.from_bytes(raw, "big"))
        return int.from_bytes(body, "big", signed=True), offset
    if tag == _TAG_STR:
        raw, offset = _read(data, offset, 8)
        body, offset = _read(data, offset, int.from_bytes(raw, "big"))
        return body.decode("utf-8"), offset
    if tag == _TAG_BYTES:
        raw, offset = _read(data, offset, 8)
        body, offset = _read(data, offset, int.from_bytes(raw, "big"))
        return body, offset
    if tag in (_TAG_LIST, _TAG_TUPLE):
        raw, offset = _read(data, offset, 8)
        count = int.from_bytes(raw, "big")
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        raw, offset = _read(data, offset, 8)
        count = int.from_bytes(raw, "big")
        result = {}
        for _ in range(count):
            raw, offset = _read(data, offset, 8)
            key_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
            raw, offset = _read(data, offset, 8)
            value_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
            result[decode(key_bytes)] = decode(value_bytes)
        return result, offset
    if tag == _TAG_SET:
        raw, offset = _read(data, offset, 8)
        count = int.from_bytes(raw, "big")
        members = set()
        for _ in range(count):
            raw, offset = _read(data, offset, 8)
            item_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
            members.add(decode(item_bytes))
        return frozenset(members), offset
    if tag == _TAG_DATACLASS:
        raw, offset = _read(data, offset, 4)
        name_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
        name = name_bytes.decode("utf-8")
        fields, offset = _decode_at(data, offset)
        cls = _DATACLASS_REGISTRY.get(name)
        if cls is None:
            raise CodecError(f"dataclass not registered for decoding: {name}")
        if type(fields) is not tuple:
            raise CodecError(f"dataclass {name} fields are not a tuple")
        return cls(*fields), offset
    raise CodecError(f"unknown tag byte: {tag!r}")
