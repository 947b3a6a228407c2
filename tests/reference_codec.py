"""Reference canonical encoder: the plain ``isinstance`` chain.

This is the encoder :mod:`repro.dag.codec` shipped before it dispatched
on exact type, kept verbatim as a test-side oracle.  The production
encoder must produce the same bytes for every value (the property tests
in ``tests/property/test_codec_props.py``), and
``benchmarks/bench_codec.py`` times the two side by side.  It shares the
tags, :class:`~repro.dag.codec.Encoded` and the decoding registry with
the production codec, so its output decodes with
:func:`repro.dag.codec.decode`.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.dag.codec import (
    _DATACLASS_REGISTRY,
    _TAG_BYTES,
    _TAG_DATACLASS,
    _TAG_DICT,
    _TAG_FALSE,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NONE,
    _TAG_SET,
    _TAG_STR,
    _TAG_TRUE,
    _TAG_TUPLE,
    Encoded,
)
from repro.errors import CodecError

#: Per-class encode metadata: ``(qualname bytes, field names)``.
_ENCODE_CACHE: dict[type, tuple[bytes, tuple[str, ...]]] = {}


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


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
        return
    if value is True:
        out += _TAG_TRUE
        return
    if value is False:
        out += _TAG_FALSE
        return
    if isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out += _TAG_INT
        out += len(body).to_bytes(4, "big")
        out += body
        return
    if isinstance(value, str):
        body = value.encode("utf-8")
        out += _TAG_STR
        out += len(body).to_bytes(8, "big")
        out += body
        return
    if isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        out += len(value).to_bytes(8, "big")
        out += bytes(value)
        return
    if isinstance(value, list):
        _encode_sequence(_TAG_LIST, value, out)
        return
    if isinstance(value, tuple):
        _encode_sequence(_TAG_TUPLE, value, out)
        return
    if isinstance(value, dict):
        items = sorted(
            ((encode(k), encode(v)) for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        out += _TAG_DICT
        out += len(items).to_bytes(8, "big")
        for key_bytes, value_bytes in items:
            out += len(key_bytes).to_bytes(8, "big")
            out += key_bytes
            out += len(value_bytes).to_bytes(8, "big")
            out += value_bytes
        return
    if isinstance(value, (set, frozenset)):
        encoded = sorted(encode(v) for v in value)
        out += _TAG_SET
        out += len(encoded).to_bytes(8, "big")
        for item in encoded:
            out += len(item).to_bytes(8, "big")
            out += item
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        cached = _ENCODE_CACHE.get(cls)
        if cached is None:
            # Auto-register for decoding: anything encoded in-process
            # can be decoded in-process (sufficient for the KV-store
            # substrate).  Field introspection is cached per class —
            # ``dataclasses.fields`` rebuilds a tuple of Field objects
            # on every call, which dominated message ordering (``<_M``)
            # on the interpretation hot path.
            _DATACLASS_REGISTRY.setdefault(cls.__qualname__, cls)
            cached = (
                cls.__qualname__.encode("utf-8"),
                tuple(f.name for f in dataclasses.fields(value)),
            )
            _ENCODE_CACHE[cls] = cached
        name, field_names = cached
        fields = tuple(getattr(value, f) for f in field_names)
        out += _TAG_DATACLASS
        out += len(name).to_bytes(4, "big")
        out += name
        _encode_into(fields, out)
        return
    if isinstance(value, Encoded):
        # Last, after every hot-path type: splices cost nothing elsewhere.
        out += value.data
        return
    raise CodecError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def _encode_sequence(tag: bytes, items: Any, out: bytearray) -> None:
    out += tag
    out += len(items).to_bytes(8, "big")
    for item in items:
        _encode_into(item, out)
