"""Property tests for the canonical codec — the foundation of ``ref``
determinism and the ``<_M`` total order."""

import enum
from dataclasses import dataclass, make_dataclass
from typing import Any, NewType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec
from repro.dag import codec
from repro.errors import CodecError

# Encodable value trees (no floats by design).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=30),
    st.binary(max_size=30),
)


def trees(depth=3):
    if depth == 0:
        return scalars
    sub = trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), sub, max_size=4),
    )


class TestEncodeProperties:
    @given(trees())
    def test_deterministic(self, value):
        assert codec.encode(value) == codec.encode(value)

    @given(trees(), trees())
    def test_injective_on_distinct_values(self, a, b):
        if a != b:
            assert codec.encode(a) != codec.encode(b)

    @given(trees())
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        decoded = codec.decode(codec.encode(value))
        assert decoded == value

    @given(st.lists(st.integers(), max_size=6))
    def test_key_ordering_is_total_and_stable(self, values):
        keys = sorted(codec.encoding_key(v) for v in values)
        assert keys == sorted(keys)
        # Sorting values by key twice is idempotent.
        once = sorted(values, key=codec.encoding_key)
        assert sorted(once, key=codec.encoding_key) == once

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=5))
    def test_dict_encoding_is_order_independent(self, d):
        reversed_d = dict(reversed(list(d.items())))
        assert codec.encode(d) == codec.encode(reversed_d)

    @given(st.sets(st.integers(), max_size=6))
    def test_set_roundtrips_to_frozenset(self, s):
        assert codec.decode(codec.encode(s)) == frozenset(s)


# -- the production encoder against the reference ``isinstance`` chain ------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class Tag(str):
    """A plain ``str`` subclass."""


UserName = NewType("UserName", str)


@dataclass(frozen=True)
class Loose:
    """Never registered by hand; non-slots."""

    a: Any
    b: Any


@dataclass(frozen=True, slots=True)
class Tight:
    """Never registered by hand; slots."""

    a: Any


@codec.register_dataclass
@dataclass(frozen=True)
class Parent:
    a: Any


@codec.register_dataclass
@dataclass(frozen=True, slots=True)
class Child(Parent):
    """Slots, with a field inherited from a non-slots base."""

    b: Any


#: Another class named ``Loose``: its instances encode like ``Loose``'s
#: but never compare equal to them.
Twin = make_dataclass("Loose", ["a", "b"], frozen=True)


class Splice(codec.Encoded):
    """An ``Encoded`` subclass: still spliced verbatim."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty:
    """No fields at all."""


@dataclass(frozen=True, init=False)
class IntLike(int):
    """A dataclass that subclasses ``int``: encodes as the ``int``."""


def with_dataclasses(sub):
    return st.one_of(
        st.builds(Loose, sub, sub),
        st.builds(Tight, sub),
        st.builds(Parent, sub),
        st.builds(Child, sub, sub),
        st.just(Empty()),
    )


rich_scalars = st.one_of(
    scalars,
    st.binary(max_size=30).map(bytearray),
    st.sampled_from(list(Level)),
    st.sampled_from(list(Colour)),
    st.text(max_size=10).map(Tag),
    st.text(max_size=10).map(UserName),
    st.integers().map(IntLike),
)

# Hashable values: set members and dict keys.
hashables = st.one_of(
    scalars,
    st.sampled_from(list(Level)),
    st.sampled_from(list(Colour)),
    st.text(max_size=10).map(Tag),
    st.integers().map(IntLike),
    with_dataclasses(scalars),
    st.lists(scalars, max_size=3).map(tuple),
)


def rich_trees(depth=3):
    if depth == 0:
        return rich_scalars
    sub = rich_trees(depth - 1)
    return st.one_of(
        rich_scalars,
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(hashables, sub, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        sub.map(lambda v: codec.Encoded(reference_codec.encode(v))),
        with_dataclasses(sub),
    )


class TestMatchesReferenceEncoder:
    @given(rich_trees())
    @settings(max_examples=300)
    def test_same_bytes_as_reference(self, value):
        assert codec.encode(value) == reference_codec.encode(value)

    @pytest.mark.parametrize(
        "value",
        [
            # Two distinct keys with one encoding (same class name, same
            # fields): equal key encodings keep insertion order.
            {Loose(1, 2): "module", Twin(1, 2): "made"},
            {Twin(1, 2): "made", Loose(1, 2): "module"},
            Splice(codec.encode((1, "a"))),
            [Splice(codec.encode(None)), {"k": Splice(codec.encode([2]))}],
            IntLike(5),
            bytearray(b"\x00\xff"),
            Level.HIGH,
            Tag("tag"),
            UserName("alice"),
            Child(Loose([1], {"k": {2, 3}}), frozenset({Tight(None)})),
            "x" * 70,
            tuple(range(70)),
            [None] * 64,
            2**600,
        ],
    )
    def test_same_bytes_on_edge_cases(self, value):
        assert codec.encode(value) == reference_codec.encode(value)

    @pytest.mark.parametrize(
        "value",
        [1.5, object(), Loose, Child, [1, 1.5], {"k": object()}, (Tight(Loose),),
         {"b": 1.5, "a": object()}, {"a": 1.5, "b": 2.5}, {1.5: 1, "a": object()},
         Loose(1.5, object())],
        ids=["float", "object", "dataclass-class", "dataclass-subclass-class",
             "nested-float", "nested-object", "nested-dataclass-class",
             "dict-two-bad-values", "dict-bad-values-in-key-order",
             "dict-bad-key-then-bad-value", "dataclass-two-bad-fields"],
    )
    def test_both_reject_unencodable_values(self, value):
        with pytest.raises(CodecError) as production:
            codec.encode(value)
        with pytest.raises(CodecError) as reference:
            reference_codec.encode(value)
        assert str(production.value) == str(reference.value)
