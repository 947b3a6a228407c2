"""Unit tests for the canonical codec — injectivity, round trips, <_M keys."""

from dataclasses import dataclass

import pytest

from repro.dag import codec
from repro.dag.block import Block
from repro.errors import CodecError
from repro.types import Request


@dataclass(frozen=True)
class Point(Request):
    x: int
    y: int


class TestEncodeBasics:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**100, -(2**100), "", "héllo", b"", b"\x00"],
    )
    def test_deterministic(self, value):
        assert codec.encode(value) == codec.encode(value)

    def test_bool_is_not_int(self):
        assert codec.encode(True) != codec.encode(1)
        assert codec.encode(False) != codec.encode(0)

    def test_str_is_not_bytes(self):
        assert codec.encode("a") != codec.encode(b"a")

    def test_list_is_not_tuple(self):
        assert codec.encode([1, 2]) != codec.encode((1, 2))

    def test_nesting_boundaries(self):
        assert codec.encode([["a"], ["b"]]) != codec.encode([["a", "b"]])
        assert codec.encode(["ab"]) != codec.encode(["a", "b"])

    def test_dict_key_order_is_canonical(self):
        assert codec.encode({"a": 1, "b": 2}) == codec.encode({"b": 2, "a": 1})

    def test_set_order_is_canonical(self):
        assert codec.encode({3, 1, 2}) == codec.encode({2, 3, 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(CodecError):
            codec.encode(object())

    def test_float_unsupported(self):
        # Floats are deliberately unsupported: cross-platform float
        # formatting would threaten determinism.
        with pytest.raises(CodecError):
            codec.encode(1.5)


class TestDataclassEncoding:
    def test_dataclass_roundtrip(self):
        point = Point(1, 2)
        assert codec.decode(codec.encode(point)) == point

    def test_distinct_classes_distinct_encodings(self):
        @dataclass(frozen=True)
        class Point2(Request):
            x: int
            y: int

        assert codec.encode(Point(1, 2)) != codec.encode(Point2(1, 2))

    def test_field_values_matter(self):
        assert codec.encode(Point(1, 2)) != codec.encode(Point(2, 1))


class TestDecode:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            42,
            -42,
            2**64,
            "text",
            b"bytes",
            [1, "a", None],
            (1, (2, 3)),
            {"k": [1, 2], "j": None},
        ],
    )
    def test_roundtrip(self, value):
        assert codec.decode(codec.encode(value)) == value

    def test_set_decodes_to_frozenset(self):
        assert codec.decode(codec.encode({1, 2})) == frozenset({1, 2})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(codec.encode(1) + b"x")

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(codec.encode("hello")[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"\xff")

    def test_unregistered_dataclass_rejected(self):
        data = bytearray(codec.encode(Point(1, 2)))
        # Corrupt the class name so the registry lookup fails.
        index = data.find(b"Point")
        data[index : index + 5] = b"Qoint"
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_register_dataclass_requires_dataclass(self):
        with pytest.raises(CodecError):
            codec.register_dataclass(int)


def _u64(count: int) -> bytes:
    return count.to_bytes(8, "big")


def _dataclass_bytes(cls: type, fields: bytes) -> bytes:
    name = cls.__qualname__.encode("utf-8")
    return b"D" + len(name).to_bytes(4, "big") + name + fields


class TestDecodeMalformed:
    """Input that parses but cannot be rebuilt raises ``CodecError``,
    never another exception: the wire framing drops undecodable frames
    by catching exactly that error."""

    def test_unhashable_dict_key(self):
        key, value = codec.encode([1, 2]), codec.encode(None)
        data = b"d" + _u64(1) + _u64(len(key)) + key + _u64(len(value)) + value
        with pytest.raises(CodecError, match="unhashable"):
            codec.decode(data)

    def test_unhashable_set_member(self):
        member = codec.encode({"a": 1})
        data = b"S" + _u64(1) + _u64(len(member)) + member
        with pytest.raises(CodecError, match="unhashable"):
            codec.decode(data)

    def test_dataclass_with_wrong_field_count(self):
        with pytest.raises(CodecError, match="TypeError"):
            codec.decode(_dataclass_bytes(Point, codec.encode((1,))))

    def test_dataclass_fields_not_a_tuple(self):
        with pytest.raises(CodecError, match="not a tuple"):
            codec.decode(_dataclass_bytes(Point, codec.encode("xy")))

    def test_invalid_utf8(self):
        with pytest.raises(CodecError, match="UnicodeDecodeError"):
            codec.decode(b"s" + _u64(1) + b"\xff")

    def test_nesting_beyond_the_recursion_limit(self):
        data = (b"l" + _u64(1)) * 5000 + b"N"
        with pytest.raises(CodecError, match="RecursionError"):
            codec.decode(data)

    def test_block_with_negative_sequence_number(self):
        codec.register_dataclass(Block)
        fields = codec.encode(("s1", -1, (), (), b"", ()))
        with pytest.raises(CodecError, match="sequence number"):
            codec.decode(_dataclass_bytes(Block, fields))


class TestEncodedSplice:
    @pytest.mark.parametrize(
        "value",
        [None, 7, "x", b"\x01", (1, "a"), [2, [3]], {"k": (Point(1, 2),)},
         frozenset({1, 2}), Point(3, 4)],
    )
    @pytest.mark.parametrize(
        "nest",
        [
            lambda v: {"a": 1, "inner": v, "z": None},
            lambda v: [0, v, "tail"],
            lambda v: (v, v),
        ],
        ids=["dict", "list", "tuple"],
    )
    def test_splice_equals_direct_encoding(self, value, nest):
        spliced = codec.Encoded(codec.encode(value))
        assert codec.encode(nest(spliced)) == codec.encode(nest(value))

    def test_splice_at_top_level_is_verbatim(self):
        data = codec.encode({"k": [1, 2]})
        assert codec.encode(codec.Encoded(data)) == data

    def test_spliced_encoding_decodes_to_the_value(self):
        value = {"entry": {"pis": {"l": (1, 2)}, "base": None}}
        spliced = {"entry": codec.Encoded(codec.encode(value["entry"]))}
        assert codec.decode(codec.encode(spliced)) == value


class TestDictItems:
    @pytest.mark.parametrize(
        "value",
        [{}, {"pis": {"l": (1, 2)}, "base": None, "own": ("l",), 3: b"x"}],
    )
    def test_slices_are_the_encodings_in_key_order(self, value):
        data = codec.encode(value)
        items = codec.dict_items(data)
        expected = sorted(
            (codec.encode(k), codec.encode(v)) for k, v in value.items()
        )
        assert [(bytes(k), bytes(v)) for k, v in items] == expected

    def test_slices_share_the_input_buffer(self):
        data = codec.encode({"k": "v" * 100})
        [(_, value)] = codec.dict_items(data)
        assert value.obj is data  # a view of ``data``, not a copy

    def test_nested_dict_value_parses_from_its_slice(self):
        inner = {"a": [1], "b": {"c": 2}}
        [(_, value)] = codec.dict_items(codec.encode({"pis": inner}))
        assert [
            (codec.decode(bytes(k)), codec.decode(bytes(v)))
            for k, v in codec.dict_items(value)
        ] == sorted(inner.items())

    @pytest.mark.parametrize(
        "value", [[1, 2], (("k", 1),), "dict", 7, None, frozenset({1}), Point(1, 2)]
    )
    def test_rejects_encodings_of_non_dicts(self, value):
        with pytest.raises(CodecError):
            codec.dict_items(codec.encode(value))

    def test_rejects_every_truncation(self):
        data = codec.encode({"a": 1, "b": (2, "three")})
        for end in range(len(data)):
            with pytest.raises(CodecError):
                codec.dict_items(data[:end])

    def test_rejects_trailing_bytes(self):
        with pytest.raises(CodecError):
            codec.dict_items(codec.encode({"a": 1}) + b"N")


class TestEncodingKey:
    def test_total_order_is_consistent(self):
        values = [1, 2, "a", "b", (1,), (2,)]
        keys = [codec.encoding_key(v) for v in values]
        assert len(set(keys)) == len(values)
        # Sorting twice gives the same order — it's a genuine total order.
        once = sorted(values, key=codec.encoding_key)
        twice = sorted(once, key=codec.encoding_key)
        assert once == twice
