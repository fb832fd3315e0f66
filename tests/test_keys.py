"""Partitioned key schema: rendering, parsing, and validation."""

import pytest
from hypothesis import given, settings, strategies as st

from flexstate.errors import InvalidId, InvalidToken
from flexstate.keys import (
    StoreKey,
    StructureType,
    build_key,
    check_structure_id,
    key_prefix,
    parse_key,
)

# Any printable ASCII except '@' is legal in a token.
token_chars = st.characters(
    min_codepoint=0x21, max_codepoint=0x7E, exclude_characters="@"
)
tokens = st.text(alphabet=token_chars, min_size=1, max_size=16)
structure_types = st.sampled_from(list(StructureType))


@st.composite
def store_keys(draw):
    return StoreKey(
        nf_id=draw(tokens),
        instance_id=draw(tokens),
        core_id=draw(st.integers(min_value=0, max_value=2**31)),
        structure_type=draw(structure_types),
        structure_id=draw(tokens),
    )


def test_render_canonical_form():
    key = build_key("nf1", "ins1", 2, StructureType.COUNTER, "pktCounter")
    assert key.render() == "nf1@ins1@2@Counter@pktCounter"


def test_all_type_tokens():
    rendered = {t: build_key("n", "i", 0, t, "x").render() for t in StructureType}
    assert rendered[StructureType.NAME_VALUE] == "n@i@0@Namevalue@x"
    assert rendered[StructureType.COUNTER] == "n@i@0@Counter@x"
    assert rendered[StructureType.LIST] == "n@i@0@List@x"
    assert rendered[StructureType.SET] == "n@i@0@Set@x"
    assert rendered[StructureType.MAP] == "n@i@0@Map@x"
    assert rendered[StructureType.COUNTER_MAP] == "n@i@0@Countermap@x"


def test_parse_canonical_form():
    key = parse_key("nf1@ins1@2@Counter@pktCounter")
    assert key == build_key("nf1", "ins1", 2, StructureType.COUNTER, "pktCounter")
    assert key.core_id == 2
    assert key.structure_type is StructureType.COUNTER


@settings(max_examples=300, deadline=None)
@given(store_keys())
def test_round_trip(key):
    assert parse_key(key.render()) == key


@settings(max_examples=300, deadline=None)
@given(store_keys(), store_keys())
def test_injective(a, b):
    if a != b:
        assert a.render() != b.render()


def test_prefix():
    assert key_prefix("nf1", "ins1") == "nf1@ins1@"
    key = build_key("nf1", "ins1", 0, StructureType.SET, "s")
    assert key.render().startswith(key_prefix("nf1", "ins1"))


@pytest.mark.parametrize(
    "bad",
    ["", "a@b", "with space", "tab\tbad", "non\x7fascii", "é", "a@", "abc\n"],
)
def test_bad_tokens_rejected(bad):
    with pytest.raises((InvalidToken, InvalidId)):
        build_key(bad, "ins1", 0, StructureType.COUNTER, "c")
    with pytest.raises((InvalidToken, InvalidId)):
        build_key("nf1", "ins1", 0, StructureType.COUNTER, bad)


def test_bad_core_rejected():
    with pytest.raises(InvalidToken):
        build_key("nf1", "ins1", -1, StructureType.COUNTER, "c")
    with pytest.raises(InvalidToken):
        build_key("nf1", "ins1", True, StructureType.COUNTER, "c")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nf1@ins1@0@Counter",  # four fields
        "nf1@ins1@0@Counter@c@extra",  # six fields
        "nf1@ins1@x@Counter@c",  # core not an integer
        "nf1@ins1@01@Counter@c",  # leading zero
        "nf1@ins1@-1@Counter@c",
        "nf1@ins1@0@Bogus@c",  # unknown type token
        "nf1@ins1@0@counter@c",  # tokens are case sensitive
        "@ins1@0@Counter@c",  # empty nf field
        "nf1@ins1@0@Counter@",  # empty id field
        "nf1@ins1@3\n@Counter@x",  # a newline ending the core field
        "nf1\n@ins1@0@Counter@x",  # ... or a token
    ],
)
def test_bad_renderings_rejected(text):
    with pytest.raises((InvalidToken, InvalidId)):
        parse_key(text)


def test_trailing_newline_rejected():
    # "$" in a pattern also matches before a final newline; the grammar
    # matches each field whole.
    with pytest.raises(InvalidId):
        check_structure_id("abc\n")
    with pytest.raises(InvalidToken):
        build_key("nf1\n", "ins1", 0, StructureType.COUNTER, "abc\n")
    with pytest.raises(InvalidToken):
        parse_key("nf1@ins1@3\n@Counter@x")


def test_keys_hashable_and_frozen():
    key = build_key("nf1", "ins1", 0, StructureType.MAP, "m")
    assert key in {key}
    with pytest.raises(AttributeError):
        key.core_id = 5


def test_distinct_cores_never_collide():
    # Partition disjointness falls out of the separator scheme.
    seen = set()
    for core in range(64):
        for t in StructureType:
            seen.add(build_key("nf1", "ins1", core, t, "shared").render())
    assert len(seen) == 64 * len(StructureType)


def test_encoded_bytes_cached_and_outside_identity():
    for stype in StructureType:
        key = build_key("nf1", "ins1", 3, stype, "some_id")
        parsed = parse_key(key.render())
        for k in (key, parsed):
            assert k.encoded == k.render().encode("ascii")
        assert parsed == key and hash(parsed) == hash(key)
        # Equality, hash and repr depend on the five fields only.
        object.__setattr__(parsed, "encoded", b"other")
        assert parsed == key and hash(parsed) == hash(key)
        assert repr(parsed) == repr(key) and "encoded" not in repr(key)
        assert parsed != build_key("nf1", "ins1", 4, stype, "some_id")
