"""Typed handle API: semantics, validation, read-your-writes."""

import pytest

from flexstate.api import StateContext
from flexstate.cache import CoreCache
from flexstate.drivers import make_driver
from flexstate.errors import (
    IndexOutOfRange,
    KeyTooLarge,
    Overflow,
    TypeConflict,
    ValueTooLarge,
)
from flexstate.keys import StructureType
from flexstate.limits import (
    MAX_BLOB_BYTES,
    MAX_ELEMENT_BYTES,
    MAX_MAP_KEY_BYTES,
)


@pytest.fixture
def ctx():
    cache = CoreCache("nf1", "ins1", 0, make_driver("flatkvs"), start_flusher=False)
    yield StateContext(cache)
    cache.drain()


def test_counter_semantics(ctx):
    c = ctx.create_counter("c")
    assert c.read() == 0  # absent reads zero
    assert not c.exists()
    c.set(10)
    c.add(-4)
    assert c.read() == 6
    assert c.exists()
    c.add()  # default step is one
    assert c.read() == 7
    c.delete()
    assert c.read() == 0
    assert not c.exists()


def test_counter_overflow_rejected_locally(ctx):
    c = ctx.create_counter("c")
    c.set(2**63 - 1)
    with pytest.raises(Overflow):
        c.add(1)
    assert c.read() == 2**63 - 1  # failed op did not change the value
    with pytest.raises(Overflow):
        c.set(2**63)
    with pytest.raises(TypeError):
        c.add("1")
    with pytest.raises(TypeError):
        c.add(True)


def test_name_value_semantics(ctx):
    nv = ctx.create_name_value("n")
    assert nv.get() is None
    nv.create(b"hello")
    assert nv.get() == b"hello"
    nv.update(b"world")
    assert nv.get() == b"world"
    nv.delete()
    assert nv.get() is None


def test_name_value_size_cap(ctx):
    nv = ctx.create_name_value("n")
    nv.create(b"x" * MAX_BLOB_BYTES)
    with pytest.raises(ValueTooLarge):
        nv.create(b"x" * (MAX_BLOB_BYTES + 1))
    with pytest.raises(TypeError):
        nv.create("text")


def test_map_semantics(ctx):
    m = ctx.create_map("m")
    assert m.get(b"k") is None
    assert not m.has(b"k")
    assert m.size() == 0
    m.insert(b"k", b"v")
    assert m.get(b"k") == b"v"
    assert m.has(b"k")
    m.insert(b"k2", b"v2")
    assert m.read_all() == {b"k": b"v", b"k2": b"v2"}
    assert m.size() == 2
    m.remove(b"k")
    assert m.get(b"k") is None
    m.delete()
    assert m.read_all() == {}


def test_map_key_and_value_caps(ctx):
    m = ctx.create_map("m")
    m.insert(b"k" * MAX_MAP_KEY_BYTES, b"v")
    with pytest.raises(KeyTooLarge):
        m.insert(b"k" * (MAX_MAP_KEY_BYTES + 1), b"v")
    m.insert(b"k", b"v" * MAX_ELEMENT_BYTES)
    with pytest.raises(ValueTooLarge):
        m.insert(b"k", b"v" * (MAX_ELEMENT_BYTES + 1))


def test_counter_map_semantics(ctx):
    cm = ctx.create_counter_map("cm")
    assert cm.get(b"f") == 0  # absent reads zero
    assert not cm.has(b"f")
    cm.add_to(b"f", 3)
    cm.add_to(b"f", -3)
    # Returning to zero keeps the entry present.
    assert cm.has(b"f")
    assert cm.get(b"f") == 0
    assert cm.read_all() == {b"f": 0}
    cm.insert(b"g", 5)
    assert cm.size() == 2
    cm.remove(b"f")
    assert not cm.has(b"f")
    cm.delete()
    assert cm.read_all() == {}


def test_counter_map_overflow(ctx):
    cm = ctx.create_counter_map("cm")
    cm.insert(b"f", 2**63 - 1)
    with pytest.raises(Overflow):
        cm.add_to(b"f", 1)
    assert cm.get(b"f") == 2**63 - 1


@pytest.mark.parametrize("label", ["flatkvs", "tablestore"])
def test_counter_map_delete_then_add_flushes(label):
    # The flush is [delete, map_incr(f, 1)] against a stored MAX: the
    # delete resets f, so the batch is in range and lands whole.
    driver = make_driver(label)
    cache = CoreCache("nf1", "ins1", 0, driver, start_flusher=False)
    cm = StateContext(cache).create_counter_map("cm")
    cm.insert(b"f", 2**63 - 1)
    cm.delete_nowait()
    cm.add_to_nowait(b"f", 1)
    cache.flush_now()
    with driver.connect() as s:
        assert s.fetch(cm.key) == {b"f": 1}
    cache.drain()


def test_list_semantics(ctx):
    lst = ctx.create_list("L")
    assert lst.length() == 0
    assert lst.read_all() == []
    lst.push_back(b"a")
    lst.push_back(b"b")
    assert lst.read(0) == b"a"
    assert lst.read(1) == b"b"
    assert lst.length() == 2
    with pytest.raises(IndexOutOfRange):
        lst.read(2)
    with pytest.raises(IndexOutOfRange):
        lst.read(-1)
    lst.clear()
    assert lst.read_all() == []


def test_index_error_is_also_builtin(ctx):
    lst = ctx.create_list("L")
    with pytest.raises(IndexError):
        lst.read(0)


def test_set_semantics(ctx):
    s = ctx.create_set("S")
    assert not s.contains(b"m")
    assert s.size() == 0
    s.insert(b"m")
    s.insert(b"m")  # idempotent
    assert s.contains(b"m")
    assert s.size() == 1
    s.insert(b"n")
    assert s.read_all() == {b"m", b"n"}
    s.remove(b"m")
    assert not s.contains(b"m")
    s.remove(b"m")  # removing a missing member is a no-op
    assert s.size() == 1


def test_read_your_writes_before_any_flush(ctx):
    # No flusher is running in this fixture; everything here is served
    # from the write-back cache alone.
    c = ctx.create_counter("c")
    c.add_nowait(5)
    assert c.read() == 5
    m = ctx.create_map("m")
    m.insert_nowait(b"k", b"v")
    assert m.read_all() == {b"k": b"v"}


def test_same_id_different_type_conflicts(ctx):
    ctx.create_counter("shared")
    with pytest.raises(TypeConflict):
        ctx.create_map("shared")
    with pytest.raises(TypeConflict):
        ctx.create_structure(StructureType.SET, "shared")


def test_handles_share_state(ctx):
    a = ctx.create_counter("c")
    b = ctx.create_counter("c")
    a.add_nowait(4)
    assert b.read() == 4


def test_handle_key_properties(ctx):
    c = ctx.create_counter("pktCounter")
    assert c.structure_id == "pktCounter"
    assert c.key.render() == "nf1@ins1@0@Counter@pktCounter"


def test_context_properties(ctx):
    assert ctx.nf_id == "nf1"
    assert ctx.instance_id == "ins1"
    assert ctx.core_id == 0
