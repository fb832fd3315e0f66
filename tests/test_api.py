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
from manual_flush import manual_cache


@pytest.fixture
def ctx():
    cache = manual_cache("nf1", "ins1", 0, make_driver("flatkvs"))
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
    cache = manual_cache("nf1", "ins1", 0, driver)
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


@pytest.mark.parametrize(
    "kind", ["counter", "name_value", "map", "counter_map", "list", "set"]
)
def test_opening_an_id_twice_gives_one_handle(ctx, kind):
    # A handle is its structure's cache entry, so there is one per id.
    create = getattr(ctx, f"create_{kind}")
    assert create("x") is create("x")


def test_handle_key_properties(ctx):
    c = ctx.create_counter("pktCounter")
    assert c.structure_id == "pktCounter"
    assert c.key.render() == "nf1@ins1@0@Counter@pktCounter"


def test_context_properties(ctx):
    assert ctx.nf_id == "nf1"
    assert ctx.instance_id == "ins1"
    assert ctx.core_id == 0


# The argument checks have a fast path for exact bytes and exact ints;
# every other input must take the full path and be treated as before.


class _Int(int):
    pass


class _Bytes(bytes):
    pass


def _int_calls(ctx):
    c = ctx.create_counter("c")
    cm = ctx.create_counter_map("cm")
    return [
        c.set,
        c.set_nowait,
        c.add,
        c.add_nowait,
        lambda n: cm.add_to(b"f", n),
        lambda n: cm.add_to_nowait(b"f", n),
        lambda n: cm.insert(b"f", n),
        lambda n: cm.insert_nowait(b"f", n),
    ]


@pytest.mark.parametrize(
    "value, exc, message",
    [
        (True, TypeError, "expected int, not bool"),
        (False, TypeError, "expected int, not bool"),
        (1.0, TypeError, "expected int, not float"),
        ("1", TypeError, "expected int, not str"),
        (2**63, Overflow, f"{2**63} outside signed 64-bit range"),
        (-(2**63) - 1, Overflow, f"{-(2**63) - 1} outside signed 64-bit range"),
        (_Int(2**63), Overflow, f"{2**63} outside signed 64-bit range"),
    ],
)
def test_int_arguments_refused_as_before(ctx, value, exc, message):
    for call in _int_calls(ctx):
        with pytest.raises(exc) as info:
            call(value)
        assert str(info.value) == message
    assert ctx.cache.pending_mutations == 0


def test_int_subclass_and_limits_accepted(ctx):
    c = ctx.create_counter("c")
    c.set_nowait(_Int(5))
    c.add_nowait(_Int(2))
    assert c.read() == 7
    c.set_nowait(2**63 - 1)
    assert c.read() == 2**63 - 1
    cm = ctx.create_counter_map("cm")
    cm.insert_nowait(b"f", -(2**63))
    cm.add_to_nowait(b"g", _Int(-3))
    assert cm.read_all() == {b"f": -(2**63), b"g": -3}


def _bytes_calls(ctx):
    m = ctx.create_map("m")
    cm = ctx.create_counter_map("cm")
    lst = ctx.create_list("l")
    s = ctx.create_set("s")
    nv = ctx.create_name_value("n")
    key_calls = [
        lambda k: m.insert(k, b"v"),
        lambda k: m.insert_nowait(k, b"v"),
        m.get,
        m.has,
        m.remove,
        m.remove_nowait,
        lambda k: cm.add_to_nowait(k, 1),
        lambda k: cm.insert(k, 1),
        cm.get,
    ]
    element_calls = [
        lambda v: m.insert(b"k", v),
        lambda v: m.insert_nowait(b"k", v),
        lst.push_back,
        lst.push_back_nowait,
        s.insert,
        s.insert_nowait,
        s.remove,
        s.remove_nowait,
        s.contains,
    ]
    blob_calls = [nv.create, nv.create_nowait, nv.update, nv.update_nowait]
    return key_calls, element_calls, blob_calls


def test_bytes_arguments_refused_as_before(ctx):
    key_calls, element_calls, blob_calls = _bytes_calls(ctx)
    cases = [
        (key_calls, KeyTooLarge, MAX_MAP_KEY_BYTES, "map key"),
        (element_calls, ValueTooLarge, MAX_ELEMENT_BYTES, "element"),
        (blob_calls, ValueTooLarge, MAX_BLOB_BYTES, "blob"),
    ]
    for calls, too_large, limit, what in cases:
        type_prefix = "map key" if what == "map key" else "value"
        for call in calls:
            for bad in ("k", 7, None, memoryview(b"k")):
                with pytest.raises(TypeError) as info:
                    call(bad)
                assert str(info.value) == (
                    f"{type_prefix} must be bytes, not {type(bad).__name__}"
                )
            for big in (b"x" * (limit + 1), bytearray(limit + 1), _Bytes(limit + 1)):
                with pytest.raises(too_large) as info:
                    call(big)
                assert str(info.value) == (
                    f"{what} of {limit + 1} bytes exceeds {limit}"
                )
            call(b"x" * limit)  # the limit itself is allowed
    ctx.cache.flush_now()


def test_bytearray_arguments_stored_as_bytes(ctx):
    m = ctx.create_map("m")
    m.insert_nowait(bytearray(b"k"), bytearray(b"v"))
    m.insert_nowait(_Bytes(b"k2"), _Bytes(b"v2"))
    cm = ctx.create_counter_map("cm")
    cm.add_to_nowait(bytearray(b"f"), 1)
    lst = ctx.create_list("l")
    lst.push_back_nowait(bytearray(b"e"))
    s = ctx.create_set("s")
    s.insert_nowait(bytearray(b"m"))
    nv = ctx.create_name_value("n")
    nv.create_nowait(bytearray(b"blob"))
    assert m.read_all() == {b"k": b"v", b"k2": b"v2"}
    assert cm.read_all() == {b"f": 1}
    assert lst.read_all() == [b"e"]
    assert s.read_all() == {b"m"}
    assert nv.get() == b"blob"
    stored = [
        *m.read_all(),
        *m.read_all().values(),
        *cm.read_all(),
        *lst.read_all(),
        *s.read_all(),
        nv.get(),
    ]
    assert all(type(x) is bytes for x in stored)  # == alone accepts bytearray
    assert m.get(bytearray(b"k")) == b"v"
    assert s.contains(bytearray(b"m"))


def _pending_view(cache):
    # The state a refused call must not touch: every live value, every
    # pending slot and the dirty list.
    states = cache._registry.values()
    return (
        [(s.key.structure_id, repr(s._live), repr(s._pend)) for s in states],
        list(cache._dirty),
        cache.pending_mutations,
    )


def test_refused_increment_leaves_state_untouched(ctx):
    c = ctx.create_counter("c")
    cm = ctx.create_counter_map("cm")
    c.set(-5)
    cm.insert(b"f", -5)
    c.add_nowait(3)
    cm.add_to_nowait(b"f", 3)
    before = _pending_view(ctx.cache)
    # The argument is refused even where the sum (-2 + arg) would fit;
    # an Overflow names the argument, or the sum when only the sum leaves.
    for bad, exc, named in [
        (None, TypeError, None),
        (True, TypeError, None),
        (1.0, TypeError, None),
        ("1", TypeError, None),
        (2**63, Overflow, 2**63),
        (_Int(2**63), Overflow, 2**63),
        (-(2**63) - 1, Overflow, -(2**63) - 1),
        (-(2**63), Overflow, -(2**63) - 2),
    ]:
        for call in (
            c.add,
            c.add_nowait,
            lambda n: cm.add_to(b"f", n),
            lambda n: cm.add_to_nowait(b"f", n),
        ):
            with pytest.raises(exc) as info:
                call(bad)
            if named is not None:
                assert str(info.value) == f"{named} outside signed 64-bit range"
            assert _pending_view(ctx.cache) == before
    assert (c.read(), cm.get(b"f")) == (-2, -2)


# Mutator calls per handle type; with READS, every public method.
_MUTATORS = {
    "counter": {
        "set": (5,), "set_nowait": (5,), "add": (1,), "add_nowait": (1,),
        "delete": (), "delete_nowait": (),
    },
    "name_value": {
        "create": (b"v",), "create_nowait": (b"v",), "update": (b"w",),
        "update_nowait": (b"w",), "delete": (), "delete_nowait": (),
    },
    "map": {
        "insert": (b"k", b"v"), "insert_nowait": (b"k", b"v"), "remove": (b"k",),
        "remove_nowait": (b"k",), "delete": (), "delete_nowait": (),
    },
    "counter_map": {
        "insert": (b"k", 3), "insert_nowait": (b"k", 3), "add_to": (b"k", 1),
        "add_to_nowait": (b"k", 1), "remove": (b"k",), "remove_nowait": (b"k",),
        "delete": (), "delete_nowait": (),
    },
    "list": {
        "push_back": (b"e",), "push_back_nowait": (b"e",), "clear": (),
        "clear_nowait": (),
    },
    "set": {
        "insert": (b"m",), "insert_nowait": (b"m",), "remove": (b"m",),
        "remove_nowait": (b"m",),
    },
}
_READS = {"read", "exists", "get", "has", "read_all", "size", "length", "contains"}


def test_every_mutator_enters_apply_op_once(ctx, monkeypatch):
    # apply_op is the one mutation entry, in both forms: the tracer times
    # it by patching the class attribute, which the handles look up.
    entries = []
    apply_op = CoreCache.apply_op

    def counting(cache, *args, **kwargs):
        entries.append(kwargs.get("wait", False))
        return apply_op(cache, *args, **kwargs)

    monkeypatch.setattr(CoreCache, "apply_op", counting)
    for kind, calls in _MUTATORS.items():
        handle = getattr(ctx, f"create_{kind}")(kind)
        public = {
            name for name in dir(handle)
            if not name.startswith("_") and callable(getattr(handle, name))
        }
        assert public - _READS == set(calls), kind
        # The live value, the pending slots and the folds stay private.
        fields = {
            name for name in dir(handle)
            if not name.startswith("_") and not callable(getattr(handle, name))
        }
        assert fields == {"key", "structure_id"}, kind
        for name, args in calls.items():
            entries.clear()
            getattr(handle, name)(*args)
            assert entries == [not name.endswith("_nowait")], (kind, name)
