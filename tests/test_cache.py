"""Write-back cache: coalescing, flusher retries, waiting calls, drain."""

import itertools
import json
import os
import random
import re
import threading
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

import flexstate.api as api_mod
import flexstate.cache as cache_mod
from flexstate.drivers.base import Mutation
from flexstate.api import StateContext
from flexstate.cache import CoreCache
from flexstate.drivers import (
    MutationBatch,
    delete,
    incr,
    list_append,
    make_driver,
    map_del,
    map_incr,
    map_set,
    set_add,
    set_blob,
    set_del,
)
from flexstate.errors import (
    BackpressureSignal,
    BadDuration,
    ConnectionLost,
    Overflow,
    StoreUnavailable,
    TypeConflict,
)
from flexstate.keys import StructureType, build_key
from flexstate.limits import INT64_MAX, INT64_MIN
from flexstate.testing import ModelStore, RecordingDriver


def make_cache(driver=None, **kwargs):
    driver = driver or make_driver("flatkvs")
    kwargs.setdefault("start_flusher", False)
    return CoreCache("nf1", "ins1", 0, driver, **kwargs)


def recording_cache(**kwargs):
    driver = RecordingDriver(make_driver("flatkvs"))
    return make_cache(driver, **kwargs), driver


def flush_kinds(driver):
    return [(m.kind, m.field, m.value) for _key, m in driver.applied_mutations()]


def test_thousand_adds_coalesce_to_one_incr():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    for _ in range(1000):
        counter.add_nowait(1)
    assert cache.pending_mutations == 1
    cache.flush_now()
    assert flush_kinds(rec) == [("incr", None, 1000)]
    assert counter.read() == 1000
    cache.drain()


def test_set_then_adds_fold_to_one_set():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.set_nowait(10)
    counter.add_nowait(-4)
    cache.flush_now()
    assert flush_kinds(rec) == [("set_blob", None, 6)]
    cache.drain()


def test_delete_then_add_folds_to_set():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(5)
    cache.flush_now()
    counter.delete_nowait()
    counter.add_nowait(3)
    cache.flush_now()
    assert flush_kinds(rec)[-1] == ("set_blob", None, 3)
    assert counter.read() == 3
    cache.drain()


def _fill_pending(ctx, kind):
    """Pending ops on one structure of kind, a reset first: the items that
    take_pending must yield, each built by Mutation(...)."""
    if kind == "map":
        h = ctx.create_map("m")
        h.insert_nowait(b"old", b"0")
        h.delete_nowait()
        for i in range(300):
            h.insert_nowait(b"f%d" % i, b"v%d" % i)
        h.remove_nowait(b"f7")
        h.insert_nowait(b"f3", b"again")
        want = [Mutation("delete")] + [
            Mutation("map_set", b"f%d" % i, b"again" if i == 3 else b"v%d" % i)
            for i in range(300)
        ]
        want[8] = Mutation("map_del", b"f7")
    elif kind == "counter_map":
        h = ctx.create_counter_map("cm")
        h.add_to_nowait(b"old", 1)
        h.delete_nowait()
        for i in range(300):
            h.add_to_nowait(b"f%d" % i, i)
        h.add_to_nowait(b"f5", 2)
        h.insert_nowait(b"f9", 99)
        h.remove_nowait(b"f11")
        want = [Mutation("delete")] + [
            Mutation("map_incr", b"f%d" % i, i) for i in range(300)
        ]
        want[6] = Mutation("map_incr", b"f5", 7)
        want[10] = Mutation("map_set", b"f9", 99)
        want[12] = Mutation("map_del", b"f11")
    elif kind == "set":
        h = ctx.create_set("s")
        for i in range(300):
            h.insert_nowait(b"m%d" % i)
        h.remove_nowait(b"m4")
        want = [Mutation("set_add", None, b"m%d" % i) for i in range(300)]
        want[4] = Mutation("set_del", None, b"m4")
    else:
        h = ctx.create_list("l")
        h.push_back_nowait(b"old")
        h.clear_nowait()
        for i in range(300):
            h.push_back_nowait(b"x%d" % (i % 7))
        want = [Mutation("delete")] + [
            Mutation("list_append", None, b"x%d" % (i % 7)) for i in range(300)
        ]
    return h, want


@pytest.mark.parametrize("kind", ["map", "counter_map", "set", "list"])
def test_take_pending_items_are_plain_mutations_in_pending_order(kind):
    cache = make_cache()
    ctx = StateContext(cache)
    h, want = _fill_pending(ctx, kind)
    batch, swap_id = cache.take_pending()
    assert swap_id is not None
    assert [key for key, _m in batch.items] == [h.key] * len(want)
    got = [m for _key, m in batch.items]
    assert all(type(m) is Mutation for m in got)
    assert got == want
    assert [tuple(m) for m in got] == [tuple(m) for m in want]
    assert cache.pending_mutations == 0
    cache.drain()


def test_map_last_write_wins_per_field():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    m = ctx.create_map("m")
    for i in range(50):
        m.insert_nowait(b"f", b"v%d" % i)
    m.insert_nowait(b"g", b"x")
    m.remove_nowait(b"g")
    assert cache.pending_mutations == 2
    cache.flush_now()
    kinds = flush_kinds(rec)
    assert ("map_set", b"f", b"v49") in kinds
    assert ("map_del", b"g") == kinds[-1][:2] or ("map_del", b"g", None) in kinds
    assert len(kinds) == 2
    cache.drain()


def test_map_delete_emits_delete_then_fields():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    m = ctx.create_map("m")
    m.insert_nowait(b"old", b"1")
    cache.flush_now()
    m.delete_nowait()
    m.insert_nowait(b"new", b"2")
    cache.flush_now()
    tail = flush_kinds(rec)[1:]
    assert tail == [("delete", None, None), ("map_set", b"new", b"2")]
    assert m.read_all() == {b"new": b"2"}
    cache.drain()


def test_countermap_folds_per_field():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    cm = ctx.create_counter_map("cm")
    for _ in range(100):
        cm.add_to_nowait(b"srv1", 1)
    cm.insert_nowait(b"srv2", 7)
    cm.add_to_nowait(b"srv2", -2)
    cache.flush_now()
    kinds = flush_kinds(rec)
    assert ("map_incr", b"srv1", 100) in kinds
    assert ("map_set", b"srv2", 5) in kinds
    assert len(kinds) == 2
    cache.drain()


def test_countermap_del_then_add_folds_to_set():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    cm = ctx.create_counter_map("cm")
    cm.insert_nowait(b"f", 9)
    cache.flush_now()
    cm.remove_nowait(b"f")
    cm.add_to_nowait(b"f", 4)
    cache.flush_now()
    assert flush_kinds(rec)[-1] == ("map_set", b"f", 4)
    assert cm.get(b"f") == 4
    cache.drain()


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_folded_increment_leaving_int64_becomes_a_set(label, mini_server):
    # Every live value stays in range, but incr(INT64_MAX) folded with
    # incr(5) would flush one increment past int64, which a real Redis
    # refuses as an argument. The slot must flush the live value instead.
    endpoint = mini_server.endpoint if label == "resp" else "local"
    rec = RecordingDriver(make_driver(label, endpoint))
    cache = make_cache(rec)
    ctx = StateContext(cache)
    c = ctx.create_counter("c")
    cm = ctx.create_counter_map("cm")
    c.set(INT64_MIN)
    cm.insert(b"f", INT64_MIN)
    c.add_nowait(INT64_MAX)
    cm.add_to_nowait(b"f", INT64_MAX)
    c.add_nowait(5)
    cm.add_to_nowait(b"f", 5)
    cache.flush_now()
    assert cache.stats.dead_letters == 0, cache.stats.last_error
    increments = [
        m.value for _key, m in rec.applied_mutations() if m.kind in ("incr", "map_incr")
    ]
    assert all(INT64_MIN <= n <= INT64_MAX for n in increments), increments
    assert flush_kinds(rec)[-2:] == [("set_blob", None, 4), ("map_set", b"f", 4)]
    with rec.connect() as probe:
        assert probe.fetch(c.key) == 4
        assert probe.fetch(cm.key) == {b"f": 4}
    assert (c.read(), cm.get(b"f")) == (4, 4)
    cache.drain()
    rec.close()


def test_increment_folds_stay_increments_within_int64():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    c = ctx.create_counter("c")
    cm = ctx.create_counter_map("cm")
    for n in (INT64_MAX, -5, INT64_MIN + 5):
        c.add_nowait(n)
        cm.add_to_nowait(b"f", n)
    cache.flush_now()
    assert flush_kinds(rec) == [("incr", None, -1), ("map_incr", b"f", -1)]
    cache.drain()


def _counter_on(label, mini_server):
    endpoint = mini_server.endpoint if label == "resp" else "local"
    rec = RecordingDriver(make_driver(label, endpoint))
    cache = make_cache(rec)
    return cache, StateContext(cache).create_counter("c"), rec


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_pending_sum_that_returns_to_int64_stays_one_increment(label, mini_server):
    # The sum is checked once, when it is collected: on its way it left
    # int64 (INT64_MAX + 5), but what is flushed is back inside it.
    cache, c, rec = _counter_on(label, mini_server)
    c.set(INT64_MIN)
    for n in (INT64_MAX, 5, -10):
        c.add_nowait(n)
    cache.flush_now()
    assert flush_kinds(rec)[-1] == ("incr", None, INT64_MAX - 5)
    with rec.connect() as probe:
        assert probe.fetch(c.key) == c.read() == -6
    cache.drain()
    rec.close()


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
@pytest.mark.parametrize("how", ["flush_now", "waiting add"])
def test_pending_sum_outside_int64_flushes_the_live_value(label, how, mini_server):
    cache, c, rec = _counter_on(label, mini_server)
    c.set(INT64_MIN)
    c.add_nowait(INT64_MAX)
    c.add_nowait(5)  # the sum is INT64_MAX + 5, the live value 4
    if how == "flush_now":
        cache.flush_now()
    else:
        c.add(1)  # collects the pending sum with its own +1
    live = c.read()
    assert flush_kinds(rec)[-1] == ("set_blob", None, live)
    assert cache.stats.dead_letters == 0, cache.stats.last_error
    with rec.connect() as probe:
        assert probe.fetch(c.key) == live == (4 if how == "flush_now" else 5)
    cache.drain()
    rec.close()


_near_int64 = st.one_of(
    st.sampled_from([INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1, -1, 0, 1]),
    st.integers(INT64_MIN, INT64_MAX),
)
_counter_calls = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add_nowait", "add", "set_nowait"]), _near_int64),
        st.tuples(st.sampled_from(["delete_nowait", "flush_now"]), st.none()),
    ),
    max_size=24,
)
_AS_MUTATION = {"add_nowait": incr, "add": incr, "set_nowait": set_blob}


def _refuses(call, *args) -> bool:
    try:
        call(*args)
    except Overflow:
        return True
    return False


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_counter_calls_near_int64_match_the_model(label, mini_server):
    # A call refuses exactly what the model's replay of it refuses; every
    # flushed incr is within int64, and the store ends equal to read() and
    # to the model's replay of the calls that returned.
    endpoint = mini_server.endpoint if label == "resp" else "local"
    rec = RecordingDriver(make_driver(label, endpoint))
    ids = itertools.count()

    @seed(1919)
    @settings(max_examples=60, deadline=None)
    @given(_counter_calls)
    def run(calls):
        cache = make_cache(rec)
        c = StateContext(cache).create_counter(f"c{next(ids)}")
        model = ModelStore()
        mark = len(rec.applied)
        for name, n in calls:
            if name == "flush_now":
                cache.flush_now()
                continue
            args, mutation = ((), delete()) if n is None else ((n,), _AS_MUTATION[name](n))
            refused = _refuses(getattr(c, name), *args)
            assert refused == _refuses(model.apply_mutation, c.key, mutation), (name, n)
        cache.flush_now()
        flushed = [m for _sid, _seq, items in rec.applied[mark:] for _key, m in items]
        assert all(INT64_MIN <= m.value <= INT64_MAX for m in flushed if m.kind == "incr")
        assert cache.stats.dead_letters == 0, cache.stats.last_error
        with rec.connect() as probe:
            stored = probe.fetch(c.key)
        assert stored == model.fetch(c.key) == (c.read() if c.exists() else None)
        cache.drain()

    run()
    rec.close()


_FIELD = st.sampled_from([b"f1", b"f2", b"f3"])
_ELEMENT = st.sampled_from([b"a", b"b", b"c"])
_SMALL = st.integers(-50, 50)
# Per collection type: its open call, and each mutator with the arguments
# it draws and the mutation the model replays for it.
_COLLECTION_CALLS = {
    "map": ("create_map", {
        "insert": ((_FIELD, _ELEMENT), map_set),
        "remove": ((_FIELD,), map_del),
        "delete": ((), delete),
    }),
    "counter_map": ("create_counter_map", {
        "add_to": ((_FIELD, _SMALL), map_incr),
        "insert": ((_FIELD, _SMALL), map_set),
        "remove": ((_FIELD,), map_del),
        "delete": ((), delete),
    }),
    "list": ("create_list", {
        "push_back": ((_ELEMENT,), list_append),
        "clear": ((), delete),
    }),
    "set": ("create_set", {
        "insert": ((_ELEMENT,), set_add),
        "remove": ((_ELEMENT,), set_del),
    }),
}


def _collection_stream(kind):
    """Calls on one collection: (method name, args), or ("flush_now", ())."""
    mutators = _COLLECTION_CALLS[kind][1]
    calls = [st.just(("flush_now", ()))]
    for name, (args, _mutation) in mutators.items():
        for method in (name, name + "_nowait", name + "_nowait"):
            calls.append(st.tuples(st.just(method), st.tuples(*args)))
    return st.lists(st.one_of(calls), max_size=30)


@pytest.mark.parametrize("kind", sorted(_COLLECTION_CALLS))
@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_collection_calls_match_the_model(label, kind, mini_server):
    # Resets land anywhere in a flush window. After every flush the store
    # equals read_all() and the model's replay of the calls, and each flush
    # carries exactly the pending_mutations counted before it.
    endpoint = mini_server.endpoint if label == "resp" else "local"
    rec = RecordingDriver(make_driver(label, endpoint))
    opener, mutators = _COLLECTION_CALLS[kind]
    ids = itertools.count()

    def flush_and_check(cache, h, model):
        pending, mark = cache.pending_mutations, len(rec.applied)
        cache.flush_now()
        assert sum(len(items) for _sid, _seq, items in rec.applied[mark:]) == pending
        assert cache.pending_mutations == 0
        with rec.connect() as probe:
            stored = probe.fetch(h.key)
        assert stored == model.fetch(h.key) == (h.read_all() or None)

    @seed(2020)
    @settings(max_examples=40, deadline=None)
    @given(_collection_stream(kind))
    def run(calls):
        cache = make_cache(rec)
        h = getattr(StateContext(cache), opener)(f"{kind}{next(ids)}")
        model = ModelStore()
        for method, args in calls:
            if method == "flush_now":
                flush_and_check(cache, h, model)
                continue
            getattr(h, method)(*args)
            model.apply_mutation(h.key, mutators[method.removesuffix("_nowait")][1](*args))
        flush_and_check(cache, h, model)
        assert cache.stats.dead_letters == 0, cache.stats.last_error
        cache.drain()

    run()
    rec.close()


def test_list_appends_stay_ordered():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    lst = ctx.create_list("L")
    for i in range(5):
        lst.push_back_nowait(b"%d" % i)
    cache.flush_now()
    assert flush_kinds(rec) == [
        ("list_append", None, b"%d" % i) for i in range(5)
    ]
    cache.drain()


def test_list_clear_resets_pending_appends():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    lst = ctx.create_list("L")
    lst.push_back_nowait(b"a")
    cache.flush_now()
    lst.push_back_nowait(b"dropped")
    lst.clear_nowait()
    lst.push_back_nowait(b"kept")
    cache.flush_now()
    tail = flush_kinds(rec)[1:]
    assert tail == [("delete", None, None), ("list_append", None, b"kept")]
    assert lst.read_all() == [b"kept"]
    cache.drain()


def test_set_add_del_folds():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    s = ctx.create_set("S")
    s.insert_nowait(b"m")
    s.remove_nowait(b"m")
    s.insert_nowait(b"keep")
    cache.flush_now()
    kinds = flush_kinds(rec)
    assert ("set_del", None, b"m") in kinds
    assert ("set_add", None, b"keep") in kinds
    assert len(kinds) == 2
    assert not s.contains(b"m")
    cache.drain()


def test_replaying_flushes_reproduces_live_value():
    # The coalesced stream applied to a second store must land on the same
    # final value the cache reports locally.
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    cm = ctx.create_counter_map("cm")
    for i in range(200):
        counter.add_nowait(i % 7 - 3)
        if i % 13 == 0:
            counter.set_nowait(i)
        cm.add_to_nowait(b"f%d" % (i % 3), 1)
        if i % 50 == 0:
            cache.flush_now()
    cache.flush_now()

    replay = make_driver("flatkvs")
    with replay.connect() as s:
        from flexstate.drivers import MutationBatch

        s.apply(MutationBatch(rec.applied_mutations()))
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert s.fetch(key) == counter.read()
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER_MAP, "cm")
        assert s.fetch(key) == cm.read_all()
    cache.drain()


def test_waiting_call_lands_before_returning():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(4)
    counter.add(1)  # waiting call collects the folded pending too
    with rec.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == 5
    assert cache.pending_mutations == 0
    assert cache.stats.sync_flushes == 1
    cache.drain()


def test_waiting_call_waits_for_inflight_flush():
    # A failed flush leaves a retained batch in flight; the waiting call
    # must not overtake it.
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(10)
    rec.fail_applies = 1
    cache.flush_now()  # flush fails, batch retained
    assert cache.flusher.retained_batch

    done = []

    def waiter():
        counter.add(1)
        done.append(time.monotonic())

    t = threading.Thread(target=waiter)
    t.start()
    time.sleep(0.05)
    assert not done  # still parked behind the retained batch
    cache.flush_now()  # retry succeeds, barrier lifts
    t.join(timeout=5)
    assert done
    with rec.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == 11
    cache.drain()


def _dumped_rows(info) -> list[dict]:
    # The dump file a StoreUnavailable names, read and removed.
    path = re.search(r"(\S+\.json)", str(info.value)).group(1)
    try:
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def test_waiting_call_times_out_when_store_is_down(monkeypatch):
    # Once the call gives up, its incr is no longer pending anywhere, so
    # it must be in the dump the error names.
    monkeypatch.setattr(cache_mod, "SYNC_TIMEOUT_S", 0.2)
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    rec.fail_applies = 10**9
    with pytest.raises(StoreUnavailable, match="waiting call failed") as info:
        counter.add(1)
    assert _dumped_rows(info) == [
        {"key": "nf1@ins1@0@Counter@c", "kind": "incr", "field": None, "value": 1}
    ]
    rec.fail_applies = 0
    cache.drain()


def test_waiting_call_that_times_out_on_the_barrier_dumps_its_batch(monkeypatch):
    # The flusher holds a retained batch past the deadline, so the call
    # never sends its own: its incr must be in the dump the error names.
    monkeypatch.setattr(cache_mod, "SYNC_TIMEOUT_S", 0.05)
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    a = ctx.create_counter("a")
    b = ctx.create_counter("b")
    rec.fail_applies = 1
    a.add_nowait(1)
    cache.flush_now()
    assert cache.flusher.retained_batch
    with pytest.raises(StoreUnavailable, match="in-flight flush") as info:
        b.add(1)
    assert _dumped_rows(info) == [
        {"key": "nf1@ins1@0@Counter@b", "kind": "incr", "field": None, "value": 1}
    ]
    cache.drain()
    with rec.connect() as probe:
        assert probe.fetch(a.key) == 1
        assert probe.fetch(b.key) is None


def _assert_dead_lettered(cache, info):
    # A give-up counts its batch as a dead letter, and last_error names the
    # dump the error names. The dump is removed.
    path = re.search(r"(\S+\.json)", str(info.value)).group(1)
    try:
        assert cache.stats.dead_letters == 1
        assert f"dead-lettered to {path}:" in cache.stats.last_error
    finally:
        os.unlink(path)


def test_waiting_call_that_gives_up_reports_a_dead_letter(monkeypatch):
    monkeypatch.setattr(cache_mod, "SYNC_TIMEOUT_S", 0.2)
    cache, rec = recording_cache()
    counter = StateContext(cache).create_counter("c")
    rec.fail_applies = 10**9
    with pytest.raises(StoreUnavailable, match="waiting call failed") as info:
        counter.add(1)
    _assert_dead_lettered(cache, info)
    rec.fail_applies = 0
    cache.drain()


def test_barrier_time_out_reports_a_dead_letter(monkeypatch):
    monkeypatch.setattr(cache_mod, "SYNC_TIMEOUT_S", 0.05)
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    a = ctx.create_counter("a")
    b = ctx.create_counter("b")
    rec.fail_applies = 1
    a.add_nowait(1)
    cache.flush_now()
    with pytest.raises(StoreUnavailable, match="in-flight flush") as info:
        b.add(1)
    _assert_dead_lettered(cache, info)
    cache.drain()


def test_drain_that_gives_up_reports_a_dead_letter(monkeypatch):
    monkeypatch.setattr(cache_mod, "DRAIN_TIMEOUT_S", 0.2)
    cache, rec = recording_cache()
    StateContext(cache).create_counter("c").add_nowait(99)
    rec.fail_applies = 10**9
    with pytest.raises(StoreUnavailable, match="drain failed") as info:
        cache.drain()
    _assert_dead_lettered(cache, info)


def test_waiting_call_survives_brief_outage():
    # Three lost links in a row cost a few milliseconds of backoff, well
    # inside the waiting call's deadline: the call returns once the store
    # has the batch, applied exactly once.
    cache, rec = recording_cache()
    counter = StateContext(cache).create_counter("c")
    rec.fail_applies = 3
    counter.add(1)
    with rec.connect() as probe:
        assert probe.fetch(counter.key) == 1
    assert [items for _sid, _seq, items in rec.applied] == [[(counter.key, incr(1))]]
    assert cache.stats.sync_flushes == 1
    cache.drain()


def test_flusher_retains_and_retries_exactly_once():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(42)
    rec.fail_applies = 2
    cache.flush_now()
    cache.flush_now()
    assert counter.read() == 42
    assert rec.applied == []  # both attempts failed
    cache.flush_now()
    assert flush_kinds(rec) == [("incr", None, 42)]
    assert cache.stats.retries == 2
    assert cache.stats.flushes_succeeded == 1
    with rec.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == 42
    cache.drain()


def test_new_mutations_during_outage_stay_separate():
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(1)
    rec.fail_applies = 1
    cache.flush_now()  # retained
    counter.add_nowait(2)  # arrives during the outage
    cache.flush_now()  # retry retained, then flush the new batch
    cache.flush_now()
    assert counter.read() == 3
    with rec.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == 3
    cache.drain()


def test_backpressure_trips_at_limit(monkeypatch):
    monkeypatch.setattr(cache_mod, "BACKPRESSURE_LIMIT", 100)
    cache, _rec = recording_cache()
    ctx = StateContext(cache)
    lst = ctx.create_list("L")
    for _ in range(100):
        lst.push_back_nowait(b"x")
    with pytest.raises(BackpressureSignal):
        lst.push_back_nowait(b"x")
    # Flushing clears the signal.
    cache.flush_now()
    lst.push_back_nowait(b"x")
    cache.drain()


def test_retained_batch_counts_against_backpressure(monkeypatch):
    monkeypatch.setattr(cache_mod, "BACKPRESSURE_LIMIT", 10)
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    lst = ctx.create_list("L")
    for _ in range(10):
        lst.push_back_nowait(b"x")
    rec.fail_applies = 1
    cache.flush_now()
    with pytest.raises(BackpressureSignal):
        lst.push_back_nowait(b"x")
    cache.flush_now()
    lst.push_back_nowait(b"x")
    cache.drain()


def test_drain_pushes_everything():
    driver = make_driver("flatkvs")
    cache = make_cache(driver)
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(7)
    stats = cache.drain()
    assert stats.drain_mutations == 1
    assert cache.pending_mutations == 0
    with driver.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == 7


def test_drain_pushes_retained_batch_once_store_is_back():
    # The flusher's try at incr(5) lost the link, so drain finds it
    # retained; the store is back, so drain pushes it, then the final
    # batch, and counts both as drained, not as flushes.
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    m = ctx.create_map("m")
    rec.fail_applies = 1
    counter.add_nowait(5)
    cache.flush_now()
    assert cache.flusher.retained_batch is not None
    m.insert_nowait(b"k", b"v")
    stats = cache.drain()
    assert flush_kinds(rec) == [("incr", None, 5), ("map_set", b"k", b"v")]
    with rec.connect() as probe:
        assert probe.fetch(counter.key) == 5
        assert probe.fetch(m.key) == {b"k": b"v"}
    assert stats.drain_mutations == 2
    assert stats.retries == 1
    assert stats.dead_letters == 0
    assert stats.flushes_succeeded == 0
    assert cache.flusher.retained_batch is None


def test_drain_dumps_batch_when_store_stays_down(monkeypatch):
    monkeypatch.setattr(cache_mod, "DRAIN_TIMEOUT_S", 0.2)
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(99)
    rec.fail_applies = 10**9
    with pytest.raises(StoreUnavailable) as info:
        cache.drain()
    message = str(info.value)
    path = next(p for p in message.split() if p.endswith(".json:"))[:-1]
    try:
        with open(path) as fh:
            rows = json.load(fh)
        assert rows == [
            {
                "key": "nf1@ins1@0@Counter@c",
                "kind": "incr",
                "field": None,
                "value": 99,
            }
        ]
    finally:
        os.unlink(path)


def test_drain_dumps_every_batch_left_when_store_stays_down(monkeypatch):
    # The retained batch and the final one both stay unapplied: the dump
    # must hold both, in order, not only the first.
    monkeypatch.setattr(cache_mod, "DRAIN_TIMEOUT_S", 0.2)
    cache, rec = recording_cache()
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    m = ctx.create_map("m")
    rec.fail_applies = 10**9
    counter.add_nowait(5)
    cache.flush_now()
    assert cache.flusher.retained_batch is not None
    m.insert_nowait(b"k", b"v")
    with pytest.raises(StoreUnavailable) as info:
        cache.drain()
    message = str(info.value)
    path = next(p for p in message.split() if p.endswith(".json:"))[:-1]
    try:
        with open(path) as fh:
            rows = json.load(fh)
        assert rows == [
            {"key": "nf1@ins1@0@Counter@c", "kind": "incr", "field": None, "value": 5},
            {
                "key": "nf1@ins1@0@Map@m",
                "kind": "map_set",
                "field": {"b64": "aw=="},
                "value": {"b64": "dg=="},
            },
        ]
    finally:
        os.unlink(path)


def test_dump_rows_of_every_mutation_kind():
    # Bytes travel as {"b64": ...}; counter values, ints in every kind,
    # as plain JSON ints.
    cache = make_cache()
    key = {
        stype: build_key("nf1", "ins1", 0, stype, "s") for stype in StructureType
    }
    batch = MutationBatch(
        [
            (key[StructureType.COUNTER], set_blob(10)),
            (key[StructureType.COUNTER], incr(-4)),
            (key[StructureType.NAME_VALUE], set_blob(b"blob")),
            (key[StructureType.NAME_VALUE], delete()),
            (key[StructureType.MAP], map_set(b"f", b"v")),
            (key[StructureType.MAP], map_del(b"f")),
            (key[StructureType.COUNTER_MAP], map_set(b"f", 7)),
            (key[StructureType.COUNTER_MAP], map_incr(b"f", -2)),
            (key[StructureType.LIST], list_append(b"a")),
            (key[StructureType.LIST], delete()),
            (key[StructureType.SET], set_add(b"m")),
            (key[StructureType.SET], set_del(b"m")),
        ]
    )
    path = cache._dump_batch(batch)
    try:
        with open(path) as fh:
            rows = json.load(fh)
    finally:
        os.unlink(path)
        cache.drain()

    f = {"b64": "Zg=="}  # b"f"
    assert [(r["key"], r["kind"], r["field"], r["value"]) for r in rows] == [
        ("nf1@ins1@0@Counter@s", "set_blob", None, 10),
        ("nf1@ins1@0@Counter@s", "incr", None, -4),
        ("nf1@ins1@0@Namevalue@s", "set_blob", None, {"b64": "YmxvYg=="}),
        ("nf1@ins1@0@Namevalue@s", "delete", None, None),
        ("nf1@ins1@0@Map@s", "map_set", f, {"b64": "dg=="}),
        ("nf1@ins1@0@Map@s", "map_del", f, None),
        ("nf1@ins1@0@Countermap@s", "map_set", f, 7),
        ("nf1@ins1@0@Countermap@s", "map_incr", f, -2),
        ("nf1@ins1@0@List@s", "list_append", None, {"b64": "YQ=="}),
        ("nf1@ins1@0@List@s", "delete", None, None),
        ("nf1@ins1@0@Set@s", "set_add", None, {"b64": "bQ=="}),
        ("nf1@ins1@0@Set@s", "set_del", None, {"b64": "bQ=="}),
    ]
    assert all(set(r) == {"key", "kind", "field", "value"} for r in rows)


def test_hydration_reads_existing_state():
    driver = make_driver("flatkvs")
    seed = make_cache(driver)
    ctx = StateContext(seed)
    ctx.create_counter("c").set_nowait(123)
    ctx.create_map("m").insert_nowait(b"k", b"v")
    seed.drain()

    cache = make_cache(driver)
    ctx2 = StateContext(cache)
    assert ctx2.create_counter("c").read() == 123
    assert ctx2.create_map("m").read_all() == {b"k": b"v"}
    cache.drain()


class _FailingFetch:
    """Stands in for a session's fetch: the first `failures` calls lose
    the link, later ones reach the real fetch."""

    def __init__(self, session, failures):
        self.fetch = session.fetch
        self.failures = failures
        self.calls = 0

    def __call__(self, key):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionLost("injected fetch failure")
        return self.fetch(key)


def test_create_structure_retries_then_gives_up(monkeypatch):
    # Hydration retries a lost link like a waiting call does, up to the
    # SYNC_TIMEOUT_S deadline, then raises StoreUnavailable.
    monkeypatch.setattr(cache_mod, "SYNC_TIMEOUT_S", 0.2)
    cache, rec = recording_cache()
    failer = _FailingFetch(cache.worker_session, 10**9)
    cache.worker_session.fetch = failer
    started = time.monotonic()
    with pytest.raises(StoreUnavailable, match="cannot hydrate nf1@ins1@0@Counter@c"):
        cache.create_structure(StructureType.COUNTER, "c")
    assert time.monotonic() - started < 1.0  # the 0.2 s deadline, not 5 s
    assert failer.calls > 3
    assert cache._registry == {}
    cache.drain()


def test_create_counter_survives_brief_fetch_outage():
    # Five lost links cost about 31 ms of backoff, far inside the deadline.
    driver = make_driver("flatkvs")
    seed = make_cache(driver)
    StateContext(seed).create_counter("c").set_nowait(7)
    seed.drain()
    cache = make_cache(driver)
    failer = _FailingFetch(cache.worker_session, 5)
    cache.worker_session.fetch = failer
    assert StateContext(cache).create_counter("c").read() == 7
    assert failer.calls == 6
    cache.drain()


def test_reopen_same_type_is_idempotent():
    cache, _rec = recording_cache()
    a = cache.create_structure(StructureType.COUNTER, "x")
    b = cache.create_structure(StructureType.COUNTER, "x")
    assert a is b
    cache.drain()


def test_reopen_other_type_conflicts():
    cache, _rec = recording_cache()
    cache.create_structure(StructureType.COUNTER, "x")
    with pytest.raises(TypeConflict):
        cache.create_structure(StructureType.MAP, "x")
    cache.drain()


def test_flusher_cadence_smoke():
    driver = make_driver("flatkvs")
    cache = CoreCache("nf1", "ins1", 0, driver, flush_interval_us=2000)
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    t0 = time.monotonic()
    while time.monotonic() - t0 < 1.0:
        counter.add_nowait(1)
        time.sleep(0.0002)
    stats = cache.drain()
    # 1 s at 2 ms per tick is ~500 ticks; generous slack for a busy host.
    assert 300 <= stats.ticks <= 700
    assert stats.flushes_succeeded >= 200
    with driver.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == counter.read()


def test_flusher_backs_off_during_outage_and_recovers():
    rec = RecordingDriver(make_driver("flatkvs"))
    cache = CoreCache("nf1", "ins1", 0, rec, flush_interval_us=1000)
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    counter.add_nowait(5)
    rec.fail_applies = 3
    time.sleep(0.5)
    stats = cache.drain()
    assert stats.retries >= 3
    with rec.connect() as probe:
        key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
        assert probe.fetch(key) == 5


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_store_error_dead_letters_batch_and_flusher_survives(label, mini_server):
    # Another session leaves the counter 5 below the int64 limit, so the
    # flushed incr(10) is refused by the store. The flusher must write the
    # batch out, report it, release waiting calls and keep its cadence.
    endpoint = mini_server.endpoint if label == "resp" else "local"
    driver = make_driver(label, endpoint)
    cache = CoreCache("nf1", "ins1", 0, driver, flush_interval_us=1000)
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    other = ctx.create_map("m")
    near_max = INT64_MAX - 4
    with driver.connect() as second:
        second.apply(MutationBatch([(counter.key, set_blob(near_max))]))
    counter.add_nowait(10)
    path = None
    try:
        deadline = time.monotonic() + 5
        while cache.stats.dead_letters == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert cache.stats.dead_letters == 1
        message = cache.stats.last_error
        path = next(p for p in message.split() if p.endswith(".json:"))[:-1]
        with open(path) as fh:
            rows = json.load(fh)
        assert rows == [
            {
                "key": "nf1@ins1@0@Counter@c",
                "kind": "incr",
                "field": None,
                "value": 10,
            }
        ]
        started = time.monotonic()
        other.insert(b"k", b"v")  # must not wait for the refused batch
        assert time.monotonic() - started < 1.0
        other.insert_nowait(b"k2", b"v2")  # the cadence still delivers
        with driver.connect() as probe:
            deadline = time.monotonic() + 5
            while probe.fetch(other.key) != {b"k": b"v", b"k2": b"v2"}:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert probe.fetch(counter.key) == INT64_MAX - 4
        stats = cache.drain()
        assert stats.dead_letters == 1
        assert stats.last_error == message
    finally:
        if path is not None:
            os.unlink(path)
        driver.close()


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_drain_dead_letters_refused_batch(label, mini_server, monkeypatch):
    # The flusher's first try at incr(10) loses the connection, so drain
    # finds it retained; by then another session has left the counter 5
    # below the int64 limit and the store refuses it. drain must write
    # that batch out, report it, push the next batch and close sessions.
    monkeypatch.setattr(cache_mod, "DRAIN_TIMEOUT_S", 1.0)
    endpoint = mini_server.endpoint if label == "resp" else "local"
    inner = make_driver(label, endpoint)
    rec = RecordingDriver(inner)
    cache = make_cache(rec)
    ctx = StateContext(cache)
    counter = ctx.create_counter("c")
    other = ctx.create_map("m")
    counter.add_nowait(10)
    rec.fail_applies = 1
    cache.flush_now()
    assert cache.flusher.retained_batch is not None
    with inner.connect() as second:
        near_max = INT64_MAX - 4
        second.apply(MutationBatch([(counter.key, set_blob(near_max))]))
    other.insert_nowait(b"k", b"v")
    path = None
    try:
        stats = cache.drain()
        assert stats.dead_letters == 1
        message = stats.last_error
        assert message.startswith("batch dead-lettered to ")
        path = next(p for p in message.split() if p.endswith(".json:"))[:-1]
        with open(path) as fh:
            rows = json.load(fh)
        assert rows == [
            {
                "key": "nf1@ins1@0@Counter@c",
                "kind": "incr",
                "field": None,
                "value": 10,
            }
        ]
        assert stats.drain_mutations == 1  # only the batch that landed
        assert cache.worker_session.closed and cache.flusher_session.closed
        with inner.connect() as probe:
            assert probe.fetch(counter.key) == INT64_MAX - 4
            assert probe.fetch(other.key) == {b"k": b"v"}
    finally:
        if path is not None:
            os.unlink(path)
        inner.close()


@pytest.mark.parametrize("label", ["flatkvs", "tablestore", "resp"])
def test_refused_waiting_call_dead_letters_its_batch(label, mini_server):
    # The waiting add(4) collects the pending +3 with it, and the store,
    # which another session left 5 below the int64 limit, refuses the
    # folded incr(7). That batch, +3 included, is dumped and reported as a
    # refused flush is, and the refusal reaches the caller.
    endpoint = mini_server.endpoint if label == "resp" else "local"
    driver = make_driver(label, endpoint)
    cache = make_cache(driver)
    c = StateContext(cache).create_counter("c")
    c.add_nowait(3)
    with driver.connect() as second:
        second.apply(MutationBatch([(c.key, set_blob(INT64_MAX - 5))]))
    path = None
    try:
        with pytest.raises(Overflow) as info:
            c.add(4)
        stats = cache.stats
        assert (stats.dead_letters, stats.sync_flushes) == (1, 0)
        assert stats.last_error.startswith("batch dead-lettered to ")
        assert stats.last_error.endswith(f": {info.value}")
        path = next(p for p in stats.last_error.split() if p.endswith(".json:"))[:-1]
        with open(path) as fh:
            rows = json.load(fh)
        assert rows == [
            {"key": "nf1@ins1@0@Counter@c", "kind": "incr", "field": None, "value": 7}
        ]
        assert cache.pending_mutations == 0
        with driver.connect() as probe:
            assert probe.fetch(c.key) == INT64_MAX - 5
        assert cache.drain().dead_letters == 1
    finally:
        if path is not None:
            os.unlink(path)
        driver.close()


def _random_nowait_ops(ctx, rng, n, yield_every):
    counter = ctx.create_counter("c")
    m = ctx.create_map("m")
    cm = ctx.create_counter_map("cm")
    lst = ctx.create_list("l")
    s = ctx.create_set("s")
    fields = [b"f%d" % i for i in range(16)]
    ops = [
        lambda: counter.add_nowait(rng.randint(-1000, 1000)),
        lambda: counter.set_nowait(rng.randint(-10**6, 10**6)),
        lambda: counter.delete_nowait(),
        lambda: m.insert_nowait(rng.choice(fields), rng.randbytes(4)),
        lambda: m.remove_nowait(rng.choice(fields)),
        lambda: m.delete_nowait(),
        lambda: cm.add_to_nowait(rng.choice(fields), rng.randint(-500, 500)),
        lambda: cm.insert_nowait(rng.choice(fields), rng.randint(-500, 500)),
        lambda: cm.remove_nowait(rng.choice(fields)),
        lambda: cm.delete_nowait(),
        lambda: lst.push_back_nowait(rng.randbytes(3)),
        lambda: lst.clear_nowait(),
        lambda: s.insert_nowait(rng.choice(fields)),
        lambda: s.remove_nowait(rng.choice(fields)),
    ]
    # Deletes and clears are rarer, so the structures keep some content.
    weights = [8, 2, 1, 8, 3, 1, 8, 2, 3, 1, 6, 1, 6, 4]
    for i, op in enumerate(rng.choices(ops, weights, k=n)):
        op()
        if i % yield_every == 0:
            time.sleep(0)  # let a waiting flusher in
    return counter, m, cm, lst, s


@pytest.mark.parametrize("label", ["flatkvs", "tablestore"])
@pytest.mark.parametrize("seed", [1, 2])
def test_owner_mutations_and_flusher_exclude_each_other(label, seed, monkeypatch):
    # One owner thread folds 20,000 random mutations while the flusher
    # swaps the pending log out every 100 us. The owner gives up the GIL
    # every 20 mutations and the flusher at every mutation it collects, so
    # the owner runs in the middle of swaps: only the cache lock keeps a
    # fold from landing between a structure's collect and its reset, which
    # would lose or double it, or from resizing a pending dict that
    # collect is walking. Counters, name-values and resets are collected
    # through MutationBatch.add; the collections build theirs with _new.
    add = MutationBatch.add
    new = api_mod._new
    built = set()

    def yielding_add(batch, key, mutation):
        add(batch, key, mutation)
        time.sleep(0)

    def yielding_new(cls, fields):
        time.sleep(0)
        built.add(fields[0])
        return new(cls, fields)

    monkeypatch.setattr(MutationBatch, "add", yielding_add)
    monkeypatch.setattr(api_mod, "_new", yielding_new)
    driver = make_driver(label)
    cache = CoreCache("nf1", "ins1", 0, driver, flush_interval_us=100)
    ctx = StateContext(cache)
    handles = []
    errors = []

    def owner():
        try:
            rng = random.Random(seed)
            handles.extend(_random_nowait_ops(ctx, rng, 20_000, yield_every=20))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    thread = threading.Thread(target=owner)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    flusher_alive = cache.flusher._thread.is_alive()
    built_by_flusher = set(built)
    stats = cache.drain()
    assert not errors
    assert flusher_alive
    assert stats.dead_letters == 0
    assert stats.flushes_succeeded >= 2  # the flusher ran alongside the owner
    assert {"map_set", "map_incr", "set_add", "list_append"} <= built_by_flusher
    counter, m, cm, lst, s = handles
    with driver.connect() as probe:
        assert probe.fetch(counter.key) == (counter.read() if counter.exists() else None)
        assert (probe.fetch(m.key) or {}) == m.read_all()
        assert (probe.fetch(cm.key) or {}) == cm.read_all()
        assert (probe.fetch(lst.key) or []) == lst.read_all()
        assert (probe.fetch(s.key) or set()) == s.read_all()


# The flusher parks while idle and keeps to its interval grid.


def test_idle_flusher_runs_no_ticks():
    cache = make_cache(start_flusher=True, flush_interval_us=1000)
    StateContext(cache).create_counter("c")
    time.sleep(0.1)
    assert cache.stats.ticks == 0
    cache.drain()


def test_waiting_calls_alone_never_wake_the_flusher():
    # Each call waits out an injected 100 us round trip, so the 300 calls
    # span at least 30 flush intervals.
    driver = make_driver("flatkvs", inject_latency_us=100)
    cache = make_cache(driver, start_flusher=True, flush_interval_us=1000)
    counter = StateContext(cache).create_counter("c")
    for _ in range(300):
        counter.add(1)
    assert cache.stats.ticks == 0
    stats = cache.drain()
    assert stats.ticks == 0 and stats.sync_flushes == 300
    with driver.connect() as probe:
        assert probe.fetch(counter.key) == 300


def test_nowait_after_idle_reaches_store_within_three_intervals():
    interval_s = 0.02
    driver = make_driver("flatkvs")
    cache = make_cache(
        driver, start_flusher=True, flush_interval_us=int(interval_s * 1e6)
    )
    counter = StateContext(cache).create_counter("c")
    time.sleep(0.05)  # long enough for the flusher to park
    with driver.connect() as probe:
        t0 = time.monotonic()
        counter.add_nowait(7)
        while probe.fetch(counter.key) != 7:
            assert time.monotonic() - t0 < 3 * interval_s
            time.sleep(0.001)
    cache.drain()


@pytest.mark.parametrize("interval_us", [0, -5, True])
def test_flush_interval_that_config_refuses_is_refused(interval_us):
    with pytest.raises(BadDuration):
        make_cache(flush_interval_us=interval_us)


def test_drain_of_parked_flusher_is_prompt():
    cache = make_cache(start_flusher=True, flush_interval_us=1000)
    StateContext(cache).create_counter("c")
    time.sleep(0.02)
    t0 = time.monotonic()
    cache.drain()
    assert time.monotonic() - t0 < 0.05
    assert not cache.flusher._thread


def test_late_tick_is_not_followed_by_empty_catch_up_ticks():
    # The owner keeps the interpreter lock busy for ~20 ms, so the flusher
    # runs only when the interpreter forces a switch and every tick is late.
    # Each tick must find the mutations made since the last one: missed
    # deadlines are skipped, not replayed back to back.
    cache = make_cache(start_flusher=True, flush_interval_us=1000)
    counter = StateContext(cache).create_counter("c")
    end = time.perf_counter() + 0.02
    while time.perf_counter() < end:
        counter.add_nowait(1)
    stats = cache.drain()
    assert stats.empty_ticks == 0, stats
    assert stats.ticks == stats.flushes_succeeded
