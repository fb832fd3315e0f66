"""Every driver must agree with the plain-semantics model store."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    set_del,
)
from flexstate.drivers.base import Mutation
from flexstate.drivers.resp import _GROUP_MAX, _PIPELINE, _encode_batch
from flexstate.errors import Overflow, TypeConflict
from flexstate.keys import StructureType, build_key
from flexstate.limits import INT64_MAX, INT64_MIN
from flexstate.testing import ModelStore, random_population, random_sequence

KEYS = [
    build_key("nf1", "ins1", core, stype, sid)
    for core in (0, 1)
    for stype in StructureType
    for sid in ("a", "b")
]

FIELDS = [b"f1", b"f2", b"f3"]
MEMBERS = [b"m1", b"m2"]
BLOBS = [b"", b"x", b"longer-value", b"\x00\xff"]


def mutations_for(key):
    stype = key.structure_type
    if stype is StructureType.COUNTER:
        return st.one_of(
            st.integers(-100, 100).map(lambda n: Mutation("incr", None, n)),
            st.integers(-100, 100).map(lambda n: Mutation("set_blob", None, n)),
            st.just(Mutation("delete")),
        )
    if stype is StructureType.NAME_VALUE:
        return st.one_of(
            st.sampled_from(BLOBS).map(lambda b: Mutation("set_blob", None, b)),
            st.just(Mutation("delete")),
        )
    if stype is StructureType.MAP:
        return st.one_of(
            st.tuples(st.sampled_from(FIELDS), st.sampled_from(BLOBS)).map(
                lambda fv: Mutation("map_set", fv[0], fv[1])
            ),
            st.sampled_from(FIELDS).map(lambda f: Mutation("map_del", f)),
            st.just(Mutation("delete")),
        )
    if stype is StructureType.COUNTER_MAP:
        return st.one_of(
            st.tuples(st.sampled_from(FIELDS), st.integers(-50, 50)).map(
                lambda fn: Mutation("map_incr", fn[0], fn[1])
            ),
            st.tuples(st.sampled_from(FIELDS), st.integers(-50, 50)).map(
                lambda fn: Mutation("map_set", fn[0], fn[1])
            ),
            st.sampled_from(FIELDS).map(lambda f: Mutation("map_del", f)),
            st.just(Mutation("delete")),
        )
    if stype is StructureType.LIST:
        return st.one_of(
            st.sampled_from(BLOBS).map(lambda b: Mutation("list_append", None, b)),
            st.just(Mutation("delete")),
        )
    return st.one_of(
        st.sampled_from(MEMBERS).map(lambda m: Mutation("set_add", None, m)),
        st.sampled_from(MEMBERS).map(lambda m: Mutation("set_del", None, m)),
        st.just(Mutation("delete")),
    )


ops = st.sampled_from(KEYS).flatmap(
    lambda key: mutations_for(key).map(lambda m: (key, m))
)


def snapshot_driver(driver, keys):
    with driver.connect() as s:
        return {key: s.fetch(key) for key in keys}


def snapshot_model(model, keys):
    return {key: model.fetch(key) for key in keys}


@settings(max_examples=80, deadline=None)
@given(st.lists(ops, min_size=1, max_size=120), st.randoms())
def test_drivers_match_model(sequence, rnd):
    model = ModelStore()
    drivers = [make_driver("flatkvs"), make_driver("tablestore")]
    sessions = [d.connect() for d in drivers]

    i = 0
    while i < len(sequence):
        size = rnd.randint(1, 10)
        chunk = sequence[i : i + size]
        i += size
        for key, m in chunk:
            model.apply_mutation(key, m)
        for s in sessions:
            s.apply(MutationBatch(list(chunk)))

    expect = snapshot_model(model, KEYS)
    for d, s in zip(drivers, sessions):
        got = {key: s.fetch(key) for key in KEYS}
        assert got == expect, f"driver {d.label} diverged"
        assert s.scan_prefix("nf1", "ins1") == model.scan_prefix("nf1", "ins1")
        s.close()


B_COUNTER = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
B_CMAP = build_key("nf1", "ins1", 0, StructureType.COUNTER_MAP, "cm")
B_KEYS = [B_COUNTER, B_CMAP]

# Values within 1000 of either end of the signed 64-bit range, and deltas
# small enough to cross an end from there or large enough to cross from
# the other end.
near_edge = st.one_of(
    st.integers(INT64_MIN, INT64_MIN + 1000), st.integers(INT64_MAX - 1000, INT64_MAX)
)
deltas = st.one_of(st.integers(-2000, 2000), near_edge)

boundary_ops = st.one_of(
    deltas.map(lambda n: (B_COUNTER, incr(n))),
    near_edge.map(lambda v: (B_COUNTER, Mutation("set_blob", None, v))),
    st.just((B_COUNTER, delete())),
    st.tuples(st.sampled_from(FIELDS), deltas).map(lambda fn: (B_CMAP, map_incr(*fn))),
    st.tuples(st.sampled_from(FIELDS), near_edge).map(lambda fv: (B_CMAP, map_set(*fv))),
    st.sampled_from(FIELDS).map(lambda f: (B_CMAP, map_del(f))),
    st.just((B_CMAP, delete())),
)


@pytest.mark.parametrize("label", ["flatkvs", "tablestore"])
@settings(max_examples=150, deadline=None)
@given(
    seed=st.tuples(near_edge, st.lists(near_edge, min_size=len(FIELDS), max_size=len(FIELDS))),
    batches=st.lists(st.lists(boundary_ops, min_size=1, max_size=8), min_size=1, max_size=12),
)
def test_boundary_batches_match_model_or_leave_store_unchanged(label, seed, batches):
    # Each batch either lands whole and matches the model, or raises the
    # model's error and leaves the store as it was before the batch.
    counter, fields = seed
    seed_items = [(B_COUNTER, Mutation("set_blob", None, counter))]
    seed_items += [(B_CMAP, map_set(f, v)) for f, v in zip(FIELDS, fields)]
    model = ModelStore()
    for key, m in seed_items:
        model.apply_mutation(key, m)
    with make_driver(label).connect() as s:
        s.apply(MutationBatch(seed_items))
        for items in batches:
            after = copy.deepcopy(model)
            error = None
            try:
                for key, m in items:
                    after.apply_mutation(key, m)
            except (Overflow, TypeConflict) as exc:
                error = type(exc)
            if error is None:
                s.apply(MutationBatch(list(items)))
                model = after
            else:
                with pytest.raises(error):
                    s.apply(MutationBatch(list(items)))
            assert {key: s.fetch(key) for key in B_KEYS} == snapshot_model(model, B_KEYS)


def test_four_way_agreement_seeded(mini_server):
    # Deterministic mixed workload across all four routes, including the
    # wire protocol round trip.
    rng = random.Random(20260814)
    keys = random_population(rng, cores=2, per_core_per_type=2)
    sequence = random_sequence(rng, keys, 3000)

    model = ModelStore()
    drivers = [
        make_driver("flatkvs"),
        make_driver("tablestore"),
        make_driver("resp", mini_server.endpoint),
    ]
    sessions = [d.connect() for d in drivers]

    for start in range(0, len(sequence), 20):
        chunk = sequence[start : start + 20]
        for key, m in chunk:
            model.apply_mutation(key, m)
        for s in sessions:
            s.apply(MutationBatch(list(chunk)))

    expect = snapshot_model(model, keys)
    expect_scan = model.scan_prefix("nf1", "ins1")
    for d, s in zip(drivers, sessions):
        got = {key: s.fetch(key) for key in keys}
        assert got == expect, f"driver {d.label} diverged"
        assert s.scan_prefix("nf1", "ins1") == expect_scan
        s.close()


G_MAP = build_key("nf1", "ins1", 0, StructureType.MAP, "m")
G_CMAP = build_key("nf1", "ins1", 0, StructureType.COUNTER_MAP, "cm")
G_SET = build_key("nf1", "ins1", 0, StructureType.SET, "s")
G_LIST = build_key("nf1", "ins1", 0, StructureType.LIST, "l")
G_COUNTER = build_key("nf1", "ins1", 1, StructureType.COUNTER, "c")
G_KEYS = [G_MAP, G_CMAP, G_SET, G_LIST, G_COUNTER]

# What the store holds before the grouped flush: the map drop must remove
# something, and the removes must hit fields that exist.
GROUPED_SEED = [(G_MAP, map_set(b"old%d" % i, b"o")) for i in range(40)] + [
    (G_SET, set_add(b"m%d" % i)) for i in range(0, 300, 3)
]


def grouped_flush():
    """One flush mixing every grouped kind with single-command kinds.

    Runs are longer than _GROUP_MAX, and the command count is more than
    one pipeline chunk.
    """
    n = _GROUP_MAX + 50
    items = [(G_MAP, delete())]
    items += [(G_MAP, map_set(b"f%d" % i, b"v%d" % i)) for i in range(n)]
    items += [(G_MAP, map_del(b"f%d" % i)) for i in range(0, n, 2)]
    items += [(G_MAP, map_set(b"f0", b"again"))]
    items += [(G_SET, set_add(b"m%d" % i)) for i in range(300)]
    items += [(G_SET, set_del(b"m%d" % i)) for i in range(0, 300, 5)]
    for i in range(2 * _PIPELINE):
        items.append((G_LIST, list_append(b"e%d" % i)))
        if i % 3 == 0:
            items.append((G_SET, set_add(b"x%d" % i)))
            items.append((G_SET, set_del(b"m%d" % i)))
    items += [(G_CMAP, map_set(b"k%d" % (i % 300), i - 150)) for i in range(n)]
    items += [(G_CMAP, map_incr(b"k%d" % (i % 7), 2)) for i in range(100)]
    items += [(G_COUNTER, incr(i)) for i in range(50)]
    return items


def model_after(*batches):
    model = ModelStore()
    for items in batches:
        for key, m in items:
            model.apply_mutation(key, m)
    return snapshot_model(model, G_KEYS), model.scan_prefix("nf1", "ins1")


def test_grouped_flush_matches_model(mini_server):
    items = grouped_flush()
    assert len(_encode_batch(items)[0]) > _PIPELINE
    expect, expect_scan = model_after(GROUPED_SEED, items)
    drivers = [
        make_driver("flatkvs"),
        make_driver("tablestore"),
        make_driver("resp", mini_server.endpoint),
    ]
    for d in drivers:
        with d.connect() as s:
            s.apply(MutationBatch(list(GROUPED_SEED)))
            s.apply(MutationBatch(items))
            assert {key: s.fetch(key) for key in G_KEYS} == expect, d.label
            assert s.scan_prefix("nf1", "ins1") == expect_scan, d.label


def test_grouped_flush_resumes_at_acked_command(mini_server):
    # A previous attempt got replies for the first k commands, then lost
    # the link: those commands are applied and their mutations trimmed off
    # the batch. The retry must finish the batch from there.
    items = grouped_flush()
    commands, starts = _encode_batch(items)
    expect, expect_scan = model_after(GROUPED_SEED, items)
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        for k in (1, 2, 5, _PIPELINE - 1, _PIPELINE + 3, len(commands) - 1):
            drv.wipe(s)
            s.apply(MutationBatch(list(GROUPED_SEED)))
            batch = MutationBatch(list(items))
            s.exchange(commands[:k])
            del batch.items[: starts[k]]
            s.apply(batch)
            assert {key: s.fetch(key) for key in G_KEYS} == expect, k
            assert s.scan_prefix("nf1", "ins1") == expect_scan, k


def test_model_empty_collections_read_none():
    model = ModelStore()
    key = build_key("nf1", "ins1", 0, StructureType.MAP, "m")
    model.apply_mutation(key, Mutation("map_set", b"f", b"v"))
    model.apply_mutation(key, Mutation("map_del", b"f"))
    assert model.fetch(key) is None


def test_model_countermap_zero_is_present():
    model = ModelStore()
    key = build_key("nf1", "ins1", 0, StructureType.COUNTER_MAP, "cm")
    model.apply_mutation(key, Mutation("map_incr", b"f", 3))
    model.apply_mutation(key, Mutation("map_incr", b"f", -3))
    assert model.fetch(key) == {b"f": 0}
