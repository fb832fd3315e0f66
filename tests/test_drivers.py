"""Driver contract: translation shapes, snapshots, batching, retries."""

import base64
import json
import math
import os
import random
import socket
import struct
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from flexstate.drivers import (
    MutationBatch,
    delete,
    from_config,
    incr,
    known_labels,
    list_append,
    make_driver,
    map_del,
    map_incr,
    map_set,
    set_add,
    set_blob,
    set_del,
)
from flexstate.api import StateContext
import flexstate.cache as cache_mod
from flexstate.cache import RETRY_BASE_S
from flexstate.config import FlexConfig
from flexstate.drivers.base import UNSET_SEQ, Mutation
import flexstate.drivers.resp as resp_mod
from flexstate.drivers.resp import _GROUP_MAX, _encode_batch
from flexstate.errors import (
    ConfigSyntaxError,
    ConnectionLost,
    Overflow,
    ProtocolError,
    StateError,
    StoreUnavailable,
    TypeConflict,
    UnknownDriver,
)
from flexstate.keys import StructureType, build_key
from flexstate.limits import INT64_MAX, INT64_MIN
from flexstate.nf.combine import combine_counters
from flexstate.resp import protocol
import flexstate.resp.server as server_mod
from flexstate.resp.server import MiniRespServer
from flexstate.testing import (
    ModelStore,
    RecordingDriver,
    random_population,
    random_sequence,
)
from manual_flush import manual_cache

K_COUNTER = build_key("nf1", "ins1", 1, StructureType.COUNTER, "counter_id")
K_NV = build_key("nf1", "ins1", 1, StructureType.NAME_VALUE, "N")
K_MAP = build_key("nf1", "ins1", 1, StructureType.MAP, "M")
K_CMAP = build_key("nf1", "ins1", 1, StructureType.COUNTER_MAP, "cm")
K_LIST = build_key("nf1", "ins1", 1, StructureType.LIST, "L")
K_SET = build_key("nf1", "ins1", 1, StructureType.SET, "S")

ALL_TYPES_BATCH = [
    (K_COUNTER, set_blob(10)),
    (K_COUNTER, incr(-4)),
    (K_NV, set_blob(b"blob")),
    (K_MAP, map_set(b"k", b"v")),
    (K_CMAP, map_set(b"f", 7)),
    (K_CMAP, map_incr(b"f", -7)),
    (K_LIST, list_append(b"a")),
    (K_LIST, list_append(b"b")),
    (K_SET, set_add(b"m")),
]


def apply_items(session, items):
    batch = MutationBatch(list(items))
    session.apply(batch)
    return batch


@pytest.fixture(params=["flatkvs", "tablestore", "resp"])
def driver(request, mini_server):
    if request.param == "resp":
        drv = make_driver("resp", mini_server.endpoint)
    else:
        drv = make_driver(request.param)
    yield drv
    drv.close()


def test_fetch_snapshots_all_types(driver):
    with driver.connect() as s:
        apply_items(s, ALL_TYPES_BATCH)
        assert s.fetch(K_COUNTER) == 6
        assert s.fetch(K_NV) == b"blob"
        assert s.fetch(K_MAP) == {b"k": b"v"}
        assert s.fetch(K_CMAP) == {b"f": 0}  # zero is present, not absent
        assert s.fetch(K_LIST) == [b"a", b"b"]
        assert s.fetch(K_SET) == {b"m"}


def test_absent_reads_none(driver):
    with driver.connect() as s:
        for key in (K_COUNTER, K_NV, K_MAP, K_CMAP, K_LIST, K_SET):
            assert s.fetch(key) is None


def test_emptied_collections_read_none(driver):
    with driver.connect() as s:
        apply_items(s, ALL_TYPES_BATCH)
        apply_items(
            s,
            [
                (K_MAP, map_del(b"k")),
                (K_CMAP, map_del(b"f")),
                (K_LIST, delete()),
                (K_SET, set_del(b"m")),
                (K_NV, delete()),
                (K_COUNTER, delete()),
            ],
        )
        for key in (K_COUNTER, K_NV, K_MAP, K_CMAP, K_LIST, K_SET):
            assert s.fetch(key) is None


def test_counter_delete_then_incr_restarts_at_zero(driver):
    with driver.connect() as s:
        apply_items(s, [(K_COUNTER, incr(9)), (K_COUNTER, delete()), (K_COUNTER, incr(5))])
        assert s.fetch(K_COUNTER) == 5


def test_map_set_overwrites(driver):
    with driver.connect() as s:
        apply_items(s, [(K_MAP, map_set(b"k", b"v1")), (K_MAP, map_set(b"k", b"v2"))])
        assert s.fetch(K_MAP) == {b"k": b"v2"}


def test_list_clear_then_append(driver):
    with driver.connect() as s:
        apply_items(s, [(K_LIST, list_append(b"old"))])
        apply_items(s, [(K_LIST, delete()), (K_LIST, list_append(b"new"))])
        assert s.fetch(K_LIST) == [b"new"]


@pytest.mark.parametrize("kind", ["list_clear", "bogus"])
def test_unknown_mutation_kind_refused(driver, kind):
    with driver.connect() as s, pytest.raises(StateError):
        apply_items(s, [(K_LIST, Mutation(kind))])
    with pytest.raises(StateError):
        ModelStore().apply_mutation(K_LIST, Mutation(kind))


@pytest.mark.parametrize("kind", ["list_clear", "bogus"])
def test_resp_refuses_unknown_kind_before_sending(mini_server, kind):
    driver = make_driver("resp", mini_server.endpoint)
    with driver.connect() as s, pytest.raises(StateError):
        apply_items(s, [(K_NV, set_blob(b"v")), (K_LIST, Mutation(kind))])
    driver.close()
    assert mini_server._db == {}  # not even the valid mutation before it


@pytest.mark.parametrize("label", ["flatkvs", "tablestore"])
def test_local_store_refuses_unknown_kind_before_applying(label):
    driver = make_driver(label)
    items = [(K_NV, set_blob(b"v")), (K_LIST, Mutation("bogus"))]
    with driver.connect() as s:
        for _ in range(2):  # a retry is refused whole again
            with pytest.raises(TypeConflict, match="unknown mutation kind 'bogus'"):
                apply_items(s, items)
            assert s.fetch(K_NV) is None


def test_scan_prefix_sorted_and_scoped(driver):
    other = build_key("nf2", "ins1", 0, StructureType.COUNTER, "c")
    with driver.connect() as s:
        apply_items(s, ALL_TYPES_BATCH + [(other, incr(1))])
        got = s.scan_prefix("nf1", "ins1")
        rendered = [key.render() for key, _ in got]
        assert rendered == sorted(rendered)
        assert all(r.startswith("nf1@ins1@") for r in rendered)
        assert len(got) == 6
        by_key = {key: value for key, value in got}
        assert by_key[K_COUNTER] == 6
        assert by_key[K_SET] == {b"m"}


def test_non_numeric_counter_value_is_type_conflict(driver):
    # In-process stores reject the write during validation; string stores
    # accept the SET and reject the arithmetic. Either way nothing corrupts.
    with pytest.raises(TypeConflict):
        with driver.connect() as s:
            apply_items(s, [(K_COUNTER, set_blob(b"abc"))])
            apply_items(s, [(K_COUNTER, incr(1))])


def test_counter_overflow_rejected(driver):
    with driver.connect() as s:
        apply_items(s, [(K_COUNTER, set_blob(2**63 - 1))])
        with pytest.raises(Overflow):
            apply_items(s, [(K_COUNTER, incr(1))])
        assert s.fetch(K_COUNTER) == 2**63 - 1


@pytest.mark.parametrize("reset", [delete(), map_del(b"f")], ids=["delete", "map_del"])
def test_reset_counter_map_field_restarts_at_zero(driver, reset):
    # A field dropped earlier in the batch must not keep its stored value
    # for the range check: MAX, reset, +1 is 1, not an overflow.
    items = [(K_CMAP, reset), (K_CMAP, map_incr(b"f", 1))]
    model = ModelStore()
    model.apply_mutation(K_CMAP, map_set(b"f", 2**63 - 1))
    for key, m in items:
        model.apply_mutation(key, m)
    with driver.connect() as s:
        apply_items(s, [(K_CMAP, map_set(b"f", 2**63 - 1))])
        apply_items(s, items)
        assert s.fetch(K_CMAP) == model.fetch(K_CMAP) == {b"f": 1}


def test_scan_prefix_treats_glob_characters_literally(driver):
    # Instance ids may contain glob metacharacters; a scan of one instance
    # must not pick up another whose name the unescaped pattern matches.
    values = {
        "nf?": 1,
        "nfA": 5,
        "nf*": 7,
        "nfAB": 11,
        "nf[A]": 13,
        "nf[": 17,
        "nf\\": 19,
    }
    with driver.connect() as s:
        apply_items(
            s,
            [
                (build_key("x", inst, 0, StructureType.COUNTER, "c"), incr(n))
                for inst, n in values.items()
            ],
        )
        for inst, n in values.items():
            assert combine_counters(s, "x", inst, "c") == n, inst
            assert [k.instance_id for k, _ in s.scan_prefix("x", inst)] == [inst]


def test_wipe(driver):
    with driver.connect() as s:
        apply_items(s, ALL_TYPES_BATCH)
        driver.wipe(s)
        assert s.scan_prefix("nf1", "ins1") == []


def test_seq_stamped_once_and_preserved(driver):
    with driver.connect() as s:
        batch = MutationBatch([(K_COUNTER, incr(1))])
        assert batch.seq == UNSET_SEQ
        s.apply(batch)
        first = batch.seq
        assert first > 0
        s.apply(batch)  # retry of the same batch keeps its stamp
        assert batch.seq == first
        fresh = apply_items(s, [(K_COUNTER, incr(1))])
        assert fresh.seq > first


def test_closed_session_rejected(driver):
    with driver.connect() as probe:
        apply_items(probe, [(K_COUNTER, incr(1))])
    s = driver.connect()
    s.close()
    with pytest.raises(ConnectionLost):
        s.fetch(K_COUNTER)
    with pytest.raises(ConnectionLost):
        s.apply(MutationBatch([(K_COUNTER, incr(1))]))
    with pytest.raises(ConnectionLost):
        s.scan_prefix("nf1", "ins1")
    with pytest.raises(ConnectionLost):
        driver.wipe(s)
    with driver.connect() as probe:  # neither the apply nor the wipe landed
        assert probe.fetch(K_COUNTER) == 1


def test_session_ids_distinct(driver):
    a = driver.connect()
    b = driver.connect()
    assert a.session_id != b.session_id
    a.close()
    b.close()


# In-process stores track per-session sequence numbers, which turns flusher
# retries into exact-once application.
@pytest.fixture(params=["flatkvs", "tablestore"])
def local_driver(request):
    return make_driver(request.param)


def test_retry_of_applied_batch_is_noop(local_driver):
    with local_driver.connect() as s:
        batch = apply_items(s, [(K_COUNTER, incr(5))])
        s.apply(batch)
        s.apply(batch)
        assert s.fetch(K_COUNTER) == 5


def test_batch_is_atomic_under_validation_failure(local_driver):
    with local_driver.connect() as s:
        apply_items(s, [(K_COUNTER, set_blob(2**63 - 2))])
        bad = MutationBatch(
            [
                (K_NV, set_blob(b"should-not-land")),
                (K_COUNTER, incr(5)),  # overflows during validation
            ]
        )
        with pytest.raises(Overflow):
            s.apply(bad)
        assert s.fetch(K_NV) is None
        assert s.fetch(K_COUNTER) == 2**63 - 2


def test_validation_tracks_values_within_batch(local_driver):
    # set(MAX) then incr(-1) then incr(1) stays in range the whole way.
    with local_driver.connect() as s:
        apply_items(
            s,
            [
                (K_COUNTER, set_blob(2**63 - 1)),
                (K_COUNTER, incr(-1)),
                (K_COUNTER, incr(1)),
            ],
        )
        assert s.fetch(K_COUNTER) == 2**63 - 1


def test_flat_physical_layout():
    drv = make_driver("flatkvs")
    with drv.connect() as s:
        apply_items(s, ALL_TYPES_BATCH)
    assert drv.dump() == {
        "nf1@ins1@1@Counter@counter_id": b"6",
        "nf1@ins1@1@Namevalue@N": b"blob",
        "nf1@ins1@1@Map@M": {b"k": b"v"},
        "nf1@ins1@1@Countermap@cm": {b"f": b"0"},
        "nf1@ins1@1@List@L": [b"a", b"b"],
        "nf1@ins1@1@Set@S": {b"m"},
    }


def test_table_physical_layout():
    drv = make_driver("tablestore")
    with drv.connect() as s:
        apply_items(s, ALL_TYPES_BATCH)
    assert drv.dump() == {
        "nf1@ins1@1": {
            "Counter": {"counter_id": 6},
            "Namevalue": {"N": b"blob"},
            "Map": {"M": {b"k": b"v"}},
            "Countermap": {"cm": {b"f": 0}},
            "List": {"L": {0: b"a", 1: b"b"}},
            "Set": {"S": {b"m": b""}},
        }
    }


def test_table_keyspace_per_core():
    drv = make_driver("tablestore")
    other_core = build_key("nf1", "ins1", 2, StructureType.COUNTER, "c")
    with drv.connect() as s:
        apply_items(s, [(K_COUNTER, incr(1)), (other_core, incr(2))])
    assert set(drv.dump()) == {"nf1@ins1@1", "nf1@ins1@2"}


# Python type of each flatkvs value, by the type token in its key.
FLAT_SHAPES = {
    "Namevalue": bytes,
    "Counter": bytes,
    "Map": dict,
    "Countermap": dict,
    "List": list,
    "Set": set,
}


def random_dumps(label, seed):
    """dump() after each of 120 random 25-mutation batches."""
    rng = random.Random(seed)
    keys = random_population(rng, cores=2, per_core_per_type=2)
    sequence = random_sequence(rng, keys, 3000)
    drv = make_driver(label)
    with drv.connect() as s:
        for start in range(0, len(sequence), 25):
            apply_items(s, sequence[start : start + 25])
            yield drv.dump()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flat_layout_after_random_batches(seed):
    # Emptied collections disappear, and each value has its type's shape.
    for layout in random_dumps("flatkvs", seed):
        for name, value in layout.items():
            token = name.split("@")[3]
            assert type(value) is FLAT_SHAPES[token], name
            if token == "Counter":
                int(value)  # ASCII decimal
            elif token != "Namevalue":
                assert value, name
            if token == "Countermap":
                for raw in value.values():
                    assert type(raw) is bytes
                    int(raw)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_layout_after_random_batches(seed):
    # Emptied rows, tables and keyspaces disappear; values keep their shape.
    for layout in random_dumps("tablestore", seed):
        for ks_name, tables in layout.items():
            assert tables, ks_name
            for token, table in tables.items():
                assert table, (ks_name, token)
                for key1, row in table.items():
                    if token == "Counter":
                        assert type(row) is int
                    elif token == "Namevalue":
                        assert type(row) is bytes
                    else:
                        assert type(row) is dict and row, (ks_name, token, key1)
                    if token == "Countermap":
                        assert all(type(v) is int for v in row.values())
                    elif token == "List":
                        assert list(row) == list(range(len(row)))


def enc(key, m):
    return _encode_batch([(key, m)])[0][0]


def test_resp_wire_translation_frozen():
    assert enc(K_COUNTER, incr(5)) == (
        b"*3\r\n$6\r\nINCRBY\r\n$29\r\nnf1@ins1@1@Counter@counter_id\r\n$1\r\n5\r\n"
    )
    assert enc(K_COUNTER, set_blob(b"10")) == (
        b"*3\r\n$3\r\nSET\r\n$29\r\nnf1@ins1@1@Counter@counter_id\r\n$2\r\n10\r\n"
    )
    assert enc(K_MAP, map_set(b"f", b"v")) == (
        b"*4\r\n$4\r\nHSET\r\n$16\r\nnf1@ins1@1@Map@M\r\n$1\r\nf\r\n$1\r\nv\r\n"
    )
    assert enc(K_CMAP, map_incr(b"f", -2)) == (
        b"*4\r\n$7\r\nHINCRBY\r\n$24\r\nnf1@ins1@1@Countermap@cm\r\n$1\r\nf\r\n$2\r\n-2\r\n"
    )
    assert enc(K_CMAP, map_set(b"f", 7)) == (
        b"*4\r\n$4\r\nHSET\r\n$24\r\nnf1@ins1@1@Countermap@cm\r\n$1\r\nf\r\n$1\r\n7\r\n"
    )
    assert enc(K_LIST, list_append(b"x")) == (
        b"*3\r\n$5\r\nRPUSH\r\n$17\r\nnf1@ins1@1@List@L\r\n$1\r\nx\r\n"
    )
    assert enc(K_LIST, delete()) == b"*2\r\n$3\r\nDEL\r\n$17\r\nnf1@ins1@1@List@L\r\n"
    assert enc(K_SET, set_add(b"m")) == (
        b"*3\r\n$4\r\nSADD\r\n$16\r\nnf1@ins1@1@Set@S\r\n$1\r\nm\r\n"
    )
    assert enc(K_SET, set_del(b"m")) == (
        b"*3\r\n$4\r\nSREM\r\n$16\r\nnf1@ins1@1@Set@S\r\n$1\r\nm\r\n"
    )
    assert enc(K_NV, delete()) == b"*2\r\n$3\r\nDEL\r\n$22\r\nnf1@ins1@1@Namevalue@N\r\n"
    assert enc(K_MAP, map_del(b"f")) == (
        b"*3\r\n$4\r\nHDEL\r\n$16\r\nnf1@ins1@1@Map@M\r\n$1\r\nf\r\n"
    )


def test_resp_reconnects_after_dropped_link(mini_server):
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        apply_items(s, [(K_COUNTER, incr(3))])
        mini_server.drop_connections()
        time.sleep(0.05)
        # First call after the drop fails; the session reconnects lazily.
        with pytest.raises(ConnectionLost):
            s.fetch(K_COUNTER)
        assert s.fetch(K_COUNTER) == 3
        assert s.reconnects >= 1


def test_resp_retry_resumes_at_reply_count(mini_server):
    # Retries replay only the commands the store never answered. Trim the
    # batch as a previous attempt that lost the link after 4 replies did.
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        batch = MutationBatch([(K_COUNTER, incr(1)) for _ in range(10)])
        del batch.items[: _encode_batch(batch.items)[1][4]]
        s.apply(batch)
        assert s.fetch(K_COUNTER) == 6


def test_resp_error_reply_leaves_session_in_step(mini_server):
    # The failing INCRBY is followed by a SET in the same pipelined chunk;
    # its reply must be consumed before the error surfaces, or the next
    # fetch on the session reads it instead of its own.
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        apply_items(s, [(K_COUNTER, set_blob(b"abc"))])
        with pytest.raises(TypeConflict):
            apply_items(s, [(K_COUNTER, incr(1)), (K_NV, set_blob(b"x"))])
        assert s.fetch(K_NV) == b"x"
        assert s.reconnects == 1


def test_resp_store_error_leaves_batch_whole(mini_server):
    # A batch the store refused is finished, and dead-lettered whole; only
    # a lost link trims what the store answered.
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        apply_items(s, [(K_COUNTER, set_blob(b"abc"))])
        items = [(K_NV, set_blob(b"x")), (K_COUNTER, incr(1)), (K_NV, set_blob(b"y"))]
        batch = MutationBatch(list(items))
        for _ in range(3):
            with pytest.raises(TypeConflict):
                s.apply(batch)
            assert batch.items == items
        assert s.fetch(K_NV) == b"y"


def test_resp_foreign_non_integer_counter_values_are_type_conflict(mini_server):
    # Another client left a non-integer where a counter lives: fetch raises
    # TypeConflict, as the in-process stores do, for a Counter and for a
    # CounterMap field alike.
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        rendered = K_CMAP.render().encode("ascii")
        s.exchange([protocol.encode_command(b"HSET", rendered, b"f", b"abc")])
        apply_items(s, [(K_COUNTER, set_blob(b"abc"))])
        with pytest.raises(TypeConflict):
            s.fetch(K_CMAP)
        with pytest.raises(TypeConflict):
            s.fetch(K_COUNTER)


def test_resp_wrongtype_reply_raises_and_leaves_session_in_step(mini_server):
    # Another client wrote a string where a Map lives. fetch and scan both
    # meet the WRONGTYPE reply as TypeConflict; the scan's pipelined chunk
    # is read to its end first, so the next fetch reads its own reply.
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as foreign, drv.connect() as s:
        rendered = K_MAP.render().encode("ascii")
        foreign.exchange([protocol.encode_command(b"SET", rendered, b"x")])
        apply_items(s, [(K_NV, set_blob(b"v"))])
        with pytest.raises(TypeConflict):
            s.fetch(K_MAP)
        with pytest.raises(TypeConflict):
            s.scan_prefix("nf1", "ins1")
        assert s.fetch(K_NV) == b"v"
        assert s.reconnects == 1


@pytest.mark.parametrize("structure_id", [b"a b", b"\xff"])
def test_resp_scan_refuses_a_foreign_key_outside_the_grammar(mini_server, structure_id):
    # Another client wrote a key that render cannot produce, ASCII or not:
    # the scan refuses it with a StateError.
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as foreign, drv.connect() as s:
        key = b"nf1@ins1@0@Counter@" + structure_id
        foreign.exchange([protocol.encode_command(b"SET", key, b"1")])
        with pytest.raises(StateError):
            s.scan_prefix("nf1", "ins1")


class CountingRespServer(MiniRespServer):
    def __init__(self):
        super().__init__()
        self.commands: list[bytes] = []

    def _dispatch(self, command):
        self.commands.append(command[0].upper())
        return super()._dispatch(command)


def test_resp_map_flush_groups_fields_per_command():
    n = 2000
    with CountingRespServer() as server:
        drv = make_driver("resp", server.endpoint)
        with drv.connect() as s:
            apply_items(s, [(K_MAP, map_set(b"f%d" % i, b"v")) for i in range(n)])
            sent = len(server.commands)
            apply_items(s, [(K_MAP, map_del(b"f%d" % i)) for i in range(n)])
            assert s.fetch(K_MAP) is None
    assert sent <= math.ceil(n / _GROUP_MAX)
    assert len(server.commands) <= 2 * math.ceil(n / _GROUP_MAX) + 1


def test_resp_driver_sends_every_command_the_server_knows():
    # The bundled server carries exactly the commands the driver sends:
    # all nine mutation kinds, a fetch of each type, a scan and a wipe.
    k_gone = build_key("nf1", "ins1", 1, StructureType.NAME_VALUE, "gone")
    items = [
        (K_NV, set_blob(b"v")),
        (k_gone, delete()),
        (K_COUNTER, incr(3)),
        (K_MAP, map_set(b"a", b"1")),
        (K_MAP, map_del(b"b")),
        (K_CMAP, map_incr(b"f", 2)),
        (K_LIST, list_append(b"x")),
        (K_SET, set_add(b"m")),
        (K_SET, set_del(b"n")),
    ]
    assert {m.kind for _, m in items} == set(resp_mod._COMMANDS)
    with CountingRespServer() as server:
        drv = make_driver("resp", server.endpoint)
        with drv.connect() as s:
            apply_items(s, items)
            for key in (K_NV, K_COUNTER, K_MAP, K_CMAP, K_LIST, K_SET):
                assert s.fetch(key) is not None
            assert len(s.scan_prefix("nf1", "ins1")) == 6
            drv.wipe(s)
    assert set(server.commands) == set(server_mod._COMMANDS)


def waiting_cache(server):
    cache = manual_cache("nf1", "ins1", 0, make_driver("resp", server.endpoint))
    return cache, StateContext(cache)


def test_resp_waiting_call_dispatches_one_command():
    with CountingRespServer() as server:
        cache, ctx = waiting_cache(server)
        counter = ctx.create_counter("c")
        table = ctx.create_map("m")
        hits = ctx.create_counter_map("cm")
        members = ctx.create_set("s")
        items = ctx.create_list("l")
        calls = [
            (lambda: counter.add(2), b"INCRBY"),
            (lambda: counter.set(7), b"SET"),
            (lambda: table.insert(b"k", b"v"), b"HSET"),
            (lambda: table.remove(b"k"), b"HDEL"),
            (lambda: hits.add_to(b"f", 1), b"HINCRBY"),
            (lambda: members.insert(b"x"), b"SADD"),
            (lambda: members.remove(b"x"), b"SREM"),
            (lambda: items.push_back(b"x"), b"RPUSH"),
            (lambda: counter.delete(), b"DEL"),
        ]
        for call, name in calls:
            before = len(server.commands)
            call()
            assert server.commands[before:] == [name]
        assert cache.worker_session.reconnects == 1
        cache.drain()


def test_resp_refused_waiting_call_keeps_the_session():
    # A store refusal is a whole reply: the link stays on a frame boundary
    # and the next waiting call goes out on it.
    with CountingRespServer() as server:
        cache, ctx = waiting_cache(server)
        counter = ctx.create_counter("c")
        table = ctx.create_map("m")
        with make_driver("resp", server.endpoint).connect() as foreign:
            foreign.exchange([protocol.encode_command(b"SET", counter.key.encoded, b"abc")])
        with pytest.raises(TypeConflict):
            counter.add(1)
        stats = cache.stats
        os.unlink(next(p for p in stats.last_error.split() if p.endswith(".json:"))[:-1])
        assert stats.dead_letters == 1
        assert server.commands[-1] == b"INCRBY"
        table.insert(b"k", b"v")
        assert server.commands[-1] == b"HSET"
        assert cache.worker_session.reconnects == 1
        assert server._db[table.key.encoded] == {b"k": b"v"}
        assert cache.stats.sync_flushes == 1
        cache.drain()


def test_resp_refused_waiting_call_dead_letters_the_folded_nowait_insert():
    # A foreign SET leaves a string at the Map's key, so the store refuses
    # the waiting insert's HSET, which carries the earlier insert_nowait.
    with CountingRespServer() as server:
        cache, ctx = waiting_cache(server)
        table = ctx.create_map("m")
        table.insert_nowait(b"a", b"1")
        with make_driver("resp", server.endpoint).connect() as foreign:
            foreign.exchange([protocol.encode_command(b"SET", table.key.encoded, b"x")])
        with pytest.raises(TypeConflict):
            table.insert(b"b", b"2")
        stats = cache.stats
        path = next(p for p in stats.last_error.split() if p.endswith(".json:"))[:-1]
        try:
            with open(path) as fh:
                fields = [(row["kind"], row["field"]) for row in json.load(fh)]
        finally:
            os.unlink(path)
        assert stats.dead_letters == 1
        assert fields == [
            ("map_set", {"b64": base64.b64encode(b"a").decode()}),
            ("map_set", {"b64": base64.b64encode(b"b").decode()}),
        ]
        assert server._db[table.key.encoded] == b"x"
        cache.drain()


def test_resp_waiting_call_backs_off_before_its_retry(monkeypatch):
    # A waiting call whose link was dropped retries on _retry's schedule:
    # the first retry waits RETRY_BASE_S.
    with CountingRespServer() as server:
        cache, ctx = waiting_cache(server)
        counter = ctx.create_counter("c")
        counter.add(1)
        slept = []
        sleep = time.sleep

        def recording_sleep(seconds):
            slept.append(seconds)
            sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        server.drop_connections()
        counter.add(1)
        monkeypatch.undo()
        assert slept[:1] == [RETRY_BASE_S]
        assert cache.worker_session.reconnects == 2
        assert server._db[counter.key.encoded] == b"2"
        cache.drain()


def test_resp_grouping_keeps_order_and_singles():
    items = [
        (K_MAP, map_set(b"a", b"1")),
        (K_MAP, map_set(b"b", b"2")),
        (K_MAP, map_del(b"a")),
        (K_SET, set_add(b"m")),
        (K_MAP, map_set(b"a", b"3")),
        (K_CMAP, map_set(b"f", 7)),
        (K_CMAP, map_set(b"g", -1)),
        (K_CMAP, map_incr(b"f", 1)),
        (K_CMAP, map_incr(b"f", 1)),
        (K_SET, set_del(b"m")),
        (K_SET, set_del(b"n")),
    ]
    assert _encode_batch(items)[0] == [
        b"*6\r\n$4\r\nHSET\r\n$16\r\nnf1@ins1@1@Map@M\r\n"
        b"$1\r\na\r\n$1\r\n1\r\n$1\r\nb\r\n$1\r\n2\r\n",
        enc(K_MAP, map_del(b"a")),
        enc(K_SET, set_add(b"m")),
        enc(K_MAP, map_set(b"a", b"3")),
        b"*6\r\n$4\r\nHSET\r\n$24\r\nnf1@ins1@1@Countermap@cm\r\n"
        b"$1\r\nf\r\n$1\r\n7\r\n$1\r\ng\r\n$2\r\n-1\r\n",
        enc(K_CMAP, map_incr(b"f", 1)),
        enc(K_CMAP, map_incr(b"f", 1)),
        b"*4\r\n$4\r\nSREM\r\n$16\r\nnf1@ins1@1@Set@S\r\n$1\r\nm\r\n$1\r\nn\r\n",
    ]
    # A mutation alone in its run encodes exactly as a lone mutation does.
    for key, m in ALL_TYPES_BATCH + items:
        assert _encode_batch([(key, m), (K_NV, delete())])[0][0] == enc(key, m)
    runs = _encode_batch(
        [(K_SET, set_add(b"m%d" % i)) for i in range(_GROUP_MAX + 1)]
    )[0]
    assert len(runs) == 2
    assert runs[1] == enc(K_SET, set_add(b"m%d" % _GROUP_MAX))


# Payloads at the edges the encoder cares about: empty, the largest bulk
# whose header is precomputed (511 bytes) and the smallest that is not.
_payloads = st.sampled_from([0, 1, 511, 512]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
_ints = st.integers(INT64_MIN, INT64_MAX)
_mutations = st.one_of(
    st.builds(set_blob, _payloads | _ints),
    st.just(delete()),
    st.builds(incr, _ints),
    st.builds(map_set, _payloads, _payloads | _ints),
    st.builds(map_del, _payloads),
    st.builds(map_incr, _payloads, _ints),
    st.builds(list_append, _payloads),
    st.builds(set_add, _payloads),
    st.builds(set_del, _payloads),
)
# Two keys, so that same-key runs form and break.
_items = st.lists(st.tuples(st.sampled_from([K_MAP, K_SET]), _mutations), max_size=24)


def reference_encode(items, group_max):
    """_encode_batch spelled plainly: one encode_command per same-key run of
    a grouped kind (at most group_max long), one per mutation otherwise."""
    runs = []  # [start, kind, key, arguments]
    for i, (key, m) in enumerate(items):
        args = [a if isinstance(a, bytes) else b"%d" % a for a in m[1:] if a is not None]
        last = runs[-1] if runs else None
        if (
            last is not None
            and m.kind in resp_mod._GROUPED
            and (last[1], last[2]) == (m.kind, key)
            and i - last[0] < group_max
        ):
            last[3].extend(args)
        else:
            runs.append([i, m.kind, key, args])
    commands = [
        protocol.encode_command(resp_mod._COMMANDS[kind], key.encoded, *args)
        for _start, kind, key, args in runs
    ]
    return commands, [run[0] for run in runs]


@seed(20181)
@settings(max_examples=300, deadline=None)
@given(_items, st.sampled_from([2, 3, _GROUP_MAX]))
def test_resp_encode_batch_matches_one_command_per_run(items, group_max):
    # Pins the run-of-one path to the grouped one, byte for byte.
    with mock.patch.object(resp_mod, "_GROUP_MAX", group_max):
        assert _encode_batch(items) == reference_encode(items, group_max)


def test_resp_large_batch_pipelines(mini_server):
    drv = make_driver("resp", mini_server.endpoint)
    with drv.connect() as s:
        n = 2000  # several pipeline chunks
        apply_items(s, [(K_COUNTER, incr(1)) for _ in range(n)])
        assert s.fetch(K_COUNTER) == n


def test_registry():
    assert known_labels() == frozenset({"flatkvs", "tablestore", "resp"})
    with pytest.raises(UnknownDriver):
        make_driver("nosuch")
    with pytest.raises(ConfigSyntaxError):
        make_driver("flatkvs", "127.0.0.1:6379")
    with pytest.raises(ConfigSyntaxError):
        make_driver("resp", "local")


def test_from_config():
    cfg = FlexConfig(
        nf_id="a", instance_id="b", driver_label="tablestore", endpoint="local"
    )
    drv = from_config(cfg)
    assert drv.label == "tablestore"


def test_latency_injection_delays_apply():
    drv = make_driver("flatkvs", inject_latency_us=20000)
    with drv.connect() as s:
        t0 = time.monotonic()
        apply_items(s, [(K_COUNTER, incr(1))])
        assert time.monotonic() - t0 >= 0.02


@pytest.mark.parametrize(
    "label, endpoint", [("flatkvs", "local"), ("tablestore", "local"), ("resp", "127.0.0.1:1")]
)
def test_negative_latency_is_refused_when_the_driver_is_made(label, endpoint):
    with pytest.raises(ValueError, match="inject_latency_us must not be negative"):
        make_driver(label, endpoint, inject_latency_us=-1)


@pytest.fixture
def silent_listener():
    """A loopback listener that accepts connections and never answers."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    accepted = []

    def accept():
        try:
            while True:
                accepted.append(srv.accept()[0])
        except OSError:
            pass

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    yield "127.0.0.1:%d" % srv.getsockname()[1]
    srv.close()
    for conn in accepted:
        conn.close()


def test_resp_session_timeouts_are_the_kernels(mini_server):
    with make_driver("resp", mini_server.endpoint).connect() as s:
        s.ensure_connected()
        assert s._sock.gettimeout() is None  # no poll() before each call
        for opt in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            raw = s._sock.getsockopt(socket.SOL_SOCKET, opt, 16)
            assert struct.unpack("@ll", raw) == (5, 0)


def test_resp_silent_store_times_out(silent_listener, monkeypatch):
    monkeypatch.setattr(resp_mod, "_IO_TIMEOUT_S", 0.2)
    with make_driver("resp", silent_listener).connect() as s:
        t0 = time.monotonic()
        with pytest.raises(ConnectionLost, match="timed out"):
            s.exchange([protocol.encode_command(b"PING")])
        assert time.monotonic() - t0 < 1.0


def test_resp_store_that_never_reads_times_out(silent_listener, monkeypatch):
    monkeypatch.setattr(resp_mod, "_IO_TIMEOUT_S", 0.2)
    value = b"v" * 65536
    commands = [protocol.encode_command(b"SET", b"k%d" % i, value) for i in range(64)]
    with make_driver("resp", silent_listener).connect() as s:
        t0 = time.monotonic()
        with pytest.raises(ConnectionLost, match="timed out"):
            s.exchange(commands)
        assert time.monotonic() - t0 < 1.0


class ScriptedPeer:
    """A loopback RESP peer that answers each command it reads with
    answer(link, parts), link counting accepted connections from 0: the
    reply's bytes, or None to close the link there, leaving that command
    and the rest of the link unanswered. Every command read is kept in
    received as (link, parts)."""

    def __init__(self, answer):
        self.answer = answer
        self.received = []
        self._srv = socket.socket()
        self._srv.bind(("127.0.0.1", 0))
        self._srv.listen(8)
        self.endpoint = "127.0.0.1:%d" % self._srv.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        link = 0
        try:
            while True:
                conn = self._srv.accept()[0]
                threading.Thread(target=self._serve, args=(link, conn), daemon=True).start()
                link += 1
        except OSError:
            pass

    def _serve(self, link, conn):
        buf = b""
        with conn:
            try:
                while data := conn.recv(65536):
                    buf += data
                    out = []
                    pos = 0
                    while True:
                        parts, end = protocol.parse_command(buf, pos)
                        if parts is None:
                            break
                        pos = end
                        self.received.append((link, parts))
                        reply = self.answer(link, parts)
                        if reply is None:
                            # Send what was answered, then read to the
                            # client's close: unread input would turn the
                            # close into a reset that can discard the
                            # replies in flight.
                            conn.sendall(b"".join(out))
                            conn.shutdown(socket.SHUT_WR)
                            conn.settimeout(5)
                            while conn.recv(65536):
                                pass
                            return
                        out.append(reply)
                    buf = buf[pos:]
                    conn.sendall(b"".join(out))
            except OSError:
                pass  # the client went away

    def close(self):
        if self._srv.fileno() >= 0:
            self._srv.shutdown(socket.SHUT_RDWR)  # ends a pending accept
            self._srv.close()


@pytest.fixture
def scripted_peer():
    peers = []

    def start(answer):
        peers.append(ScriptedPeer(answer))
        return peers[-1]

    yield start
    for peer in peers:
        peer.close()


def test_resp_refused_then_lost_command_is_resent(scripted_peer):
    # The store answers c0, refuses c1, then the link drops before c2's
    # reply. The refusal must not count as answered: the retry resends c1
    # and c2, and c1's refusal is raised.
    keys = [build_key("nf1", "ins1", 1, StructureType.COUNTER, f"c{i}") for i in range(3)]
    names = [key.encoded for key in keys]

    def answer(link, parts):
        if parts[1] == names[1]:
            return b"-ERR increment or decrement would overflow\r\n"
        if parts[1] == names[2] and link == 0:
            return None
        return b":1\r\n"

    peer = scripted_peer(answer)
    with make_driver("resp", peer.endpoint).connect() as s:
        batch = MutationBatch([(key, incr(1)) for key in keys])
        with pytest.raises(ConnectionLost):
            s.apply(batch)
        with pytest.raises(Overflow):
            s.apply(batch)
    assert [parts[1] for link, parts in peer.received if link == 1] == names[1:]


def test_resp_malformed_reply_drops_the_link(scripted_peer):
    # The first link answers each GET with a malformed integer followed by
    # a reply of its own. Kept, that link would hand the second reply to
    # the next GET; dropped, the next GET reads its own reply.
    def answer(link, parts):
        return b":12x\r\n:99\r\n" if link == 0 else b"$1\r\n7\r\n"

    peer = scripted_peer(answer)
    with make_driver("resp", peer.endpoint).connect() as s:
        with pytest.raises(ProtocolError):
            s.fetch(K_NV)
        assert s.fetch(K_NV) == b"7"
        assert s.reconnects == 2


def test_resp_unknown_error_reply_is_a_protocol_error(scripted_peer):
    # Only WRONGTYPE, not-an-integer and overflow replies name a refusal;
    # any other error reply is outside what the driver speaks.
    peer = scripted_peer(lambda link, parts: b"-ERR no such thing\r\n")
    with make_driver("resp", peer.endpoint).connect() as s:
        with pytest.raises(ProtocolError, match="unexpected error reply: ERR no such thing"):
            s.apply(MutationBatch([(K_COUNTER, incr(1))]))


def grouped_items():
    items = [(K_MAP, map_set(b"f%d" % i, b"v")) for i in range(_GROUP_MAX + 10)]
    items += [(K_COUNTER, incr(1)), (K_COUNTER, incr(2))]
    items += [(K_SET, set_add(b"m%d" % i)) for i in range(3)]
    return items


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_resp_lost_link_trims_answered_head(scripted_peer, k):
    items = grouped_items()
    starts = _encode_batch(items)[1]
    assert len(starts) == 5

    def answer(link, parts):
        answered.append(parts)
        return b":0\r\n" if len(answered) <= k else None

    answered = []
    peer = scripted_peer(answer)
    with make_driver("resp", peer.endpoint).connect() as s:
        batch = MutationBatch(list(items))
        with pytest.raises(ConnectionLost):
            s.apply(batch)
    assert batch.items == items[starts[k] :]


def test_resp_drain_dumps_only_unanswered_mutations(scripted_peer, monkeypatch):
    # A flush loses the link after one of its commands is answered, and the
    # store stays down: the retained batch and the drain dump hold only the
    # mutations the store never answered, also through a wrapping driver.
    def answer(link, parts):
        if parts[0] == b"HGETALL":
            return b"*0\r\n"
        if parts[0] == b"GET":
            return b"$-1\r\n"
        if not answered:
            answered.append(parts)
            return b":0\r\n"
        return None

    answered = []
    peer = scripted_peer(answer)
    driver = RecordingDriver(make_driver("resp", peer.endpoint))
    cache = manual_cache("nf1", "ins1", 0, driver)
    ctx = StateContext(cache)
    m = ctx.create_map("m")
    counter = ctx.create_counter("c")
    fields = [b"f%d" % i for i in range(_GROUP_MAX + 10)]
    for field in fields:
        m.insert_nowait(field, b"v")
    counter.add_nowait(3)
    cache.flush_now()
    assert answered[0][2::2] == fields[:_GROUP_MAX]
    left = [(m.key, map_set(f, b"v")) for f in fields[_GROUP_MAX:]] + [(counter.key, incr(3))]
    assert cache.flusher.retained_batch.items == left
    assert cache.stats.mutations_flushed == _GROUP_MAX  # the answered head landed
    peer.close()  # from here on a reconnect is refused
    cache.flush_now()
    assert cache.flusher.retained_batch.items == left
    monkeypatch.setattr(cache_mod, "DRAIN_TIMEOUT_S", 0.2)
    with pytest.raises(StoreUnavailable) as info:
        cache.drain()
    path = next(p for p in str(info.value).split() if p.endswith(".json:"))[:-1]
    try:
        with open(path) as fh:
            rows = json.load(fh)
    finally:
        os.unlink(path)
    assert [(r["key"], r["kind"]) for r in rows] == [
        (key.render(), mutation.kind) for key, mutation in left
    ]
    assert [base64.b64decode(r["field"]["b64"]) for r in rows[:-1]] == fields[_GROUP_MAX:]
    assert rows[-1]["value"] == 3
