"""Reference NFs: counters, NAT, load balancer, combiners."""

import struct

import pytest

import flexstate.cache as cache_mod
from flexstate.api import StateContext
from flexstate.drivers import make_driver
from flexstate.errors import EmptyServerList
from flexstate.nf import (
    combine_counter_maps,
    combine_counters,
    known_nfs,
    make_nf_factory,
    merge_maps,
    per_core_counter_maps,
    per_core_counters,
)
from flexstate.nf.counter import CounterAsyncNF, CounterSyncNF
from flexstate.nf.lb import LoadBalancerNF
from flexstate.nf.nat import EXTERNAL_BASE, NatNF, chunk_bounds, pool_entry
from flexstate.runtime import Packet, make_packet
from manual_flush import manual_cache

_FLOW = struct.Struct("!IIHHB")


def make_ctx(driver, core_id=0, n_cores=1):
    cache = manual_cache("nf1", "ins1", core_id, driver)
    return StateContext(cache, n_cores=n_cores), cache


def flow_packet(i, sport=5000):
    return make_packet(0xC6120000 + i, 0xC6130000 + i, sport, 80, 6)


@pytest.mark.parametrize("nf_cls", [CounterSyncNF, CounterAsyncNF])
def test_counter_nf_counts_and_swaps(nf_cls):
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nf = nf_cls()
    nf.setup(ctx)
    pkt = flow_packet(1)
    for _ in range(10):
        out = nf.handle(pkt, ctx)
    assert out.src_ip == pkt.dst_ip
    assert out.dst_ip == pkt.src_ip
    assert out.src_port == pkt.dst_port
    assert out.dst_port == pkt.src_port
    assert nf.summary() == {"count": 10, "store_errors": 0}
    cache.drain()


@pytest.mark.parametrize("nf_cls", [CounterSyncNF, CounterAsyncNF])
def test_counter_nf_output_is_a_plain_packet(nf_cls):
    ctx, cache = make_ctx(make_driver("flatkvs"))
    nf = nf_cls()
    nf.setup(ctx)
    pkt = flow_packet(1)._replace(size=1500, meta="tag")
    out = nf.handle(pkt, ctx)
    assert type(out) is Packet
    assert out == Packet(pkt.dst_ip, pkt.src_ip, 80, 5000, 6, 1500, None)
    assert out.meta is None
    cache.drain()


def test_nat_output_is_a_plain_packet_on_miss_and_hit():
    ctx, cache = make_ctx(make_driver("flatkvs"))
    nat = NatNF(pool_size=10)
    nat.setup(ctx)
    pkt = flow_packet(1)._replace(size=1500, meta="tag")
    ext_ip, ext_port = pool_entry(0)
    want = Packet(ext_ip, pkt.dst_ip, ext_port, pkt.dst_port, pkt.proto, 1500)
    for _ in range(2):  # the first call misses and binds, the second hits
        out = nat.handle(pkt, ctx)
        assert type(out) is Packet
        assert out == want
        assert out.meta is None
    assert nat.bindings.get(_FLOW.pack(*pkt[:5])) == struct.pack("!IH", ext_ip, ext_port)
    assert nat.summary()["allocated"] == 1
    cache.drain()


def test_pool_entry_frozen():
    assert pool_entry(0) == (EXTERNAL_BASE, 0)
    assert pool_entry(65535) == (EXTERNAL_BASE, 65535)
    assert pool_entry(65536) == (EXTERNAL_BASE + 1, 0)
    assert pool_entry(131072 + 7) == (EXTERNAL_BASE + 2, 7)


def test_chunk_bounds_partition_the_pool():
    assert [chunk_bounds(10, c, 3) for c in range(3)] == [(0, 4), (4, 3), (7, 3)]
    for pool, cores in [(65536, 8), (100, 7), (5, 8), (1, 1), (64, 64)]:
        chunks = [chunk_bounds(pool, c, cores) for c in range(cores)]
        # Contiguous, disjoint, covering the whole pool.
        cursor = 0
        for start, length in chunks:
            assert start == cursor
            cursor += length
        assert cursor == pool
        assert max(length for _, length in chunks) - min(
            length for _, length in chunks
        ) <= 1


def test_nat_allocates_injectively():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nat = NatNF(pool_size=100)
    nat.setup(ctx)
    outs = {}
    for i in range(50):
        out = nat.handle(flow_packet(i), ctx)
        outs[i] = (out.src_ip, out.src_port)
    assert len(set(outs.values())) == 50  # one pair per flow
    # Sequential allocation from the chunk start.
    assert outs[0] == pool_entry(0)
    assert outs[1] == pool_entry(1)
    assert nat.summary()["allocated"] == 50
    cache.drain()


def test_nat_binding_is_stable():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nat = NatNF(pool_size=10)
    nat.setup(ctx)
    pkt = flow_packet(3)
    first = nat.handle(pkt, ctx)
    for _ in range(20):
        again = nat.handle(pkt, ctx)
        assert (again.src_ip, again.src_port) == (first.src_ip, first.src_port)
    assert nat.summary()["allocated"] == 1
    assert nat.summary()["stability_violations"] == 0
    cache.drain()


def test_nat_preserves_destination():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nat = NatNF(pool_size=10)
    nat.setup(ctx)
    pkt = flow_packet(1, sport=4242)
    out = nat.handle(pkt, ctx)
    assert out.dst_ip == pkt.dst_ip
    assert out.dst_port == pkt.dst_port
    assert out.proto == pkt.proto
    assert out.src_ip == EXTERNAL_BASE
    cache.drain()


def test_nat_exhaustion_drops():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nat = NatNF(pool_size=5)
    nat.setup(ctx)
    for i in range(5):
        assert nat.handle(flow_packet(i), ctx) is not None
    for i in range(5, 8):
        assert nat.handle(flow_packet(i), ctx) is None
    summary = nat.summary()
    assert summary["allocated"] == 5
    assert summary["exhausted_drops"] == 3
    # Existing bindings still translate after exhaustion.
    assert nat.handle(flow_packet(0), ctx) is not None
    cache.drain()


def test_nat_chunks_respect_core_split():
    driver = make_driver("flatkvs")
    ctx0, cache0 = make_ctx(driver, core_id=0, n_cores=2)
    ctx1, cache1 = make_ctx(driver, core_id=1, n_cores=2)
    nat0, nat1 = NatNF(pool_size=10), NatNF(pool_size=10)
    nat0.setup(ctx0)
    nat1.setup(ctx1)
    out0 = nat0.handle(flow_packet(1), ctx0)
    out1 = nat1.handle(flow_packet(2), ctx1)
    assert (out0.src_ip, out0.src_port) == pool_entry(0)
    assert (out1.src_ip, out1.src_port) == pool_entry(5)  # second chunk
    assert nat0.summary()["chunk_start"] == 0
    assert nat1.summary()["chunk_start"] == 5
    cache0.drain()
    cache1.drain()


def test_nat_restart_resumes_bindings_and_cursor():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nat = NatNF(pool_size=100)
    nat.setup(ctx)
    first = nat.handle(flow_packet(1), ctx)
    nat.handle(flow_packet(2), ctx)
    cache.drain()  # simulated shutdown

    ctx2, cache2 = make_ctx(driver)
    nat2 = NatNF(pool_size=100)
    nat2.setup(ctx2)
    # Old flow translates to its old pair without a new allocation.
    again = nat2.handle(flow_packet(1), ctx2)
    assert (again.src_ip, again.src_port) == (first.src_ip, first.src_port)
    assert nat2.summary()["stability_violations"] == 0
    # New flow continues after the persisted cursor.
    fresh = nat2.handle(flow_packet(3), ctx2)
    assert (fresh.src_ip, fresh.src_port) == pool_entry(2)
    assert nat2.summary()["allocated"] == 3
    cache2.drain()


def test_nat_backpressure_drops_and_skips(monkeypatch):
    # A limit of 2 pending mutations: a new binding makes two (the cursor's
    # incr, the binding) right after a flush, so the next one is refused
    # at the cursor's add; with a third structure's mutation pending, the
    # add passes and the binding's insert is refused, which leaves the
    # cursor past an entry that no flow gets.
    monkeypatch.setattr(cache_mod, "BACKPRESSURE_LIMIT", 2)
    driver = make_driver("flatkvs")
    cache = manual_cache("nf1", "ins1", 0, driver)
    ctx = StateContext(cache)
    nat = NatNF(pool_size=10)
    nat.setup(ctx)
    other = ctx.create_counter("other")
    outs = {}

    def send(i):
        out = nat.handle(flow_packet(i), ctx)
        if out is not None:
            outs.setdefault(i, (out.src_ip, out.src_port))
            assert outs[i] == (out.src_ip, out.src_port)
        return out

    assert send(1) is not None  # entry 0
    assert send(2) is None  # refused at the cursor's add
    assert nat.summary()["allocated"] == 1
    assert send(1) is not None  # a hit mutates nothing
    cache.flush_now()
    assert send(2) is not None  # entry 1: the refused add took no entry
    cache.flush_now()
    other.add_nowait(1)
    assert send(3) is None  # refused at the binding's insert
    assert nat.summary()["allocated"] == 3  # entry 2 is skipped
    cache.flush_now()
    assert send(3) is not None  # entry 3
    assert send(4) is None
    summary = nat.summary()
    assert (summary["backpressure_drops"], summary["exhausted_drops"]) == (3, 0)
    assert summary["allocated"] == 4
    assert outs == {1: pool_entry(0), 2: pool_entry(1), 3: pool_entry(3)}
    expected = {_FLOW.pack(*flow_packet(i)[:5]): struct.pack("!IH", *outs[i]) for i in outs}
    assert nat.bindings_snapshot() == expected
    cache.drain()
    # The store holds the same: a restarted core resumes past entry 3.
    ctx2, cache2 = make_ctx(driver)
    nat2 = NatNF(pool_size=10)
    nat2.setup(ctx2)
    assert nat2.bindings_snapshot() == expected
    assert nat2.summary()["allocated"] == 4
    cache2.drain()


def test_nat_binding_wire_sizes():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    nat = NatNF(pool_size=10)
    nat.setup(ctx)
    nat.handle(flow_packet(1), ctx)
    ((key, value),) = nat.bindings_snapshot().items()
    assert len(key) == 13  # packed 5-tuple
    assert len(value) == 6  # packed (address, port)
    cache.drain()


def test_nat_rejects_empty_pool():
    with pytest.raises(ValueError):
        NatNF(pool_size=0)


def test_lb_picks_least_loaded_in_server_order():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    lb = LoadBalancerNF(servers=["A", "B", "C"])
    lb.setup(ctx)
    picks = [lb.handle(flow_packet(i), ctx).meta for i in range(4)]
    assert picks == [b"A", b"B", b"C", b"A"]
    cache.drain()


def test_lb_existing_flow_keeps_server_and_load():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    lb = LoadBalancerNF(servers=2)
    lb.setup(ctx)
    pkt = flow_packet(1)
    first = lb.handle(pkt, ctx)
    for _ in range(10):
        assert lb.handle(pkt, ctx).meta == first.meta
    summary = lb.summary()
    assert summary["flows_assigned"] == 1
    assert sum(summary["per_server"].values()) == 1
    cache.drain()


def test_lb_spread_within_one_core():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    lb = LoadBalancerNF(servers=4)
    lb.setup(ctx)
    for i in range(50):
        assert lb.handle(flow_packet(i), ctx) is not None
    loads = lb.summary()["per_server"].values()
    assert sum(loads) == 50
    assert max(loads) - min(loads) <= 1
    cache.drain()


def test_lb_every_packet_forwarded_and_annotated():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    lb = LoadBalancerNF(servers=3)
    lb.setup(ctx)
    for i in range(30):
        out = lb.handle(flow_packet(i % 7), ctx)
        assert out is not None
        assert out.meta in (b"srv0", b"srv1", b"srv2")
        assert out.src_ip == 0xC6120000 + i % 7  # headers untouched
    cache.drain()


def test_lb_rejects_empty_server_list():
    with pytest.raises(EmptyServerList):
        LoadBalancerNF(servers=[])


def test_combiners_fold_across_cores():
    driver = make_driver("flatkvs")
    caches = []
    for core in range(3):
        ctx, cache = make_ctx(driver, core_id=core, n_cores=3)
        ctx.create_counter("pktCounter").add_nowait(100 + core)
        cm = ctx.create_counter_map("load")
        cm.add_to_nowait(b"srv0", core + 1)
        if core:
            cm.add_to_nowait(b"srv1", 10)
        m = ctx.create_map("bind")
        m.insert_nowait(b"k%d" % core, b"v%d" % core)
        caches.append(cache)
    for cache in caches:
        cache.drain()

    with driver.connect() as s:
        assert combine_counters(s, "nf1", "ins1", "pktCounter") == 303
        assert combine_counter_maps(s, "nf1", "ins1", "load") == {
            b"srv0": 6,
            b"srv1": 20,
        }
        assert merge_maps(s, "nf1", "ins1", "bind") == {
            b"k0": b"v0",
            b"k1": b"v1",
            b"k2": b"v2",
        }
        assert per_core_counters(s, "nf1", "ins1", "pktCounter") == {
            0: 100,
            1: 101,
            2: 102,
        }
        shards = per_core_counter_maps(s, "nf1", "ins1", "load")
        assert shards[0] == {b"srv0": 1}
        assert shards[2] == {b"srv0": 3, b"srv1": 10}


def test_combiners_ignore_other_ids():
    driver = make_driver("flatkvs")
    ctx, cache = make_ctx(driver)
    ctx.create_counter("wanted").add_nowait(5)
    ctx.create_counter("other").add_nowait(99)
    cache.drain()
    with driver.connect() as s:
        assert combine_counters(s, "nf1", "ins1", "wanted") == 5


def test_nf_registry():
    assert known_nfs() == frozenset({"counter-sync", "counter-async", "nat", "lb"})
    factory = make_nf_factory("nat", pool_size=16)
    a, b = factory(), factory()
    assert a is not b
    assert a.pool_size == 16
    with pytest.raises(KeyError):
        make_nf_factory("nope")
    with pytest.raises(ValueError):
        make_nf_factory("nat", pool_size=0)  # params fail fast
