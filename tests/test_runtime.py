"""Dispatch runtime: flow hashing, queueing, conservation, reports."""

import json
import os
import re
import threading

import pytest

import flexstate.cache as cache_mod
from flexstate import runtime
from flexstate.api import StateContext
from flexstate.config import FlexConfig
from flexstate.drivers import make_driver
from flexstate.keys import StructureType, build_key
from flexstate.nf import make_nf_factory
from flexstate.nf.combine import combine_counters
from flexstate.runtime import (
    MIN_PACKET_SIZE,
    Packet,
    WorkerPool,
    make_packet,
    rss_hash,
)
from flexstate.testing import RecordingDriver
from flexstate.trafficgen import generate_flows, replay

CONFIG = FlexConfig(
    nf_id="nf1", instance_id="ins1", driver_label="flatkvs", endpoint="local"
)


class CountingNF:
    """Minimal NF double: counts per core without touching any store."""

    name = "counting"

    def setup(self, ctx):
        self.ctx = ctx
        self.seen = []

    def handle(self, packet, ctx):
        self.seen.append(packet)
        return packet

    def summary(self):
        return {"seen": len(self.seen)}


class DroppingNF(CountingNF):
    """Drops every third packet."""

    name = "dropping"

    def handle(self, packet, ctx):
        self.seen.append(packet)
        return packet if len(self.seen) % 3 else None


class ExplodingNF(CountingNF):
    name = "exploding"

    def handle(self, packet, ctx):
        raise RuntimeError("boom")


def test_make_packet_validation():
    p = make_packet(1, 2, 3, 4, 6)
    assert p.size == 64
    assert make_packet(1, 2, 3, 4, 17, size=MIN_PACKET_SIZE).size == MIN_PACKET_SIZE
    with pytest.raises(ValueError):
        make_packet(1, 2, 3, 4, 6, size=MIN_PACKET_SIZE - 1)
    with pytest.raises(ValueError):
        make_packet(-1, 2, 3, 4, 6)
    with pytest.raises(ValueError):
        make_packet(1, 2, 70000, 4, 6)
    with pytest.raises(ValueError):
        make_packet(1, 2, 3, 4, 256)


def test_rss_hash_frozen_values():
    # Pinned outputs keep the flow-to-core mapping stable across releases.
    f1 = (0xC6120001, 0xC6130001, 5000, 80, 6)
    f2 = (0xC6120002, 0xC6130002, 5001, 443, 17)
    assert (rss_hash(f1, 2), rss_hash(f1, 4), rss_hash(f1, 8)) == (0, 2, 6)
    assert (rss_hash(f2, 2), rss_hash(f2, 4), rss_hash(f2, 8)) == (1, 1, 5)


def test_rss_hash_deterministic_and_in_range():
    flows = generate_flows(2000, seed=7)
    for flow in flows:
        core = rss_hash(flow, 8)
        assert 0 <= core < 8
        assert rss_hash(flow, 8) == core


def test_rss_hash_spreads_flows():
    flows = generate_flows(20000, seed=3)
    buckets = [0] * 8
    for flow in flows:
        buckets[rss_hash(flow, 8)] += 1
    # 2500 per bucket on average; a uniform hash stays well inside this.
    assert min(buckets) > 1800
    assert max(buckets) < 3200


def run_pool(nf_cls, packets, n_cores=2, duration_s=None, **pool_kwargs):
    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, n_cores, driver, **pool_kwargs)
    report = pool.run(
        nf_cls, packets, duration_s=duration_s, nf_name=nf_cls.name
    )
    return report, driver


def test_lossless_run_conserves_packets():
    flows = generate_flows(500, seed=1)
    report, _ = run_pool(CountingNF, replay(flows, budget=20000))
    assert report.packets_in == 20000
    assert report.processed == 20000
    assert report.forwarded == 20000
    assert report.queue_dropped == 0
    assert report.conservation_ok()
    assert report.pps > 0
    assert report.duration_s > 0


def test_flow_affinity():
    # Every packet of a flow must land on the same core as its hash.
    flows = generate_flows(200, seed=2)
    n_cores = 4
    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, n_cores, driver)

    seen_by_core = {}

    class AffinityNF(CountingNF):
        def handle(self, packet, ctx):
            flow = (
                packet.src_ip,
                packet.dst_ip,
                packet.src_port,
                packet.dst_port,
                packet.proto,
            )
            seen_by_core.setdefault(self.ctx.core_id, set()).add(flow)
            return packet

    pool.run(AffinityNF, replay(flows, budget=5000), nf_name="affinity")
    for core, flows_seen in seen_by_core.items():
        for flow in flows_seen:
            assert rss_hash(flow, n_cores) == core
    # All flows that hash to a core are disjoint from other cores.
    all_flows = [f for s in seen_by_core.values() for f in s]
    assert len(all_flows) == len(set(all_flows)) == 200


def test_nf_drops_counted_separately():
    flows = generate_flows(100, seed=4)
    report, _ = run_pool(DroppingNF, replay(flows, budget=3000))
    assert report.processed == 3000
    assert report.nf_dropped == 1000
    assert report.forwarded == 2000
    assert report.conservation_ok()


def test_timed_run_drops_overflow_instead_of_blocking(monkeypatch):
    # Tiny queues plus a slow NF force the dispatcher to shed load.
    class SlowNF(CountingNF):
        def handle(self, packet, ctx):
            for _ in range(2000):
                pass
            return packet

    flows = generate_flows(100, seed=5)
    monkeypatch.setattr(runtime, "QUEUE_PACKETS", 512)
    monkeypatch.setattr(runtime, "CHUNK_PACKETS", 64)
    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, 2, driver)
    report = pool.run(
        SlowNF, replay(flows), duration_s=0.3, nf_name="slow"
    )
    assert report.packets_in > 0
    assert report.conservation_ok()
    assert report.queue_dropped > 0  # overflow was shed, not waited out


def test_worker_error_propagates():
    flows = generate_flows(10, seed=6)
    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, 1, driver)
    with pytest.raises(RuntimeError, match="boom"):
        pool.run(ExplodingNF, replay(flows, budget=100), nf_name="exploding")


class FailedSetupNF(CountingNF):
    name = "failed-setup"

    def setup(self, ctx):
        raise LookupError("setup found no table")


def test_failed_setup_with_more_than_a_queue_behind_it_raises():
    # The worker fails before it takes a chunk, and more packets follow
    # than its queue holds: a lossless dispatcher must not block on that
    # queue, and run must raise the failure. Run in a thread, so that a
    # blocked dispatcher fails the test instead of hanging it.
    packets = replay(
        generate_flows(10, seed=6),
        budget=runtime.QUEUE_PACKETS + 4 * runtime.CHUNK_PACKETS,
    )
    pool = WorkerPool(CONFIG, 1, make_driver("flatkvs"))
    raised = []

    def run():
        try:
            pool.run(FailedSetupNF, packets, nf_name="failed-setup")
        except RuntimeError as exc:
            raised.append(str(exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "the dispatcher blocked on the failed core's queue"
    assert len(raised) == 1
    assert "1 worker(s) failed" in raised[0]
    assert "LookupError: setup found no table" in raised[0]


def test_state_flushed_after_run():
    # Worker drain pushes NF state to the store before run() returns.
    class StatefulNF(CountingNF):
        def setup(self, ctx):
            super().setup(ctx)
            self.counter = ctx.create_counter("seen")

        def handle(self, packet, ctx):
            self.counter.add_nowait(1)
            return packet

    flows = generate_flows(50, seed=8)
    report, driver = run_pool(StatefulNF, replay(flows, budget=4000), n_cores=2)
    total = 0
    with driver.connect() as s:
        for core in range(2):
            key = build_key("nf1", "ins1", core, StructureType.COUNTER, "seen")
            total += s.fetch(key) or 0
    assert total == 4000
    assert report.processed == 4000
    assert all(c.flush for c in report.per_core)


def test_report_round_trips_to_json():
    flows = generate_flows(20, seed=9)
    report, _ = run_pool(CountingNF, replay(flows, budget=500), n_cores=1)
    decoded = json.loads(report.to_json())
    assert decoded["packets_in"] == 500
    assert decoded["cores"] == 1
    assert len(decoded["per_core"]) == 1
    assert decoded["per_core"][0]["nf_summary"] == {"seen": 500}


def test_pool_rejects_zero_cores():
    with pytest.raises(ValueError):
        WorkerPool(CONFIG, 0, make_driver("flatkvs"))


def test_packet_meta_defaults_none():
    p = make_packet(1, 2, 3, 4, 6)
    assert p.meta is None
    assert isinstance(p, Packet)


# One-queue dispatch: a single core takes the stream in chunks, unhashed.


def numbered_packets(count, n_flows=37):
    # meta carries the source position, so order and duplicates show.
    return [
        Packet(0x0A000001, 0x0A000002, 1000 + i % n_flows, 80, 6, meta=i)
        for i in range(count)
    ]


class SlowNF(CountingNF):
    name = "slow"

    def handle(self, packet, ctx):
        for _ in range(2000):
            pass
        return packet


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 1000])
def test_one_core_delivers_every_packet_once_in_order(count, monkeypatch):
    monkeypatch.setattr(runtime, "CHUNK_PACKETS", 256)
    source = numbered_packets(count)
    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, 1, driver)
    report = pool.run(CountingNF, source, nf_name="counting")
    assert pool.workers[0].nf.seen == source
    assert report.packets_in == report.processed == report.forwarded == count
    assert report.queue_dropped == 0
    assert report.conservation_ok()


def test_one_core_timed_run_sheds_whole_chunks(monkeypatch):
    monkeypatch.setattr(runtime, "QUEUE_PACKETS", 512)
    monkeypatch.setattr(runtime, "CHUNK_PACKETS", 64)
    flows = generate_flows(100, seed=5)
    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, 1, driver)
    report = pool.run(SlowNF, replay(flows), duration_s=0.3, nf_name="slow")
    assert report.packets_in > 0
    assert report.conservation_ok()
    assert report.queue_dropped > 0
    assert report.queue_dropped % 64 == 0
    assert report.processed % 64 == 0


def test_one_core_run_never_hashes(monkeypatch):
    def no_hashing(flow, n_cores):
        raise AssertionError("rss_hash called")

    monkeypatch.setattr(runtime, "rss_hash", no_hashing)
    flows = generate_flows(100, seed=10)
    report, _ = run_pool(CountingNF, replay(flows, budget=1000), n_cores=1)
    assert report.processed == 1000
    # The patch does bite where routing happens.
    with pytest.raises(AssertionError, match="rss_hash called"):
        run_pool(CountingNF, replay(flows, budget=1000), n_cores=2)


def test_two_core_run_keeps_flow_order_on_hashed_core():
    source = numbered_packets(3000, n_flows=61)
    seen = {}

    class RecordingNF(CountingNF):
        def handle(self, packet, ctx):
            seen.setdefault(packet[:5], []).append((ctx.core_id, packet.meta))
            return packet

    report, _ = run_pool(RecordingNF, source, n_cores=2)
    assert report.processed == 3000
    for flow, arrivals in seen.items():
        cores = {core for core, _ in arrivals}
        assert cores == {rss_hash(flow, 2)}
        expected = [p.meta for p in source if p[:5] == flow]
        assert [meta for _, meta in arrivals] == expected


def test_source_error_stops_cores_and_drains():
    before = set(threading.enumerate())

    def failing_source():
        yield from replay(generate_flows(100, 1), budget=1000)
        raise OSError("source failed")

    driver = make_driver("flatkvs")
    pool = WorkerPool(CONFIG, 1, driver)
    with pytest.raises(OSError, match="source failed"):
        pool.run(
            make_nf_factory("counter-async"), failing_source(), nf_name="counter"
        )
    leaked = [
        t.name
        for t in threading.enumerate()
        if t not in before and t.name.startswith(("worker-core", "flusher-core"))
    ]
    assert leaked == []
    live = pool.workers[0].nf.summary()["count"]
    assert live == 1000  # every packet the source gave was processed
    with driver.connect() as session:
        assert combine_counters(session, "nf1", "ins1", "pktCounter") == live


def test_run_whose_drain_gives_up_reports_the_dead_letter(monkeypatch):
    # The store stays unreachable, so the core's drain gives up once
    # DRAIN_TIMEOUT_S has passed: the run fails naming the drain, and the
    # core's report still counts the dead letter and names its dump.
    monkeypatch.setattr(cache_mod, "DRAIN_TIMEOUT_S", 0.2)
    driver = RecordingDriver(make_driver("flatkvs"))
    driver.fail_applies = 10**9
    pool = WorkerPool(CONFIG, 1, driver)
    with pytest.raises(RuntimeError, match="drain failed"):
        pool.run(
            make_nf_factory("counter-async"),
            replay(generate_flows(100, 1), budget=1000),
            nf_name="counter",
        )
    flush = pool.workers[0].report.flush
    path = re.search(r"dead-lettered to (\S+\.json):", flush["last_error"]).group(1)
    os.unlink(path)
    assert flush["dead_letters"] == 1
