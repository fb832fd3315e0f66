"""The benchmark's workloads, one repetition at a time.

A repetition builds a fresh store (a new in-process driver, or a new
bundled RESP server), runs one fixed amount of work through the public
entry points, and checks the result against the store outside the timed
window. Every workload uses one simulated core: on a small host the
runtime's cores are threads under one GIL, and more of them only add
noise (see NOTES.md).

The seed picks the inputs; the program only ever sees the generated flows
or keys.
"""

from __future__ import annotations

import bisect
import random
from array import array
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns

from flexstate import CoreCache, CounterHandle, FlexConfig, StateContext, WorkerPool
from flexstate.drivers import make_driver
from flexstate.drivers.base import Driver, Mutation, MutationBatch
from flexstate.errors import StateError
from flexstate.nf import combine_counters, make_nf_factory, merge_maps
from flexstate.nf.nat import EXTERNAL_BASE
from flexstate.resp.server import MiniRespServer
from flexstate.testing import ModelStore
from flexstate.trafficgen import generate_flows, replay

NF_ID = "nf1"
INSTANCE_ID = "ins1"
FLUSH_INTERVAL_US = 1000
PACKET_SIZE = 64

LAG_PROBE_INTERVAL_S = 0.002

# Captured before any tracing wrapper is installed, so the lag probe's own
# reads and fetches are not counted as program work.
_read_counter = CounterHandle.read
_fetch = Driver.fetch


@dataclass
class RepResult:
    attempted: int
    failed: int
    checks: dict
    setup_s: float
    items: int  # packets processed, or waiting calls completed
    busy_s: float  # until the last item was handled (RunReport.duration_s)
    durable_s: float  # until the store held every mutation (drain included)
    # Compact, so that the samples a long run keeps hardly move its RSS.
    waits_us: array = field(default_factory=lambda: array("d"))
    flush: dict = field(default_factory=dict)
    queue_dropped: int = 0
    drain_s: float = 0.0
    lags_ms: list = field(default_factory=list)


def start_store(label: str, tracer):
    """(server or None, endpoint). The RESP store is the bundled server,
    started in this process as `flexbench --endpoint local` does."""
    if label != "resp":
        return None, "local"
    server_class = MiniRespServer if tracer is None else tracer.server_class(MiniRespServer)
    server = server_class().start()
    return server, server.endpoint


def drop_one_mutation(driver) -> None:
    """Make driver lose the last mutation of the first non-empty batch.

    Used only by the self-check, to show that the correctness gate sees a
    single lost mutation.
    """
    dropped = []

    def lossy_apply(session, batch):
        if batch and not dropped:
            dropped.append(batch.items[-1])
            batch = MutationBatch(batch.items[:-1], seq=batch.seq)
        return type(driver).apply(driver, session, batch)

    driver.apply = lossy_apply


class LagProbe:
    """Compares the live counter with the store, from a control session.

    Each sample reads the live count, then fetches the stored count; the
    lag is how long ago the live count first reached the stored value.
    """

    def __init__(self, driver):
        self.driver = driver
        self.lags_ms: list[float] = []
        self._stop = threading.Event()
        self._thread = None

    def start(self, counter) -> None:
        self._thread = threading.Thread(target=self._run, args=(counter,), daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self, counter) -> None:
        times: list[float] = []
        values: list[int] = []
        with self.driver.connect() as session:
            while not self._stop.wait(LAG_PROBE_INTERVAL_S):
                now = perf_counter()
                times.append(now)
                values.append(_read_counter(counter))
                stored = _fetch(self.driver, session, counter.key) or 0
                first = bisect.bisect_left(values, stored)
                if first < len(values):
                    self.lags_ms.append((now - times[first]) * 1000)


class NullNF:
    """Opens no state and forwards every packet: the runtime alone."""

    name = "null"

    def setup(self, ctx) -> None:
        pass

    def handle(self, pkt, ctx):
        return pkt


@dataclass(frozen=True)
class PacketWorkload:
    name: str
    nf: str
    driver_label: str
    n_flows: int
    budget: int

    @property
    def planned(self) -> int:
        return self.budget

    def scaled(self, divisor: int) -> "PacketWorkload":
        return replace(
            self,
            n_flows=max(1, self.n_flows // divisor),
            budget=max(1, self.budget // divisor),
        )

    def make_inputs(self, seed: int):
        return generate_flows(self.n_flows, seed)

    def nf_params(self) -> dict:
        # pool_size at least the flow count: nothing drops for exhaustion.
        return {"pool_size": self.n_flows} if self.nf == "nat" else {}

    def run_rep(self, flows, *, tracer=None, lossy=False) -> RepResult:
        base_factory = make_nf_factory(self.nf, **self.nf_params())
        setup_done: list[float] = []
        lag = None

        def factory():
            nf = base_factory()
            setup = nf.setup

            def timed_setup(ctx):
                setup(ctx)
                setup_done.append(perf_counter())
                if lag is not None:
                    lag.start(nf.counter)

            nf.setup = timed_setup
            if tracer is not None:
                nf.handle = tracer.wrap("nf.handle", nf.handle)
            return nf

        start = perf_counter()
        server, endpoint = start_store(self.driver_label, tracer)
        driver = None
        try:
            driver = make_driver(self.driver_label, endpoint)
            if lossy:
                drop_one_mutation(driver)
            if tracer is not None and self.nf == "counter-async":
                lag = LagProbe(driver)
            config = FlexConfig(
                nf_id=NF_ID,
                instance_id=INSTANCE_ID,
                driver_label=self.driver_label,
                endpoint=endpoint,
                flush_interval_us=FLUSH_INTERVAL_US,
            )
            pool = WorkerPool(config, 1, driver)
            source = replay(flows, packet_size=PACKET_SIZE, budget=self.budget)
            if tracer is not None:
                source = tracer.timed_source(source)
            run_start_ns = perf_counter_ns()
            run_start = perf_counter()
            report = pool.run(factory, source, nf_name=self.nf)
            run_end = perf_counter()
            run_end_ns = perf_counter_ns()
            if lag is not None:
                lag.stop()
            with driver.connect() as control:
                checks = self._checks(pool, report, control, len(flows))
        finally:
            if lag is not None:
                lag.stop()
            if driver is not None:
                driver.close()
            if server is not None:
                server.stop()

        failed = report.queue_dropped
        if not all(checks.values()):
            failed += self.budget
        drain_s = 0.0
        if tracer is not None:
            drain_s = sum(
                (end - begin) / 1e9
                for _t, _s, _p, name, begin, end in tracer.spans
                if name == "cache.drain" and run_start_ns <= begin and end <= run_end_ns
            )
        return RepResult(
            attempted=self.planned,
            failed=min(failed, self.planned),
            checks=checks,
            setup_s=max(setup_done) - start,
            items=report.processed,
            busy_s=report.duration_s,
            durable_s=run_end - run_start,
            flush=report.per_core[0].flush,
            queue_dropped=report.queue_dropped,
            drain_s=drain_s,
            lags_ms=lag.lags_ms if lag is not None else [],
        )

    def _checks(self, pool, report, control, n_flows: int) -> dict:
        checks = {
            "conservation": report.conservation_ok()
            and report.packets_in == self.budget
            and report.queue_dropped == 0,
            "all_forwarded": report.nf_dropped == 0,
        }
        if self.nf == "nat":
            checks.update(_nat_checks(pool, control, n_flows))
        else:
            combined = combine_counters(control, NF_ID, INSTANCE_ID, "pktCounter")
            checks["count_matches_processed"] = combined == report.processed
        return checks

    def null_pps(self, flows) -> float:
        """Packets/s through WorkerPool with an NF that opens no state."""
        driver = make_driver("flatkvs")
        try:
            config = FlexConfig(nf_id=NF_ID, instance_id=INSTANCE_ID, driver_label="flatkvs")
            source = replay(flows, packet_size=PACKET_SIZE, budget=self.budget)
            return WorkerPool(config, 1, driver).run(NullNF, source).pps
        finally:
            driver.close()


def _nat_checks(pool, control, n_flows: int) -> dict:
    nfs = [w.nf for w in pool.workers]
    union: dict[bytes, bytes] = {}
    sizes = 0
    pairs: list[bytes] = []
    chunks_ok = True
    for nf in nfs:
        snapshot = nf.bindings_snapshot()
        sizes += len(snapshot)
        union.update(snapshot)
        pairs.extend(snapshot.values())
        for pair in snapshot.values():
            index = ((int.from_bytes(pair[:4], "big") - EXTERNAL_BASE) << 16) | int.from_bytes(
                pair[4:], "big"
            )
            if not nf.chunk_start <= index < nf.chunk_start + nf.chunk_len:
                chunks_ok = False
    stored = merge_maps(control, NF_ID, INSTANCE_ID, "natBindings")
    cursor = combine_counters(control, NF_ID, INSTANCE_ID, "natCursor")
    return {
        "every_flow_bound": len(union) == n_flows,
        "no_exhaustion": all(nf.exhausted_drops == 0 for nf in nfs),
        "injective": len(set(pairs)) == len(pairs),
        "cores_disjoint": len(union) == sizes,
        "chunks_respected": chunks_ok,
        "stable": all(nf.stability_violations == 0 for nf in nfs),
        "store_matches_log": stored == union,
        "cursor_matches_log": cursor == sizes,
    }


@dataclass(frozen=True)
class SyncWorkload:
    """Library use without the runtime: one caller, one cache, waiting calls."""

    name: str
    calls: int = 3000
    fields: int = 64

    @property
    def planned(self) -> int:
        return self.calls

    def scaled(self, divisor: int) -> "SyncWorkload":
        return replace(self, calls=max(3, self.calls // divisor))

    def make_inputs(self, seed: int) -> random.Random:
        return random.Random(seed)

    def _plan(self, rng: random.Random) -> list[tuple]:
        names = [b"field%02d" % i for i in range(self.fields)]
        plan = []
        for i in range(self.calls):
            kind = i % 3
            if kind == 0:
                plan.append(("add",))
            elif kind == 1:
                plan.append(("insert", b"%d:%016x" % (i, rng.getrandbits(64)), rng.randbytes(16)))
            else:
                plan.append(("add_to", names[rng.randrange(self.fields)]))
        return plan

    def run_rep(self, rng, *, tracer=None, lossy=False) -> RepResult:
        plan = self._plan(rng)
        start = perf_counter()
        server, endpoint = start_store("resp", tracer)
        driver = None
        try:
            driver = make_driver("resp", endpoint)
            if lossy:
                drop_one_mutation(driver)
            cache = CoreCache("bench", INSTANCE_ID, 0, driver, flush_interval_us=FLUSH_INTERVAL_US)
            ctx = StateContext(cache)
            counter = ctx.create_counter("calls")
            table = ctx.create_map("fresh")
            hits = ctx.create_counter_map("fields")
            setup_s = perf_counter() - start

            waits = array("d")
            done = []
            loop_start = perf_counter()
            for op in plan:
                begin = perf_counter_ns()
                try:
                    if op[0] == "add":
                        counter.add(1)
                    elif op[0] == "insert":
                        table.insert(op[1], op[2])
                    else:
                        hits.add_to(op[1], 1)
                except StateError:
                    continue
                waits.append((perf_counter_ns() - begin) / 1000)
                done.append(op)
            loop_end = perf_counter()
            stats = cache.drain()
            drain_end = perf_counter()

            model = ModelStore()
            for op in done:
                if op[0] == "add":
                    model.apply_mutation(counter.key, Mutation("incr", None, 1))
                elif op[0] == "insert":
                    model.apply_mutation(table.key, Mutation("map_set", op[1], op[2]))
                else:
                    model.apply_mutation(hits.key, Mutation("map_incr", op[1], 1))
            checks = {}
            failed = len(plan) - len(done)
            with driver.connect() as fresh:
                for name, handle in (("add", counter), ("insert", table), ("add_to", hits)):
                    ok = fresh.fetch(handle.key) == model.fetch(handle.key)
                    checks[f"store_matches_calls_{name}"] = ok
                    if not ok:
                        failed += sum(1 for op in done if op[0] == name)
        finally:
            if driver is not None:
                driver.close()
            if server is not None:
                server.stop()

        return RepResult(
            attempted=len(plan),
            failed=failed,
            checks=checks,
            setup_s=setup_s,
            items=len(done),
            busy_s=loop_end - loop_start,
            durable_s=drain_end - loop_start,
            waits_us=waits,
            flush=stats.as_dict(),
            drain_s=drain_end - loop_end,
        )


COUNTER_HOT = PacketWorkload(
    name="counter-hot",
    nf="counter-async",
    driver_label="flatkvs",
    n_flows=20_000,
    budget=200_000,
)

WORKLOADS = {
    COUNTER_HOT.name: COUNTER_HOT,
    "nat-churn-resp": PacketWorkload(
        name="nat-churn-resp",
        nf="nat",
        driver_label="resp",
        n_flows=25_000,
        budget=50_000,
    ),
    "sync-resp": SyncWorkload(name="sync-resp"),
}
