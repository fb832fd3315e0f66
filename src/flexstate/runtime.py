"""Simulated multi-core packet runtime.

A dispatcher thread plays the NIC. It pulls the packet stream in slabs of
CHUNK_PACKETS and feeds per-core queues of QUEUE_PACKETS in chunks:

  one core: one queue, so no flow hashing at all; each slab is offered
    as it is, which cuts the stream straight into chunks (full chunks,
    then one shorter last chunk).
  more cores: each packet of a slab goes to a core by a deterministic
    hash of its 5-tuple (same flow, same core, always) and waits in that
    core's buffer until the buffer holds a full chunk.

Each core is an ordinary thread running one NF instance over one
StateContext. Two feeding modes:

  lossless (default): the dispatcher blocks when a queue is full; every
    packet offered is eventually processed. Used for closed-loop runs
    where exact packet accounting matters.
  timed (duration_s set): the dispatcher drops whole chunks when a queue
    is full and counts them; nothing ever blocks on a slow core. The
    deadline is checked after each slab.

Either way the books must balance: packets_in == processed + dropped.
If the packet source raises, the packets it gave are still offered, every
core gets its end-of-stream sentinel and drains, and then the source's
error propagates.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, NamedTuple

from .api import StateContext
from .cache import CoreCache
from .config import FlexConfig
from .errors import StateError
from . import drivers

MIN_PACKET_SIZE = 54
DEFAULT_PACKET_SIZE = 64
QUEUE_PACKETS = 65536
CHUNK_PACKETS = 256

_M64 = (1 << 64) - 1


class Packet(NamedTuple):
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int
    size: int = DEFAULT_PACKET_SIZE
    meta: object = None


def make_packet(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    proto: int,
    size: int = DEFAULT_PACKET_SIZE,
) -> Packet:
    """Validating constructor; the bare tuple is for trusted hot paths."""
    if not 0 <= src_ip <= 0xFFFFFFFF or not 0 <= dst_ip <= 0xFFFFFFFF:
        raise ValueError("ip addresses must fit in 32 bits")
    if not 0 <= src_port <= 0xFFFF or not 0 <= dst_port <= 0xFFFF:
        raise ValueError("ports must fit in 16 bits")
    if not 0 <= proto <= 0xFF:
        raise ValueError("protocol must fit in 8 bits")
    if size < MIN_PACKET_SIZE:
        raise ValueError(f"packet size {size} below minimum {MIN_PACKET_SIZE}")
    return Packet(src_ip, dst_ip, src_port, dst_port, proto, size)


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def rss_hash(flow: tuple, n_cores: int) -> int:
    """Deterministic, well-mixed 5-tuple to core mapping."""
    if n_cores < 1:
        raise ValueError("n_cores must be at least 1")
    src_ip, dst_ip, src_port, dst_port, proto = flow
    hi = (src_ip << 32) | dst_ip
    lo = (src_port << 24) | (dst_port << 8) | proto
    return _mix64(_mix64(hi) ^ lo) % n_cores


@dataclass
class CoreReport:
    core_id: int
    processed: int = 0
    forwarded: int = 0
    nf_dropped: int = 0
    queue_dropped: int = 0
    discarded_after_error: int = 0
    flush: dict = field(default_factory=dict)
    nf_summary: dict = field(default_factory=dict)


@dataclass
class RunReport:
    nf_name: str
    driver_label: str
    cores: int
    packets_in: int
    processed: int
    forwarded: int
    nf_dropped: int
    queue_dropped: int
    duration_s: float
    pps: float
    per_core: list[CoreReport]

    def conservation_ok(self) -> bool:
        return self.packets_in == self.processed + self.queue_dropped

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["per_core"] = [dict(c.__dict__) for c in self.per_core]
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _Worker(threading.Thread):
    def __init__(
        self,
        pool: "WorkerPool",
        core_id: int,
        inbox: queue.Queue,
        nf_factory: Callable[[], object],
    ):
        super().__init__(name=f"worker-core{core_id}", daemon=True)
        self.pool = pool
        self.core_id = core_id
        self.inbox = inbox
        self.nf_factory = nf_factory
        self.nf = None
        self.cache: CoreCache | None = None
        self.report = CoreReport(core_id)
        self.end_time = 0.0
        self.error: str | None = None

    def run(self) -> None:
        pool = self.pool
        config = pool.config
        try:
            self.cache = CoreCache(
                config.nf_id,
                config.instance_id,
                self.core_id,
                pool.driver,
                flush_interval_us=config.flush_interval_us,
            )
            ctx = StateContext(self.cache, pool.n_cores)
            self.nf = self.nf_factory()
            self.nf.setup(ctx)
            self._loop(ctx)
        except BaseException:
            self.error = traceback.format_exc()
            self._discard_until_sentinel()
        finally:
            self.end_time = time.perf_counter()
            if self.cache is not None:
                try:
                    self.cache.drain()
                except StateError as exc:
                    if self.error is None:
                        self.error = f"drain failed: {exc}"
                self.report.flush = self.cache.stats.as_dict()

    def _loop(self, ctx: StateContext) -> None:
        # Counted per chunk; a chunk an NF error cuts short is not counted.
        handle = self.nf.handle
        processed = nf_dropped = 0
        try:
            for chunk in iter(self.inbox.get, None):
                for pkt in chunk:
                    if handle(pkt, ctx) is None:
                        nf_dropped += 1
                processed += len(chunk)
        finally:
            self.report.processed = processed
            self.report.forwarded = processed - nf_dropped
            self.report.nf_dropped = nf_dropped

    def _discard_until_sentinel(self) -> None:
        # The dispatcher sends the sentinel even when its source fails.
        for chunk in iter(self.inbox.get, None):
            self.report.discarded_after_error += len(chunk)


class WorkerPool:
    """Dispatcher plus one worker thread per simulated core."""

    def __init__(self, config: FlexConfig, n_cores: int, driver=None):
        if n_cores < 1:
            raise ValueError("n_cores must be at least 1")
        self.config = config
        self.n_cores = n_cores
        self.driver = driver if driver is not None else drivers.from_config(config)
        self.workers: list[_Worker] = []

    def run(
        self,
        nf_factory: Callable[[], object],
        packets: Iterable[Packet],
        *,
        duration_s: float | None = None,
        nf_name: str = "nf",
    ) -> RunReport:
        n = self.n_cores
        queue_chunks = max(1, QUEUE_PACKETS // CHUNK_PACKETS)
        inboxes = [queue.Queue(maxsize=queue_chunks) for _ in range(n)]
        self.workers = [
            _Worker(self, core, inboxes[core], nf_factory) for core in range(n)
        ]
        for w in self.workers:
            w.start()

        chunk_size = CHUNK_PACKETS
        lossless = duration_s is None
        buffers: list[list] = [[] for _ in range(n)]
        queue_dropped = [0] * n
        packets_in = 0
        start = time.perf_counter()
        deadline = None if duration_s is None else start + duration_s

        def offer(core: int, buf: list) -> None:
            try:
                inboxes[core].put(buf, lossless)
            except queue.Full:
                queue_dropped[core] += len(buf)

        if n == 1:
            def dispatch(slab: list) -> None:
                offer(0, slab)
        else:
            route: dict[tuple, int] = {}

            def dispatch(slab: list) -> None:
                for pkt in slab:
                    flow = pkt[:5]
                    core = route.get(flow)
                    if core is None:
                        core = route[flow] = rss_hash(flow, n)
                    buf = buffers[core]
                    buf.append(pkt)
                    if len(buf) >= chunk_size:
                        buffers[core] = []
                        offer(core, buf)

        source = iter(packets)
        slab: list = []
        try:
            while True:
                # Filled in place, so that what a failing source gave
                # before raising is still dispatched below.
                slab.extend(islice(source, chunk_size))
                if not slab:
                    break
                packets_in += len(slab)
                taken, slab = slab, []
                dispatch(taken)
                if deadline is not None and time.perf_counter() >= deadline:
                    break
        finally:
            try:
                if slab:
                    dispatch(slab)
                for core, buf in enumerate(buffers):
                    if buf:
                        offer(core, buf)
            finally:
                for inbox in inboxes:
                    inbox.put(None)
                for w in self.workers:
                    w.join()

        errors = [w.error for w in self.workers if w.error]
        if errors:
            raise RuntimeError(
                f"{len(errors)} worker(s) failed; first failure:\n{errors[0]}"
            )

        wall = max(w.end_time for w in self.workers) - start
        for w in self.workers:
            c = w.report
            c.queue_dropped = queue_dropped[w.core_id] + c.discarded_after_error
            c.nf_summary = self._summary_of(w.nf)
        per_core = [w.report for w in self.workers]
        processed = sum(c.processed for c in per_core)
        report = RunReport(
            nf_name=nf_name,
            driver_label=getattr(self.driver, "label", "?"),
            cores=n,
            packets_in=packets_in,
            processed=processed,
            forwarded=sum(c.forwarded for c in per_core),
            nf_dropped=sum(c.nf_dropped for c in per_core),
            queue_dropped=sum(c.queue_dropped for c in per_core),
            duration_s=wall,
            pps=processed / wall if wall > 0 else 0.0,
            per_core=per_core,
        )
        return report

    @staticmethod
    def _summary_of(nf) -> dict:
        summary = getattr(nf, "summary", None)
        if summary is None:
            return {}
        try:
            return summary()
        except Exception:
            return {}
