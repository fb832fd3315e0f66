"""Span tracing installed from outside the program, for the traced run.

Nothing under src/ knows about this module. `Tracer.install()` replaces a
fixed set of public functions and methods (handle methods, CoreCache and
Flusher methods, Driver.apply/fetch, StoreKey.render and the RESP codec)
with timing wrappers, and `uninstall()` puts the originals back. The NF's
`handle` and the packet source are wrapped per run by the workload code.

Every wrapped call is accounted exactly: call count, total time, and self
time (its duration minus the time its wrapped children took on the same
thread). Span records are kept only for sampled work items:

  * a packet (root span `nf.handle`), a waiting call made outside the
    runtime (root span `api.*`), and a server command (root span
    `resp.server_dispatch`) are sampled 1 in SAMPLE_EVERY, counted per
    thread;
  * flusher ticks (`cache.tick`), drains, fetches and packet-source
    pulls are always recorded;
  * inside a recorded flush, the per-mutation spans `keys.render`,
    `resp.encode_command` and `resp.read_reply` are again kept 1 in
    SAMPLE_EVERY.

Span durations are wall time on one thread, so they include time spent
waiting for the GIL and for locks. A span is the tuple
(trace_id, span_id, parent_id, name, start_ns, end_ns); spans of one
packet, call or flush share a trace_id. They stay in memory until
`write_spans()` writes them, gzipped JSON lines, at the end of the run.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
from time import perf_counter_ns

SAMPLE_EVERY = 32
SOURCE_CHUNK = 256

# Per-mutation spans inside a flush; thinned so a 50k-mutation flush does
# not produce 150k span records.
_PER_MUTATION = frozenset({"keys.render", "resp.encode_command", "resp.read_reply"})
_APPLY_SPANS = frozenset({"driver.flush_apply", "driver.sync_apply"})

_READ_METHODS = frozenset(
    {"read", "exists", "get", "has", "read_all", "size", "length", "contains"}
)


class _Frame:
    __slots__ = ("name", "span_id", "trace_id", "record", "child_ns", "in_apply")

    def __init__(self, name, span_id, trace_id, record, in_apply):
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.record = record
        self.in_apply = in_apply
        self.child_ns = 0


class _ThreadStats:
    """Accumulators owned by one thread, merged after the run."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.roots: dict[str, int] = {}
        self.thinned: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls_in_apply: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.batch_sizes: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._threads_lock = threading.Lock()
        self._flush_sessions: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # Per-thread state.

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._threads_lock:
                self._threads.append(stats)
        return stats

    # Wrapping.

    def wrap(self, name: str, fn, *, always: bool = False, outermost: bool = False):
        """Time every call of fn under the span name `name`.

        always: record the span of every root call (not 1 in SAMPLE_EVERY).
        outermost: a recursive call inside a span of the same name is not
        a span of its own (read_reply parses array elements by recursion).
        """
        layer = name.split(".", 1)[0]
        spans = self.spans
        ids = self._ids
        stats_of = self._stats
        thinned = name in _PER_MUTATION
        is_apply = name in _APPLY_SPANS

        def wrapper(*args, **kwargs):
            stats = stats_of()
            stack = stats.stack
            if stack:
                parent = stack[-1]
                if outermost and parent.name == name:
                    return fn(*args, **kwargs)
                trace_id = parent.trace_id
                parent_id = parent.span_id
                record = parent.record
                if record and thinned:
                    n = stats.thinned.get(name, 0)
                    stats.thinned[name] = n + 1
                    record = n % SAMPLE_EVERY == 0
                in_apply = parent.in_apply or is_apply
            else:
                trace_id = next(ids)
                parent_id = None
                n = stats.roots.get(name, 0)
                stats.roots[name] = n + 1
                record = always or n % SAMPLE_EVERY == 0
                in_apply = is_apply
            frame = _Frame(name, next(ids), trace_id, record, in_apply)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                stats.calls[name] = stats.calls.get(name, 0) + 1
                stats.total_ns[name] = stats.total_ns.get(name, 0) + took
                stats.self_ns[layer] = (
                    stats.self_ns.get(layer, 0) + took - frame.child_ns
                )
                if stack:
                    stack[-1].child_ns += took
                    if stack[-1].in_apply:
                        stats.calls_in_apply[name] = (
                            stats.calls_in_apply.get(name, 0) + 1
                        )
                if record:
                    spans.append(
                        (trace_id, frame.span_id, parent_id, name, start, end)
                    )

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_source(self, packets):
        """Pull packets in chunks, one always-recorded span per chunk."""
        pull = self.wrap("trafficgen.next", _take_chunk, always=True)
        iterator = iter(packets)
        while True:
            chunk = pull(iterator)
            if not chunk:
                return
            stats = self._stats()
            stats.calls["trafficgen.packets"] = (
                stats.calls.get("trafficgen.packets", 0) + len(chunk)
            )
            yield from chunk

    def server_class(self, base):
        """MiniRespServer subclass whose command dispatch is timed."""
        return type(
            "TracedRespServer",
            (base,),
            {"_dispatch": self.wrap("resp.server_dispatch", base._dispatch)},
        )

    # Installing and removing the wrappers.

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from flexstate import api
        from flexstate.cache import CoreCache, Flusher
        from flexstate.drivers.base import Driver
        from flexstate.keys import StoreKey
        from flexstate.resp import protocol

        for cls in (
            api.CounterHandle,
            api.NameValueHandle,
            api.MapHandle,
            api.CounterMapHandle,
            api.ListHandle,
            api.SetHandle,
        ):
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not callable(fn):
                    continue
                self._patch(cls, attr, self.wrap(f"api.{attr}", fn))

        self._patch(CoreCache, "apply_op", self.wrap("cache.apply_op", CoreCache.apply_op))
        self._patch(CoreCache, "drain", self.wrap("cache.drain", CoreCache.drain, always=True))
        self._patch(Flusher, "tick_once", self.wrap("cache.tick", Flusher.tick_once, always=True))

        take = self.wrap("cache.take_pending", CoreCache.take_pending)
        sizes = self.batch_sizes

        def take_pending(cache):
            batch, swap_id = take(cache)
            if batch:
                sizes.append(len(batch))
            return batch, swap_id

        self._patch(CoreCache, "take_pending", take_pending)

        flush_sessions = self._flush_sessions
        original_init = CoreCache.__init__

        def init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            flush_sessions.add(cache.flusher_session)

        self._patch(CoreCache, "__init__", init)

        flush_apply = self.wrap("driver.flush_apply", Driver.apply)
        sync_apply = self.wrap("driver.sync_apply", Driver.apply)
        stats_of = self._stats

        def apply(driver, session, batch):
            name = "flush" if session in flush_sessions else "sync"
            calls = stats_of().calls
            calls[f"mutations.{name}"] = calls.get(f"mutations.{name}", 0) + len(batch)
            if name == "flush":
                return flush_apply(driver, session, batch)
            return sync_apply(driver, session, batch)

        self._patch(Driver, "apply", apply)
        self._patch(Driver, "fetch", self.wrap("driver.fetch", Driver.fetch, always=True))
        self._patch(StoreKey, "render", self.wrap("keys.render", StoreKey.render))
        self._patch(
            protocol,
            "encode_command",
            self.wrap("resp.encode_command", protocol.encode_command),
        )
        self._patch(
            protocol,
            "read_reply",
            self.wrap("resp.read_reply", protocol.read_reply, outermost=True),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # Results.

    def merged(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {
            "calls": {},
            "total_ns": {},
            "self_ns": {},
            "calls_in_apply": {},
        }
        with self._threads_lock:
            threads = list(self._threads)
        for stats in threads:
            for field, into in out.items():
                for key, value in getattr(stats, field).items():
                    into[key] = into.get(key, 0) + value
        return out

    def durations_us(self, predicate) -> list[float]:
        return [
            (end - start) / 1000
            for _t, _s, _p, name, start, end in self.spans
            if predicate(name)
        ]

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for trace_id, span_id, parent_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "span": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                )
                fh.write("\n")


def is_read(name: str) -> bool:
    return name.startswith("api.") and name[4:] in _READ_METHODS


def is_mutate(name: str) -> bool:
    return name.startswith("api.") and name[4:] not in _READ_METHODS


def _take_chunk(iterator) -> list:
    return list(itertools.islice(iterator, SOURCE_CHUNK))
