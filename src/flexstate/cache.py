"""Per-core write-back cache and its background flusher.

One cache belongs to one worker (core). The worker reads and mutates local
structure state without talking to the store; every mutation also folds
into a small pending log. A flusher thread swaps the log out on a fixed
cadence and applies it to the store through the driver as one batch.
Folding keeps the batch proportional to the number of structures touched,
not the number of calls: a thousand add(1) calls between flushes leave one
incr(+1000).

The flusher ticks only while there is something to flush. Its deadlines
sit on a grid of whole intervals; a deadline that finds nothing pending
and nothing retained parks it on the cache's Condition, and the first
_nowait fold that makes a structure dirty wakes it (so does stop()). A
woken or late flusher goes to the first grid boundary after now: missed
boundaries are skipped, never run as catch-up ticks. An idle cache, or one
used only through waiting calls, costs no ticks at all.

Waiting calls (the non-_nowait forms) push just their own structure's
pending mutations out of band and return once the store acknowledged them.
If the flusher currently has a batch in flight (or retained after a
failure), the waiting call first waits for that batch so the store sees
one order per structure.

Each open structure's entry is its handle (api.py). Every handle mutator,
in both forms, enters through apply_op(state, method, a, b), with state
the handle and method one of its folds: the arguments are plain
positionals, the _nowait forms pass nothing else and the waiting forms add
wait=True. Counter and CounterMap increments check their int argument,
and the live value it gives, inside the fold; a Counter's pending sum is
range-checked once per collect instead (api.py).

Locking: one plain threading.Lock guards the pending log, the dirty list
and the flush bookkeeping. The mutation path (apply_op) takes it with an
explicit acquire/release pair, one raw-lock round trip per call; the cold
paths (structure creation, the flusher's swap and outcome, a waiting
call's barrier) take it through a Condition built on the same lock, which
adds the wait/notify that the barrier needs. The lock is not re-entrant
and nothing re-enters it: the code run while it is held is the handles'
folds, their _collect and MutationBatch.add, none of which calls back
into the cache.
Live values are only ever touched by the owning worker thread, so reads
take no lock at all.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import NoReturn

from .api import _HANDLE_BY_TYPE
from .config import check_flush_interval
from .drivers.base import Driver, MutationBatch
from .errors import (
    BackpressureSignal,
    ConnectionLost,
    StateError,
    StoreUnavailable,
    TypeConflict,
)
from .keys import StructureType, build_key, check_structure_id

BACKPRESSURE_LIMIT = 2**20  # pending + retained mutations at which a fold is refused
RETRY_BASE_S = 0.001
RETRY_CAP_S = 0.100
SYNC_TIMEOUT_S = 5.0
DRAIN_TIMEOUT_S = 10.0
_NO_ARG = object()  # an apply_op argument slot the mutator does not take


def _retry(deadline: float, call, *args):
    """call(*args), retried with exponential backoff after each
    ConnectionLost; the last one is re-raised once the next try would
    start past deadline (a time.monotonic() value)."""
    try:
        return call(*args)
    except ConnectionLost as exc:
        lost = exc
    return _retry_after(lost, deadline, call, *args)


def _retry_after(lost: ConnectionLost, deadline: float, call, *args):
    """_retry's schedule once call(*args) has raised lost: wait
    RETRY_BASE_S, try again, and double the wait after each further
    ConnectionLost up to RETRY_CAP_S. The last ConnectionLost is re-raised
    once the next try would start past deadline."""
    delay = RETRY_BASE_S
    while time.monotonic() + delay <= deadline:
        time.sleep(delay)
        delay = min(delay * 2, RETRY_CAP_S)
        try:
            return call(*args)
        except ConnectionLost as exc:
            lost = exc
    raise lost


@dataclass
class FlushStats:
    ticks: int = 0
    empty_ticks: int = 0
    flushes_attempted: int = 0
    flushes_succeeded: int = 0
    mutations_flushed: int = 0
    retries: int = 0
    sync_flushes: int = 0
    drain_mutations: int = 0
    dead_letters: int = 0
    last_error: str = ""

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class CoreCache:
    """Write-back cache for the structures of one core."""

    def __init__(
        self,
        nf_id: str,
        instance_id: str,
        core_id: int,
        driver: Driver,
        *,
        flush_interval_us: int = 1000,
    ):
        check_flush_interval(flush_interval_us)
        self.nf_id = nf_id
        self.instance_id = instance_id
        self.core_id = core_id
        self.driver = driver
        # An instance attribute, not the global: apply_op reads it per call.
        self.backpressure_limit = BACKPRESSURE_LIMIT

        self._registry: dict[str, object] = {}  # structure id -> handle
        self._dirty: dict[object, None] = {}
        self._pending_total = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)

        # Flush bookkeeping, guarded by _lock. Swap ids only grow, and
        # _inflight_swap holds the flusher's batch's id until it settles,
        # retained or not.
        self._flusher_parked = False
        self._swap_counter = 0
        self._inflight_swap: int | None = None
        self._retained_len = 0

        self.worker_session = driver.connect()
        self.flusher_session = driver.connect()
        self.stats = FlushStats()
        self.flusher = Flusher(self, flush_interval_us)

    # Structure lifecycle

    def create_structure(self, stype: StructureType, structure_id: str):
        """The handle registered for structure_id, built and hydrated from
        the store the first time the id is opened."""
        check_structure_id(structure_id)
        with self._cond:
            existing = self._registry.get(structure_id)
            if existing is not None:
                if existing._stype is not stype:
                    raise TypeConflict(
                        f"id {structure_id!r} already open as {existing._stype.token}"
                    )
                return existing
        key = build_key(self.nf_id, self.instance_id, self.core_id, stype, structure_id)
        try:
            snapshot = _retry(
                time.monotonic() + SYNC_TIMEOUT_S, self.worker_session.fetch, key
            )
        except ConnectionLost as exc:
            raise StoreUnavailable(f"cannot hydrate {key}: {exc}") from exc
        handle = _HANDLE_BY_TYPE[stype](self, key, snapshot)
        with self._cond:
            return self._registry.setdefault(structure_id, handle)

    # Mutation entry point used by the handles: the fold method(state, a, b)
    # with only the arguments given, as no fold takes more than two. wait is
    # passed by keyword but not keyword-only: CPython 3.11 does not
    # specialize calls to a function that has keyword-only parameters.

    def apply_op(self, state, method, a=_NO_ARG, b=_NO_ARG, wait: bool = False):
        lock = self._lock
        lock.acquire()
        try:
            if (
                self._pending_total + self._retained_len
                >= self.backpressure_limit
            ):
                raise BackpressureSignal(
                    f"{self._pending_total + self._retained_len} pending mutations"
                )
            if b is not _NO_ARG:
                delta = method(state, a, b)
            elif a is not _NO_ARG:
                delta = method(state, a)
            else:
                delta = method(state)
            if delta:
                # A fold that adds no slot (delta 0) or only removes some
                # lands on a structure that already has pending slots,
                # which is already dirty: collect empties the slots and
                # the dirty entry together, under this lock.
                self._pending_total += delta
                self._dirty[state] = None
                if self._flusher_parked and not wait:
                    # Parked means nothing was dirty: this fold is the
                    # first. notify_all, as waiting calls share the
                    # Condition.
                    self._flusher_parked = False
                    self._cond.notify_all()
            if not wait:
                return
            batch = MutationBatch()
            self._pending_total -= state._collect(batch)
            self._dirty.pop(state, None)
            barrier = self._inflight_swap
        finally:
            lock.release()
        self._sync_apply(batch, barrier)

    def _sync_apply(self, batch: MutationBatch, barrier: int | None) -> None:
        """Apply a waiting call's batch on the worker session, after the
        flusher's batch in flight (swap id barrier) has settled. A call
        that gives up, and a batch the store refuses, are dead-lettered
        as a flush's refused batch is; the refusal is re-raised."""
        deadline = time.monotonic() + SYNC_TIMEOUT_S
        if barrier is not None:
            with self._cond:
                settled = self._cond.wait_for(
                    lambda: self._inflight_swap != barrier, deadline - time.monotonic()
                )
            if not settled:
                self._give_up(batch, "timed out waiting for in-flight flush")
        # The first try goes straight to the driver: _retry's call and
        # argument packing would be paid on every round trip.
        session = self.worker_session
        apply = session.driver.apply
        try:
            try:
                apply(session, batch)
            except ConnectionLost as lost:
                _retry_after(lost, deadline, apply, session, batch)
        except ConnectionLost as exc:
            self._give_up(batch, "waiting call failed", exc)
        except StateError as exc:
            self._dead_letter(batch, exc)
            raise
        self.stats.sync_flushes += 1

    def _dead_letter(self, batch: MutationBatch, why: StateError | str) -> str:
        """A batch that will not reach the store, because the store refused
        it (a retry would only refuse again) or its caller gave up: write
        it to a dump, count it in stats.dead_letters, name the file and why
        in stats.last_error, and return the file's path."""
        path = self._dump_batch(batch)
        with self._cond:  # the flusher and a waiting call may both be here
            self.stats.dead_letters += 1
            self.stats.last_error = f"batch dead-lettered to {path}: {why}"
        return path

    def _give_up(self, batch: MutationBatch, what: str, exc=None) -> NoReturn:
        """Dead-letter batch, which could not be applied in time, and raise
        StoreUnavailable naming what gave up, the dump and the lost link
        (exc, a ConnectionLost) if there was one."""
        path = self._dead_letter(batch, exc or what)
        detail = "" if exc is None else f": {exc}"
        raise StoreUnavailable(f"{what}, mutations kept in {path}{detail}") from exc

    # Flusher side.

    def take_pending(self) -> tuple[MutationBatch, int | None]:
        """Swap the pending log out as one batch. Called by the flusher."""
        with self._cond:
            batch = MutationBatch()
            taken = 0
            for state in self._dirty:
                taken += state._collect(batch)
            self._dirty.clear()
            self._pending_total -= taken
            if not batch:
                return batch, None
            self._swap_counter += 1
            self._inflight_swap = self._swap_counter
            return batch, self._swap_counter

    def note_flush_outcome(self, retained_len: int) -> None:
        """The in-flight batch is retained (its length), or settled (0)."""
        with self._cond:
            if not retained_len:
                self._inflight_swap = None
            self._retained_len = retained_len
            self._cond.notify_all()

    @property
    def pending_mutations(self) -> int:
        return self._pending_total

    # Shutdown.

    def drain(self) -> FlushStats:
        """Stop the flusher, push everything left, close sessions.

        Once stopped, the flusher pushes its retained batch and then the
        final pending batch through the same path as a tick
        (Flusher.push_left): a batch the store refuses is dead-lettered
        and drain goes on. Lost links are retried until DRAIN_TIMEOUT_S
        has passed; then all that is left, retained batch first, is
        dead-lettered as one batch and StoreUnavailable raised.
        """
        flusher = self.flusher
        flusher.stop()
        try:
            _retry(time.monotonic() + DRAIN_TIMEOUT_S, flusher.push_left, True)
        except ConnectionLost as exc:
            items = flusher.retained_batch.items + self.take_pending()[0].items
            self._give_up(MutationBatch(items), "drain failed", exc)
        finally:
            self.worker_session.close()
            self.flusher_session.close()
        return self.stats

    def _dump_batch(self, batch: MutationBatch) -> str:
        def enc(value):
            if isinstance(value, bytes):
                return {"b64": base64.b64encode(value).decode("ascii")}
            return value

        rows = [
            {
                "key": key.render(),
                "kind": m.kind,
                "field": enc(m.field),
                "value": enc(m.value),
            }
            for key, m in batch.items
        ]
        fd, path = tempfile.mkstemp(
            prefix=f"flexstate-drain-{self.nf_id}-{self.core_id}-", suffix=".json"
        )
        with os.fdopen(fd, "w") as fh:
            json.dump(rows, fh, indent=1)
        return path

    def flush_now(self) -> None:
        """Run one flusher tick inline. Test hook."""
        self.flusher.tick_once()


class Flusher:
    """Fixed-cadence background flush thread that parks while idle.

    The thread starts when the Flusher is built, the last step of
    CoreCache.__init__, and ends at stop(); a caller that flushes only by
    hand (CoreCache.flush_now) stops it first. Deadlines sit on a grid of
    whole intervals from the thread's start.
    At each one the flusher ticks if a structure is dirty or a batch is
    retained; otherwise it parks on the cache's Condition until a _nowait
    fold makes a structure dirty, or stop() is called. Waiting calls take
    their own slots out, so they never wake it. After a wake, a late tick
    or a backoff, the next deadline is the first grid boundary after now:
    the phase is kept and missed boundaries are skipped, so there are no
    catch-up ticks.

    Every batch a tick or CoreCache.drain takes goes through _push, the
    one place the flush rules live. A transport failure (ConnectionLost)
    retains the batch for the next try; the tick backs off, drain retries
    to its deadline. The resp driver has trimmed off what the store
    answered, which counts as landed, so the retained batch, its
    backpressure count and a drain dump hold only unanswered mutations.
    Any other StateError means the store refused the batch (an Overflow, a
    TypeConflict), which a retry cannot change: the batch is written to a
    dump file (see _dump_batch), counted in stats.dead_letters, named with
    the error in stats.last_error, and acknowledged so waiting calls
    proceed and the cadence keeps running. The dump holds the whole batch:
    on a store without atomic batches (resp) the mutations around the
    refused one may have been applied.
    """

    def __init__(self, cache: CoreCache, interval_us: int):
        self.cache = cache
        self.interval_s = interval_us / 1_000_000
        self.retained_batch: MutationBatch | None = None
        self._backoff = RETRY_BASE_S
        self._stop = threading.Event()
        self._tick_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name=f"flusher-core{cache.core_id}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        with self.cache._cond:
            self.cache._cond.notify_all()  # wakes a parked flusher
        self._thread.join()  # a second stop joins an ended thread

    def _run(self) -> None:
        deadline = time.monotonic() + self.interval_s
        while True:
            delay = deadline - time.monotonic()
            if delay > 0:
                if self._stop.wait(delay):
                    return
            elif self._stop.is_set():
                return
            if self.retained_batch is None and self._park():
                # Woken by a fold: its tick waits for the next boundary.
                if self._stop.is_set():
                    return
            elif not self.tick_once():
                # Store down: back off, then rejoin the grid.
                if self._stop.wait(self._backoff):
                    return
                self._backoff = min(self._backoff * 2, RETRY_CAP_S)
            else:
                self._backoff = RETRY_BASE_S
            deadline = self._next_deadline(deadline)

    def _park(self) -> bool:
        """Wait while nothing is dirty. True when it waited, False at once
        when a structure is dirty. Returns early once stop() was called."""
        cache = self.cache
        parked = False
        with cache._cond:
            while not cache._dirty and not self._stop.is_set():
                parked = True
                cache._flusher_parked = True
                cache._cond.wait()
            cache._flusher_parked = False
        return parked

    def _next_deadline(self, deadline: float) -> float:
        """The first boundary of deadline's interval grid after now."""
        interval = self.interval_s
        now = time.monotonic()
        return deadline + ((now - deadline) // interval + 1) * interval

    def tick_once(self) -> bool:
        """One cadence tick. Returns False when the store was unreachable."""
        with self._tick_lock:
            stats = self.cache.stats
            stats.ticks += 1
            try:
                if not self.push_left(False):
                    stats.empty_ticks += 1
            except ConnectionLost:
                return False
            return True

    def push_left(self, draining: bool) -> bool:
        """Push the retained batch, then take the pending log and push it.

        False when the pending log was empty. A lost link leaves the
        batch it hit retained and propagates ConnectionLost.
        """
        if self.retained_batch is not None:
            self._push(self.retained_batch, draining)
        batch = self.cache.take_pending()[0]
        if not batch:
            return False
        self._push(batch, draining)
        return True

    def _push(self, batch: MutationBatch, draining: bool) -> None:
        """Apply batch on the flusher session and settle its swap.

        Landed batches count as drain_mutations when draining, else as a
        succeeded flush (a tick also counts every attempt).
        """
        cache = self.cache
        stats = cache.stats
        if not draining:
            stats.flushes_attempted += 1
        size = len(batch)
        try:
            cache.flusher_session.apply(batch)
        except ConnectionLost as exc:
            stats.retries += 1
            stats.last_error = str(exc)
            # A head the store answered was trimmed off the batch: it landed.
            if draining:
                stats.drain_mutations += size - len(batch)
            else:
                stats.mutations_flushed += size - len(batch)
            self.retained_batch = batch
            cache.note_flush_outcome(len(batch))
            raise
        except StateError as exc:
            cache._dead_letter(batch, exc)
        else:
            if draining:
                stats.drain_mutations += size
            else:
                stats.flushes_succeeded += 1
                stats.mutations_flushed += size
        self.retained_batch = None
        cache.note_flush_outcome(0)
