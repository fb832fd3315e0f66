"""Driver contract: mutation vocabulary, batches, sessions.

A driver translates store-agnostic mutations into the command set of one
backing store. The cache layer and the network functions above it never see
anything store-specific; swapping stores is a config edit.

The nine mutation kinds and their payloads; a driver refuses any other
kind with a StateError:

    set_blob(value)        whole-value write (bytes; an int for a Counter)
    delete()               drop the structure, whatever its type
    incr(n)                add n to a counter (absent counts as 0)
    map_set(field, value)  write one map entry (CounterMap values are ints)
    map_del(field)         drop one map entry
    map_incr(field, n)     add n to one CounterMap entry (absent counts as 0)
    list_append(value)     append one element
    set_add(value)         add one member
    set_del(value)         drop one member

Counter values travel as ints in every kind; a driver whose store holds
strings renders them as ASCII decimal at its own edge.

Batches carry a per-session sequence number, stamped on first apply and
kept across retries so stores that track sequences can discard duplicates.

Snapshots returned by fetch are plain Python values: bytes for blobs, int
for counters, dict[bytes, bytes] for maps, dict[bytes, int] for counter
maps, list[bytes] for lists, set[bytes] for sets, and None when absent. An
empty collection reads back as None on every driver: stores that drop a
hash when its last field goes cannot tell the two apart, so no driver is
allowed to.

In-process stores subclass LocalDriver, which holds the store itself as
one dict (self._data) and everything around it:

    - one lock, held around every batch apply, fetch, scan, wipe and dump;
    - exactly-once batches per session: a batch whose seq is not above the
      session's last applied seq is skipped, so retrying an applied batch
      is a no-op (wipe forgets every session's seq along with the data);
    - all-or-nothing batches for unknown kinds and integer failures.
      Before anything mutates, a validation pass refuses a kind outside
      the nine with TypeConflict and replays the batch's integer arithmetic
      on running values per key and raises the Overflow or TypeConflict
      the batch would hit, so an overflow in item 7 leaves items 1..6
      unapplied. It covers incr and map_incr sums, the values that
      set_blob writes to a Counter and map_set to a CounterMap (a non-int
      is a TypeConflict), and resets: map_del makes one field read 0,
      delete every field of the key. Failures of other kinds are not
      checked ahead;
    - fetch, which is one _snapshot, and scan, which checks the nf and
      instance tokens, then sorts, parses and snapshots the stored names
      that _names returns for the instance's key prefix.

A subclass supplies only its physical layout inside self._data:
_stored_int (the only thing validation asks of the store), _apply_one,
_snapshot and _names, which the base calls with the lock held, and dump,
which takes the lock itself.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import ClassVar, NamedTuple

from ..errors import ConfigSyntaxError, ConnectionLost, TypeConflict
from ..keys import StoreKey, StructureType, key_prefix, parse_key
from ..limits import check_int64

UNSET_SEQ = -1

KINDS = frozenset(
    "set_blob delete incr map_set map_del map_incr list_append set_add set_del".split()
)


class Mutation(NamedTuple):
    kind: str
    field: bytes | None = None
    value: object = None


def set_blob(value: bytes | int) -> Mutation:
    return Mutation("set_blob", None, value)


def delete() -> Mutation:
    return Mutation("delete")


def incr(n: int) -> Mutation:
    return Mutation("incr", None, n)


def map_set(field: bytes, value) -> Mutation:
    return Mutation("map_set", field, value)


def map_del(field: bytes) -> Mutation:
    return Mutation("map_del", field)


def map_incr(field: bytes, n: int) -> Mutation:
    return Mutation("map_incr", field, n)


def list_append(value: bytes) -> Mutation:
    return Mutation("list_append", None, value)


def set_add(value: bytes) -> Mutation:
    return Mutation("set_add", None, value)


def set_del(value: bytes) -> Mutation:
    return Mutation("set_del", None, value)


class MutationBatch:
    """Ordered mutations addressed to rendered store keys."""

    __slots__ = ("seq", "items")

    def __init__(
        self,
        items: list[tuple[StoreKey, Mutation]] | None = None,
        seq: int = UNSET_SEQ,
    ):
        self.items = items if items is not None else []
        self.seq = seq

    def add(self, key: StoreKey, mutation: Mutation) -> None:
        self.items.append((key, mutation))

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __repr__(self) -> str:
        return f"MutationBatch(seq={self.seq}, items={len(self.items)})"


class DriverSession:
    """One connection-like context. Sequence numbers are per session.

    Callers may go through the bound helpers (session.apply(...)) or call
    the driver directly (driver.apply(session, ...)); both paths are the
    same code. The driver's inject_latency_us, set when it is made, adds
    one synthetic round trip of delay to every apply, fetch and scan of
    each of its sessions, which is how a remote store's distance is
    modeled.
    """

    def __init__(self, driver: "Driver", session_id: int):
        self.driver = driver
        self.session_id = session_id
        self.closed = False
        self._seq = itertools.count(1)

    def next_seq(self) -> int:
        return next(self._seq)

    def apply(self, batch: MutationBatch) -> None:
        self.driver.apply(self, batch)

    def fetch(self, key: StoreKey):
        return self.driver.fetch(self, key)

    def scan_prefix(self, nf_id: str, instance_id: str):
        return self.driver.scan_prefix(self, nf_id, instance_id)

    def close(self) -> None:
        if not self.closed:
            self.driver.close_session(self)
            self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def check_inject_latency(inject_latency_us: int) -> None:
    """Refuse a negative injected latency."""
    if inject_latency_us < 0:
        raise ValueError("inject_latency_us must not be negative")


class Driver:
    """Base class wiring sessions, latency injection, and seq stamping."""

    label: ClassVar[str] = ""

    def __init__(self, *, inject_latency_us: int = 0):
        check_inject_latency(inject_latency_us)
        self.inject_latency_s = inject_latency_us / 1_000_000
        self._session_ids = itertools.count(1)

    def connect(self) -> DriverSession:
        return self._make_session(next(self._session_ids))

    def _make_session(self, session_id: int) -> DriverSession:
        return DriverSession(self, session_id)

    def apply(self, session: DriverSession, batch: MutationBatch) -> None:
        # _check_open and _pause spelled out: each waiting call runs this.
        if session.closed:
            raise ConnectionLost("session is closed")
        if self.inject_latency_s:
            time.sleep(self.inject_latency_s)
        if batch.seq == UNSET_SEQ:
            batch.seq = session.next_seq()
        self._apply(session, batch)

    def fetch(self, session: DriverSession, key: StoreKey):
        self._check_open(session)
        self._pause()
        return self._fetch(session, key)

    def scan_prefix(
        self, session: DriverSession, nf_id: str, instance_id: str
    ) -> list[tuple[StoreKey, object]]:
        self._check_open(session)
        self._pause()
        return self._scan(session, nf_id, instance_id)

    def wipe(self, session: DriverSession) -> None:
        """Drop every key. Test and bench plumbing, not part of NF flows."""
        self._check_open(session)
        self._wipe(session)

    def close_session(self, session: DriverSession) -> None:
        pass

    def close(self) -> None:
        pass

    def _pause(self) -> None:
        if self.inject_latency_s:
            time.sleep(self.inject_latency_s)

    @staticmethod
    def _check_open(session: DriverSession) -> None:
        if session.closed:
            raise ConnectionLost("session is closed")

    # Store-specific parts.

    def _apply(self, session: DriverSession, batch: MutationBatch) -> None:
        raise NotImplementedError

    def _fetch(self, session: DriverSession, key: StoreKey):
        raise NotImplementedError

    def _scan(self, session: DriverSession, nf_id: str, instance_id: str):
        raise NotImplementedError

    def _wipe(self, session: DriverSession) -> None:
        raise NotImplementedError


class LocalDriver(Driver):
    """In-process store skeleton: the data dict, lock, seq dedup, validation."""

    def __init__(self, endpoint: str, *, inject_latency_us: int = 0):
        if endpoint != "local":
            raise ConfigSyntaxError(
                f"driver {self.label!r} is in-process; endpoint must be 'local'"
            )
        super().__init__(inject_latency_us=inject_latency_us)
        self._data: dict = {}
        self._lock = threading.Lock()
        self._applied: dict[int, int] = {}  # session id -> last applied seq

    def _apply(self, session: DriverSession, batch: MutationBatch) -> None:
        with self._lock:
            if batch.seq <= self._applied.get(session.session_id, 0):
                return
            self._validate(batch)
            for key, m in batch.items:
                self._apply_one(key, m)
            self._applied[session.session_id] = batch.seq

    def _validate(self, batch: MutationBatch) -> None:
        running: dict[StoreKey, dict] = {}  # key -> field -> value so far
        dropped: set[StoreKey] = set()  # deleted in this batch: fields read 0
        for key, m in batch.items:
            kind = m.kind
            if kind == "incr" or kind == "map_incr":
                values = running.setdefault(key, {})
                field = m.field
                value = values.get(field)
                if value is None and key not in dropped:
                    value = self._stored_int(key, field)
                values[field] = check_int64((value or 0) + m.value)
            elif kind == "delete":
                running[key] = {}
                dropped.add(key)
            elif kind == "map_del":
                running.setdefault(key, {})[m.field] = 0
            elif (kind == "set_blob" and key.structure_type is StructureType.COUNTER) or (
                kind == "map_set" and key.structure_type is StructureType.COUNTER_MAP
            ):
                if not isinstance(m.value, int):
                    raise TypeConflict(f"value {m.value!r} is not an integer")
                running.setdefault(key, {})[m.field] = m.value
            elif kind not in KINDS:
                raise TypeConflict(f"unknown mutation kind {kind!r}")

    def _fetch(self, session: DriverSession, key: StoreKey):
        with self._lock:
            return self._snapshot(key)

    def _scan(self, session: DriverSession, nf_id: str, instance_id: str):
        prefix = key_prefix(nf_id, instance_id)
        with self._lock:
            keys = [parse_key(name) for name in sorted(self._names(prefix))]
            return [(key, self._snapshot(key)) for key in keys]

    def _wipe(self, session: DriverSession) -> None:
        with self._lock:
            self._data.clear()
            self._applied.clear()

    # Store-specific parts.

    def _stored_int(self, key: StoreKey, field: bytes | None) -> int | None:
        """Stored value of a Counter (field None) or CounterMap field."""
        raise NotImplementedError

    def _apply_one(self, key: StoreKey, m: Mutation) -> None:
        raise NotImplementedError

    def _snapshot(self, key: StoreKey):
        """The fetch value of one key (see the snapshot shapes above)."""
        raise NotImplementedError

    def _names(self, prefix: str):
        """Rendered names of the stored keys that start with prefix."""
        raise NotImplementedError

    def dump(self):
        """Copy of the raw layout, for inspection and debugging."""
        raise NotImplementedError
