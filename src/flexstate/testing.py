"""Test doubles: a semantic model of the store, recorders, workload gens.

ModelStore is the reference the real drivers are compared against. It is
written as directly as possible from the mutation vocabulary's meaning (no
command translation, no key flattening games) so that agreement between a
driver and the model is evidence about the driver, not shared code.
"""

from __future__ import annotations

import random
import threading

from .drivers.base import Driver, DriverSession, Mutation, MutationBatch
from .errors import ConnectionLost, Overflow, TypeConflict
from .keys import StoreKey, StructureType, build_key, key_prefix, parse_key
from .limits import INT64_MAX, INT64_MIN


class ModelStore:
    """Plain-Python meaning of each mutation kind."""

    def __init__(self):
        self._data: dict[str, object] = {}

    def apply(self, batch: MutationBatch) -> None:
        for key, m in batch.items:
            self.apply_mutation(key, m)

    def apply_mutation(self, key: StoreKey, m: Mutation) -> None:
        name = key.render()
        data = self._data
        kind = m.kind
        if kind == "set_blob":
            data[name] = m.value
        elif kind == "delete":
            data.pop(name, None)
        elif kind == "incr":
            value = data.get(name, 0) + m.value
            if not INT64_MIN <= value <= INT64_MAX:
                raise Overflow(f"{value} outside signed 64-bit range")
            data[name] = value
        elif kind == "map_set":
            data.setdefault(name, {})[m.field] = m.value
        elif kind == "map_del":
            entries = data.get(name)
            if entries is not None:
                entries.pop(m.field, None)
                if not entries:
                    del data[name]
        elif kind == "map_incr":
            entries = data.setdefault(name, {})
            value = entries.get(m.field, 0) + m.value
            if not INT64_MIN <= value <= INT64_MAX:
                raise Overflow(f"{value} outside signed 64-bit range")
            entries[m.field] = value
        elif kind == "list_append":
            data.setdefault(name, []).append(m.value)
        elif kind == "set_add":
            data.setdefault(name, set()).add(m.value)
        elif kind == "set_del":
            members = data.get(name)
            if members is not None:
                members.discard(m.value)
                if not members:
                    del data[name]
        else:
            raise TypeConflict(f"unknown mutation kind {kind!r}")

    def fetch(self, key: StoreKey):
        value = self._data.get(key.render())
        if value is None:
            return None
        if isinstance(value, dict):
            return dict(value) or None
        if isinstance(value, set):
            return set(value) or None
        if isinstance(value, list):
            return list(value) or None
        return value

    def scan_prefix(self, nf_id: str, instance_id: str):
        prefix = key_prefix(nf_id, instance_id)
        out = []
        for name in sorted(self._data):
            if name.startswith(prefix):
                key = parse_key(name)
                out.append((key, self.fetch(key)))
        return out

    def wipe(self) -> None:
        self._data.clear()


class _RecordingSession(DriverSession):
    inner: DriverSession


class RecordingDriver(Driver):
    """Pass-through driver that records applied batches and can inject
    failures.

    applied holds (session id, seq, items) per batch the inner driver took.
    fail_applies makes the next N apply calls raise ConnectionLost before
    reaching the inner driver, which is how flusher retry paths get
    exercised deterministically.
    """

    label = "recording"

    def __init__(self, inner: Driver):
        super().__init__()
        self.inner = inner
        self.applied: list[tuple[int, int, list]] = []
        self.fail_applies = 0
        self._record_lock = threading.Lock()

    def _make_session(self, session_id: int):
        session = _RecordingSession(self, session_id)
        session.inner = self.inner.connect()
        return session

    def _apply(self, session: _RecordingSession, batch: MutationBatch) -> None:
        with self._record_lock:
            if self.fail_applies > 0:
                self.fail_applies -= 1
                raise ConnectionLost("injected failure")
        # The caller's batch: a trim the inner driver makes reaches the caller.
        self.inner.apply(session.inner, batch)
        with self._record_lock:
            self.applied.append((session.session_id, batch.seq, list(batch.items)))

    def _fetch(self, session: _RecordingSession, key: StoreKey):
        return self.inner.fetch(session.inner, key)

    def _scan(self, session: _RecordingSession, nf_id: str, instance_id: str):
        return self.inner.scan_prefix(session.inner, nf_id, instance_id)

    def _wipe(self, session: _RecordingSession) -> None:
        self.inner.wipe(session.inner)

    def close_session(self, session: _RecordingSession) -> None:
        session.inner.close()

    def applied_mutations(self) -> list[tuple[StoreKey, Mutation]]:
        return [item for _sid, _seq, items in self.applied for item in items]


# Randomized workloads for conformance runs. Deltas and value sizes are
# kept small enough that no legal sequence can overflow or hit size caps;
# the point is dense key collisions, not boundary hunting.

_FIELD_POOL = [b"f%d" % i for i in range(8)]
_MEMBER_POOL = [b"m%d" % i for i in range(8)]


def random_population(
    rng: random.Random,
    nf_id: str = "nf1",
    instance_id: str = "ins1",
    cores: int = 4,
    per_core_per_type: int = 2,
) -> list[StoreKey]:
    keys = []
    for core in range(cores):
        for stype in StructureType:
            for i in range(per_core_per_type):
                keys.append(
                    build_key(nf_id, instance_id, core, stype, f"s{i}")
                )
    rng.shuffle(keys)
    return keys


def random_mutation(rng: random.Random, key: StoreKey) -> Mutation:
    stype = key.structure_type
    roll = rng.random()
    if stype is StructureType.COUNTER:
        if roll < 0.80:
            return Mutation("incr", None, rng.randint(-1000, 1000))
        if roll < 0.95:
            return Mutation("set_blob", None, rng.randint(-10000, 10000))
        return Mutation("delete")
    if stype is StructureType.NAME_VALUE:
        if roll < 0.90:
            return Mutation("set_blob", None, rng.randbytes(rng.randint(0, 24)))
        return Mutation("delete")
    if stype is StructureType.MAP:
        field = rng.choice(_FIELD_POOL)
        if roll < 0.70:
            return Mutation("map_set", field, rng.randbytes(rng.randint(0, 16)))
        if roll < 0.95:
            return Mutation("map_del", field)
        return Mutation("delete")
    if stype is StructureType.COUNTER_MAP:
        field = rng.choice(_FIELD_POOL)
        if roll < 0.70:
            return Mutation("map_incr", field, rng.randint(-500, 500))
        if roll < 0.85:
            return Mutation("map_set", field, rng.randint(-5000, 5000))
        if roll < 0.95:
            return Mutation("map_del", field)
        return Mutation("delete")
    if stype is StructureType.LIST:
        if roll < 0.90:
            return Mutation("list_append", None, rng.randbytes(rng.randint(0, 12)))
        return Mutation("delete")
    if roll < 0.70:
        return Mutation("set_add", None, rng.choice(_MEMBER_POOL))
    if roll < 0.95:
        return Mutation("set_del", None, rng.choice(_MEMBER_POOL))
    return Mutation("delete")


def random_sequence(
    rng: random.Random, keys: list[StoreKey], length: int
) -> list[tuple[StoreKey, Mutation]]:
    return [
        (key, random_mutation(rng, key))
        for key in (rng.choice(keys) for _ in range(length))
    ]
