"""In-process store with one flat key space.

Values live in a single dict keyed by the rendered store key. Value shapes
follow string-store conventions: counters are ASCII-decimal strings that
increments parse and rewrite, maps are field hashes, sets and lists are
native. Deleting the last entry of a collection deletes the key.

Locking, exactly-once batches and batch validation come from LocalDriver
(see drivers/base.py).
"""

from __future__ import annotations

from ..errors import TypeConflict
from ..keys import StoreKey, StructureType, key_prefix, parse_key
from ..limits import as_int, check_int64
from .base import DriverSession, LocalDriver, Mutation


class FlatStore:
    """Dict-of-values engine. Not thread-safe: the driver serializes access."""

    def __init__(self):
        self._data: dict[str, object] = {}

    def _typed(self, key: str, want: type):
        cur = self._data.get(key)
        if cur is not None and not isinstance(cur, want):
            raise TypeConflict(f"key {key} holds {type(cur).__name__}")
        return cur

    def set(self, key: str, value: bytes) -> None:
        self._data[key] = value

    def get(self, key: str) -> bytes | None:
        return self._typed(key, bytes)

    def delete(self, key: str) -> int:
        return 0 if self._data.pop(key, None) is None else 1

    def incrby(self, key: str, n: int) -> int:
        cur = self._typed(key, bytes)
        value = check_int64((0 if cur is None else as_int(cur)) + n)
        self._data[key] = str(value).encode()
        return value

    def hset(self, key: str, field: bytes, value: bytes) -> None:
        cur = self._typed(key, dict)
        if cur is None:
            cur = self._data[key] = {}
        cur[field] = value

    def hget(self, key: str, field: bytes) -> bytes | None:
        cur = self._typed(key, dict)
        return None if cur is None else cur.get(field)

    def hdel(self, key: str, field: bytes) -> int:
        cur = self._typed(key, dict)
        if cur is None or field not in cur:
            return 0
        del cur[field]
        if not cur:
            del self._data[key]
        return 1

    def hincrby(self, key: str, field: bytes, n: int) -> int:
        cur = self._typed(key, dict)
        if cur is None:
            cur = self._data[key] = {}
        value = check_int64(as_int(cur.get(field, b"0")) + n)
        cur[field] = str(value).encode()
        return value

    def hgetall(self, key: str) -> dict[bytes, bytes]:
        cur = self._typed(key, dict)
        return {} if cur is None else dict(cur)

    def sadd(self, key: str, member: bytes) -> int:
        cur = self._typed(key, set)
        if cur is None:
            cur = self._data[key] = set()
        if member in cur:
            return 0
        cur.add(member)
        return 1

    def srem(self, key: str, member: bytes) -> int:
        cur = self._typed(key, set)
        if cur is None or member not in cur:
            return 0
        cur.discard(member)
        if not cur:
            del self._data[key]
        return 1

    def smembers(self, key: str) -> set[bytes]:
        cur = self._typed(key, set)
        return set() if cur is None else set(cur)

    def rpush(self, key: str, value: bytes) -> int:
        cur = self._typed(key, list)
        if cur is None:
            cur = self._data[key] = []
        cur.append(value)
        return len(cur)

    def lrange(self, key: str, start: int, stop: int) -> list[bytes]:
        cur = self._typed(key, list)
        if cur is None:
            return []
        if stop == -1:
            return list(cur[start:])
        return list(cur[start : stop + 1])

    def llen(self, key: str) -> int:
        cur = self._typed(key, list)
        return 0 if cur is None else len(cur)

    def keys(self, prefix: str) -> list[str]:
        return [k for k in self._data if k.startswith(prefix)]

    def items(self):
        return self._data.items()

    def wipe(self) -> None:
        self._data.clear()


class FlatKvsDriver(LocalDriver):
    label = "flatkvs"

    def __init__(self):
        super().__init__(FlatStore())

    def _stored_int(self, key: StoreKey, field: bytes | None) -> int | None:
        engine = self._engine
        rendered = key.render()
        raw = engine.get(rendered) if field is None else engine.hget(rendered, field)
        return None if raw is None else as_int(raw)

    def _apply_one(self, key: StoreKey, m: Mutation) -> None:
        engine = self._engine
        rendered = key.render()
        kind = m.kind
        if kind == "incr":
            engine.incrby(rendered, m.value)
        elif kind == "map_set":
            value = m.value
            if key.structure_type is StructureType.COUNTER_MAP:
                value = str(value).encode()
            engine.hset(rendered, m.field, value)
        elif kind == "map_incr":
            engine.hincrby(rendered, m.field, m.value)
        elif kind == "map_del":
            engine.hdel(rendered, m.field)
        elif kind == "set_blob":
            engine.set(rendered, m.value)
        elif kind == "delete":
            engine.delete(rendered)
        elif kind == "list_append":
            engine.rpush(rendered, m.value)
        elif kind == "list_clear":
            engine.delete(rendered)
        elif kind == "set_add":
            engine.sadd(rendered, m.value)
        elif kind == "set_del":
            engine.srem(rendered, m.value)
        else:
            raise TypeConflict(f"unknown mutation kind {kind!r}")

    def _fetch(self, session: DriverSession, key: StoreKey):
        engine = self._engine
        rendered = key.render()
        stype = key.structure_type
        with self._lock:
            if stype is StructureType.NAME_VALUE:
                return engine.get(rendered)
            if stype is StructureType.COUNTER:
                raw = engine.get(rendered)
                return None if raw is None else as_int(raw)
            if stype is StructureType.MAP:
                h = engine.hgetall(rendered)
                return h or None
            if stype is StructureType.COUNTER_MAP:
                h = engine.hgetall(rendered)
                return {f: as_int(v) for f, v in h.items()} or None
            if stype is StructureType.LIST:
                items = engine.lrange(rendered, 0, -1)
                return items or None
            if stype is StructureType.SET:
                members = engine.smembers(rendered)
                return members or None
        raise TypeConflict(f"unknown structure type {stype!r}")

    def _scan(self, session: DriverSession, nf_id: str, instance_id: str):
        prefix = key_prefix(nf_id, instance_id)
        engine = self._engine
        out = []
        with self._lock:
            for rendered in sorted(engine.keys(prefix)):
                key = parse_key(rendered)
                out.append((key, self._fetch(session, key)))
        return out

    def dump(self) -> dict[str, object]:
        """Copy of the raw keyspace, for inspection and debugging."""
        with self._lock:
            out: dict[str, object] = {}
            for key, value in self._engine.items():
                if isinstance(value, dict):
                    out[key] = dict(value)
                elif isinstance(value, set):
                    out[key] = set(value)
                elif isinstance(value, list):
                    out[key] = list(value)
                else:
                    out[key] = value
            return out
