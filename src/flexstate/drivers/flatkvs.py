"""In-process store with one flat key space.

self._data maps each rendered store key to its value, shaped as a string
store shapes it: counters are ASCII-decimal bytes that increments parse
and rewrite, name-values are bytes, maps and CounterMaps are field
hashes (CounterMap values ASCII-decimal bytes too), sets and lists are
native. Mutations carry counter values as ints: _ascii renders them on
the way in, as_int parses them on the way out. Deleting the last entry
of a collection deletes the key. A write that finds the key holding
another shape raises TypeConflict, except set_blob and delete, which
replace or drop whatever is there.

Locking, exactly-once batches, batch validation, fetch and scan come from
LocalDriver (see drivers/base.py).
"""

from __future__ import annotations

from ..errors import TypeConflict
from ..keys import StoreKey, StructureType
from ..limits import as_int, check_int64
from .base import LocalDriver, Mutation

_SHAPE = {
    StructureType.NAME_VALUE: bytes,
    StructureType.COUNTER: bytes,
    StructureType.MAP: dict,
    StructureType.COUNTER_MAP: dict,
    StructureType.LIST: list,
    StructureType.SET: set,
}


def _ascii(value) -> bytes:
    """value as this store holds it: an int in ASCII decimal, bytes as is."""
    return b"%d" % value if isinstance(value, int) else value


class FlatKvsDriver(LocalDriver):
    label = "flatkvs"

    def _typed(self, name: str, want: type, create: bool = False):
        """The value under name, checked to be a want; absent is None,
        or a new empty want stored under name when create is set."""
        cur = self._data.get(name)
        if cur is None:
            if create:
                cur = self._data[name] = want()
        elif not isinstance(cur, want):
            raise TypeConflict(f"key {name} holds {type(cur).__name__}")
        return cur

    def _stored_int(self, key: StoreKey, field: bytes | None) -> int | None:
        name = key.render()
        if field is None:
            raw = self._typed(name, bytes)
        else:
            fields = self._typed(name, dict)
            raw = None if fields is None else fields.get(field)
        return None if raw is None else as_int(raw)

    def _apply_one(self, key: StoreKey, m: Mutation) -> None:
        name = key.render()
        kind = m.kind
        if kind == "incr":
            cur = self._typed(name, bytes)
            value = check_int64((0 if cur is None else as_int(cur)) + m.value)
            self._data[name] = _ascii(value)
        elif kind == "map_set":
            self._typed(name, dict, True)[m.field] = _ascii(m.value)
        elif kind == "map_incr":
            fields = self._typed(name, dict, True)
            value = check_int64(as_int(fields.get(m.field, b"0")) + m.value)
            fields[m.field] = _ascii(value)
        elif kind == "map_del" or kind == "set_del":
            cur = self._typed(name, dict if kind == "map_del" else set)
            if cur is not None:
                if kind == "map_del":
                    cur.pop(m.field, None)
                else:
                    cur.discard(m.value)
                if not cur:
                    del self._data[name]
        elif kind == "set_blob":
            self._data[name] = _ascii(m.value)
        elif kind == "delete":
            self._data.pop(name, None)
        elif kind == "list_append":
            self._typed(name, list, True).append(m.value)
        elif kind == "set_add":
            self._typed(name, set, True).add(m.value)

    def _snapshot(self, key: StoreKey):
        stype = key.structure_type
        cur = self._typed(key.render(), _SHAPE[stype])
        if cur is None or stype is StructureType.NAME_VALUE:
            return cur
        if stype is StructureType.COUNTER:
            return as_int(cur)
        if stype is StructureType.COUNTER_MAP:
            return {f: as_int(v) for f, v in cur.items()} or None
        return cur.copy() or None

    def _names(self, prefix: str):
        return [name for name in self._data if name.startswith(prefix)]

    def dump(self) -> dict[str, object]:
        with self._lock:
            return {
                name: value if isinstance(value, bytes) else value.copy()
                for name, value in self._data.items()
            }
