"""In-process store organized as keyspaces and per-type tables.

Layout mirrors a wide-column store: one keyspace per (nf, instance, core)
named "nf@instance@core", one table per structure type inside it. Single
valued types keep rows (key1 -> value); collections expand to clustered
rows (key1, key2 -> value): map entries under their field, set members
under the member with an empty payload, list elements under their index.
Counters are integers updated in place; updating an absent counter row
creates it, so increments never need a prior insert.

Keyspaces and tables are created on first write. Locking, exactly-once
batches and batch validation come from LocalDriver (see drivers/base.py).
"""

from __future__ import annotations

from ..errors import TypeConflict
from ..keys import StoreKey, StructureType, check_token, parse_key
from ..limits import as_int, check_int64
from .base import DriverSession, LocalDriver, Mutation

_SINGLE_ROW = (StructureType.NAME_VALUE, StructureType.COUNTER)


class TableStore:
    """Nested dicts: keyspace -> table -> key1 [-> key2] -> value.

    Not thread-safe: the driver serializes access.
    """

    def __init__(self):
        self.keyspaces: dict[str, dict[str, dict]] = {}

    def table(self, keyspace: str, table: str, create: bool = False) -> dict | None:
        ks = self.keyspaces.get(keyspace)
        if ks is None:
            if not create:
                return None
            ks = self.keyspaces[keyspace] = {}
        t = ks.get(table)
        if t is None and create:
            t = ks[table] = {}
        return t

    def select(self, keyspace: str, table: str, key1: str):
        t = self.table(keyspace, table)
        return None if t is None else t.get(key1)

    def upsert(self, keyspace: str, table: str, key1: str, value) -> None:
        self.table(keyspace, table, create=True)[key1] = value

    def delete(self, keyspace: str, table: str, key1: str) -> None:
        t = self.table(keyspace, table)
        if t is not None:
            t.pop(key1, None)
            self._drop_if_empty(keyspace, table)

    def update_counter(self, keyspace: str, table: str, key1: str, n: int) -> int:
        t = self.table(keyspace, table, create=True)
        value = check_int64(t.get(key1, 0) + n)
        t[key1] = value
        return value

    def upsert_cell(self, keyspace: str, table: str, key1: str, key2, value) -> None:
        t = self.table(keyspace, table, create=True)
        rows = t.get(key1)
        if rows is None:
            rows = t[key1] = {}
        rows[key2] = value

    def delete_cell(self, keyspace: str, table: str, key1: str, key2) -> None:
        t = self.table(keyspace, table)
        rows = None if t is None else t.get(key1)
        if rows is None:
            return
        rows.pop(key2, None)
        if not rows:
            t.pop(key1)
            self._drop_if_empty(keyspace, table)

    def update_cell_counter(
        self, keyspace: str, table: str, key1: str, key2, n: int
    ) -> int:
        t = self.table(keyspace, table, create=True)
        rows = t.get(key1)
        if rows is None:
            rows = t[key1] = {}
        value = check_int64(rows.get(key2, 0) + n)
        rows[key2] = value
        return value

    def _drop_if_empty(self, keyspace: str, table: str) -> None:
        ks = self.keyspaces.get(keyspace)
        if ks is not None and table in ks and not ks[table]:
            del ks[table]
            if not ks:
                del self.keyspaces[keyspace]

    def wipe(self) -> None:
        self.keyspaces.clear()


def _keyspace_of(key: StoreKey) -> str:
    return f"{key.nf_id}@{key.instance_id}@{key.core_id}"


class TableStoreDriver(LocalDriver):
    label = "tablestore"

    def __init__(self):
        super().__init__(TableStore())

    def _stored_int(self, key: StoreKey, field: bytes | None) -> int | None:
        stored = self._engine.select(
            _keyspace_of(key), key.structure_type.token, key.structure_id
        )
        if field is None or stored is None:
            return stored
        return stored.get(field)

    def _apply_one(self, key: StoreKey, m: Mutation) -> None:
        engine = self._engine
        ks = _keyspace_of(key)
        token = key.structure_type.token
        key1 = key.structure_id
        kind = m.kind
        if kind == "incr":
            engine.update_counter(ks, token, key1, m.value)
        elif kind == "map_set":
            value = m.value
            if key.structure_type is StructureType.COUNTER_MAP:
                value = as_int(value)
            engine.upsert_cell(ks, token, key1, m.field, value)
        elif kind == "map_incr":
            engine.update_cell_counter(ks, token, key1, m.field, m.value)
        elif kind == "map_del":
            engine.delete_cell(ks, token, key1, m.field)
        elif kind == "set_blob":
            value = m.value
            if key.structure_type is StructureType.COUNTER:
                value = as_int(value)
            engine.upsert(ks, token, key1, value)
        elif kind == "delete":
            engine.delete(ks, token, key1)
        elif kind == "list_append":
            rows = engine.select(ks, token, key1)
            index = 0 if rows is None else len(rows)
            engine.upsert_cell(ks, token, key1, index, m.value)
        elif kind == "list_clear":
            engine.delete(ks, token, key1)
        elif kind == "set_add":
            engine.upsert_cell(ks, token, key1, m.value, b"")
        elif kind == "set_del":
            engine.delete_cell(ks, token, key1, m.value)
        else:
            raise TypeConflict(f"unknown mutation kind {kind!r}")

    def _fetch(self, session: DriverSession, key: StoreKey):
        with self._lock:
            return self._snapshot(key)

    def _snapshot(self, key: StoreKey):
        engine = self._engine
        ks = _keyspace_of(key)
        stype = key.structure_type
        stored = engine.select(ks, stype.token, key.structure_id)
        if stored is None:
            return None
        if stype in _SINGLE_ROW:
            return stored
        if stype is StructureType.MAP or stype is StructureType.COUNTER_MAP:
            return dict(stored) or None
        if stype is StructureType.SET:
            return set(stored) or None
        if stype is StructureType.LIST:
            return [stored[i] for i in range(len(stored))] or None
        raise TypeConflict(f"unknown structure type {stype!r}")

    def _scan(self, session: DriverSession, nf_id: str, instance_id: str):
        check_token(nf_id, "nf id")
        check_token(instance_id, "instance id")
        engine = self._engine
        want = f"{nf_id}@{instance_id}@"
        out = []
        with self._lock:
            for ks_name in engine.keyspaces:
                if not ks_name.startswith(want):
                    continue
                for token in engine.keyspaces[ks_name]:
                    for key1 in engine.keyspaces[ks_name][token]:
                        key = parse_key(f"{ks_name}@{token}@{key1}")
                        out.append((key, self._snapshot(key)))
        out.sort(key=lambda pair: pair[0].render())
        return out

    def dump(self) -> dict[str, dict[str, dict]]:
        """Copy of keyspaces and tables, for inspection and debugging."""
        with self._lock:
            out: dict[str, dict[str, dict]] = {}
            for ks_name, tables in self._engine.keyspaces.items():
                out[ks_name] = {
                    t_name: {
                        k1: dict(rows) if isinstance(rows, dict) else rows
                        for k1, rows in table.items()
                    }
                    for t_name, table in tables.items()
                }
            return out
