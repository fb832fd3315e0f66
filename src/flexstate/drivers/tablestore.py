"""In-process store organized as keyspaces and per-type tables.

Layout mirrors a wide-column store. self._data maps keyspace -> table ->
key1 [-> key2] -> value, with one keyspace per (nf, instance, core) named
"nf@instance@core" and one table per structure type inside it, named by
its type token. Single valued types keep rows (key1 -> value);
collections expand to clustered rows (key1, key2 -> value): map entries
under their field, set members under the member with an empty payload,
list elements under their index. Counters and CounterMap values are
integers updated in place; updating an absent counter row creates it, so
increments never need a prior insert.

Keyspaces and tables are created on first write and dropped when their
last row goes, as a row of clustered cells is when its last cell goes.
Locking, exactly-once batches, batch validation, fetch and scan come from
LocalDriver (see drivers/base.py).
"""

from __future__ import annotations

from ..keys import StoreKey, StructureType
from ..limits import check_int64
from .base import LocalDriver, Mutation


def _keyspace_of(key: StoreKey) -> str:
    return f"{key.nf_id}@{key.instance_id}@{key.core_id}"


class TableStoreDriver(LocalDriver):
    label = "tablestore"

    def _table(self, key: StoreKey, create: bool = False) -> dict | None:
        """key's table; absent is None, or created when create is set."""
        keyspace = self._data.get(_keyspace_of(key))
        if keyspace is None:
            if not create:
                return None
            keyspace = self._data[_keyspace_of(key)] = {}
        table = keyspace.get(key.structure_type.token)
        if table is None and create:
            table = keyspace[key.structure_type.token] = {}
        return table

    def _stored_int(self, key: StoreKey, field: bytes | None) -> int | None:
        table = self._table(key)
        stored = None if table is None else table.get(key.structure_id)
        if field is None or stored is None:
            return stored
        return stored.get(field)

    def _apply_one(self, key: StoreKey, m: Mutation) -> None:
        kind = m.kind
        key1 = key.structure_id
        if kind == "incr":
            table = self._table(key, True)
            table[key1] = check_int64(table.get(key1, 0) + m.value)
        elif kind == "set_blob":
            self._table(key, True)[key1] = m.value
        elif kind in ("map_set", "map_incr", "list_append", "set_add"):
            table = self._table(key, True)
            rows = table.get(key1)
            if rows is None:
                rows = table[key1] = {}
            if kind == "map_set":
                rows[m.field] = m.value
            elif kind == "map_incr":
                rows[m.field] = check_int64(rows.get(m.field, 0) + m.value)
            elif kind == "list_append":
                rows[len(rows)] = m.value
            else:
                rows[m.value] = b""
        elif kind in ("delete", "map_del", "set_del"):
            table = self._table(key)
            if table is None or key1 not in table:
                return
            if kind == "map_del" or kind == "set_del":
                rows = table[key1]
                rows.pop(m.field if kind == "map_del" else m.value, None)
                if rows:
                    return
            del table[key1]
            if not table:
                keyspace = self._data[_keyspace_of(key)]
                del keyspace[key.structure_type.token]
                if not keyspace:
                    del self._data[_keyspace_of(key)]

    def _snapshot(self, key: StoreKey):
        table = self._table(key)
        stored = None if table is None else table.get(key.structure_id)
        stype = key.structure_type
        if stored is None or stype in (StructureType.NAME_VALUE, StructureType.COUNTER):
            return stored
        if stype is StructureType.LIST:
            return [stored[i] for i in range(len(stored))] or None
        if stype is StructureType.SET:
            return set(stored) or None
        return dict(stored) or None

    def _names(self, prefix: str):
        return [
            f"{ks_name}@{token}@{key1}"
            for ks_name, tables in self._data.items()
            if ks_name.startswith(prefix)
            for token, table in tables.items()
            for key1 in table
        ]

    def dump(self) -> dict[str, dict[str, dict]]:
        with self._lock:
            return {
                ks_name: {
                    token: {
                        key1: dict(rows) if isinstance(rows, dict) else rows
                        for key1, rows in table.items()
                    }
                    for token, table in tables.items()
                }
                for ks_name, tables in self._data.items()
            }
