"""Public state API handed to network functions.

A StateContext belongs to one core. Structures opened through it are
backed by that core's write-back cache: reads are local, waiting mutations
(`set`, `add`, ...) return once the store acknowledged the write, and
`*_nowait` forms return immediately and ride the next background flush.

All values are bytes; counters and CounterMap entries are signed 64-bit
integers. Size limits: structure ids 128 B, map keys 1 KiB, elements
1 KiB, whole-value blobs 64 KiB. An absent counter (or CounterMap entry)
reads as 0; an entry explicitly written to 0 is still present, which
read_all()/has() can distinguish.

A handle is its structure's cache entry: the cache registers one handle
per structure id, so opening an id twice gives the same object. Besides
the public methods it holds the live value, the pending slot(s) and the
rules for them. A fold (_set, _add, _insert, ...) updates the live value,
folds the mutation into the pending slot(s) and returns the net change in
slot count; _collect drains the slots into a batch. Both run under the
cache lock (see cache.py). Each pending op is recorded under the Mutation
kind it flushes as, so _collect only attaches the key (and field or
member). Every pending slot becomes its Mutation through
tuple.__new__(Mutation, ...), and the collections, which can hold
thousands of slots, add their items in one list comprehension:
NamedTuple's generated __new__ and a batch.add call per item would cost
about twice as much, all of it under the cache lock. The invariant
throughout: replaying the pending slots on top of the store's current
value yields exactly the live value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .drivers.base import Mutation, MutationBatch
from .errors import IndexOutOfRange, KeyTooLarge, ValueTooLarge
from .keys import StoreKey, StructureType
from .limits import (
    INT64_MAX,
    INT64_MIN,
    MAX_BLOB_BYTES,
    MAX_ELEMENT_BYTES,
    MAX_MAP_KEY_BYTES,
    check_int,
    check_int64,
)

if TYPE_CHECKING:
    from .cache import CoreCache

_new = tuple.__new__  # builds a Mutation without NamedTuple's Python __new__

# Each check returns at once for the common input (exact bytes within the
# limit, an exact int within int64); anything else takes the full path,
# which converts a bytearray and raises for everything it refuses. The
# increments (Counter add, CounterMap add_to) check their int in the fold.


def _bytes_check(limit: int, too_large: type, what: str, argument: str = "value"):
    """The one-argument check of a bytes argument of at most limit bytes."""

    def check(value: bytes) -> bytes:
        if type(value) is bytes and len(value) <= limit:
            return value
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"{argument} must be bytes, not {type(value).__name__}")
        if len(value) > limit:
            raise too_large(f"{what} of {len(value)} bytes exceeds {limit}")
        return bytes(value)

    return check


_check_blob = _bytes_check(MAX_BLOB_BYTES, ValueTooLarge, "blob")
_check_element = _bytes_check(MAX_ELEMENT_BYTES, ValueTooLarge, "element")
_check_map_key = _bytes_check(MAX_MAP_KEY_BYTES, KeyTooLarge, "map key", "map key")


class _Handle:
    __slots__ = ("_cache", "_key", "_live")
    _stype: StructureType

    def __init__(self, cache: CoreCache, key: StoreKey, live):
        self._cache = cache
        self._key = key
        self._live = live

    @property
    def structure_id(self) -> str:
        return self._key.structure_id

    @property
    def key(self) -> StoreKey:
        return self._key


class _ValueHandle(_Handle):
    """What Counter and NameValue handles share: one whole-value slot."""

    __slots__ = ("_pend",)

    def __init__(self, cache: CoreCache, key: StoreKey, snapshot):
        super().__init__(cache, key, snapshot)  # bytes, int (counters) or None (absent)
        self._pend = None  # None | ("set_blob", v) | ("incr", n) | ("delete", None)

    def delete(self) -> None:
        self._cache.apply_op(self, _ValueHandle._drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self, _ValueHandle._drop)

    def _set(self, value) -> int:
        delta = 0 if self._pend else 1
        self._pend = ("set_blob", value)
        self._live = value
        return delta

    def _drop(self) -> int:
        delta = 0 if self._pend else 1
        self._pend = ("delete", None)
        self._live = None
        return delta

    def _collect(self, batch: MutationBatch) -> int:
        p = self._pend
        if p is None:
            return 0
        batch.add(self._key, _new(Mutation, (p[0], None, p[1])))
        self._pend = None
        return 1


class CounterHandle(_ValueHandle):
    __slots__ = ()
    _stype = StructureType.COUNTER

    def read(self) -> int:
        live = self._live
        return 0 if live is None else live

    def exists(self) -> bool:
        return self._live is not None

    def set(self, value: int) -> None:
        self._cache.apply_op(self, _ValueHandle._set, check_int(value), wait=True)

    def set_nowait(self, value: int) -> None:
        self._cache.apply_op(self, _ValueHandle._set, check_int(value))

    def add(self, n: int = 1) -> None:
        self._cache.apply_op(self, CounterHandle._add, n, wait=True)

    def add_nowait(self, n: int = 1) -> None:
        self._cache.apply_op(self, CounterHandle._add, n)

    def _add(self, n: int) -> int:
        if type(n) is not int or not INT64_MIN <= n <= INT64_MAX:
            n = check_int(n)  # the argument checks; raises what it refuses
        value = (self._live or 0) + n
        if not INT64_MIN <= value <= INT64_MAX:
            check_int64(value)  # raises Overflow
        p = self._pend
        if p is None:
            self._pend = ("incr", n)
            delta = 1
        else:
            # After a set or a delete, or where the summed increment would
            # leave int64, the slot becomes a set of the live value.
            if p[0] == "incr" and INT64_MIN <= (acc := p[1] + n) <= INT64_MAX:
                self._pend = ("incr", acc)
            else:
                self._pend = ("set_blob", value)
            delta = 0
        self._live = value
        return delta


class NameValueHandle(_ValueHandle):
    __slots__ = ()
    _stype = StructureType.NAME_VALUE

    def get(self) -> bytes | None:
        return self._live

    def create(self, value: bytes) -> None:
        self._cache.apply_op(self, _ValueHandle._set, _check_blob(value), wait=True)

    def create_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self, _ValueHandle._set, _check_blob(value))

    update = create
    update_nowait = create_nowait


class _MapHandleBase(_Handle):
    """What Map and CounterMap handles share: everything but the values."""

    __slots__ = ("_pend", "_reset")

    def __init__(self, cache: CoreCache, key: StoreKey, snapshot):
        super().__init__(cache, key, dict(snapshot) if snapshot else {})
        # field -> ("map_set", v) | ("map_incr", n) | ("map_del", None)
        self._pend: dict = {}
        self._reset = False

    def has(self, key: bytes) -> bool:
        return _check_map_key(key) in self._live

    def read_all(self) -> dict:
        return dict(self._live)

    def size(self) -> int:
        return len(self._live)

    def remove(self, key: bytes) -> None:
        self._cache.apply_op(self, _MapHandleBase._remove, _check_map_key(key), wait=True)

    def remove_nowait(self, key: bytes) -> None:
        self._cache.apply_op(self, _MapHandleBase._remove, _check_map_key(key))

    def delete(self) -> None:
        self._cache.apply_op(self, _MapHandleBase._drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self, _MapHandleBase._drop)

    def _slots(self) -> int:
        return len(self._pend) + (1 if self._reset else 0)

    def _insert(self, fieldname: bytes, value) -> int:
        delta = 0 if fieldname in self._pend else 1
        self._pend[fieldname] = ("map_set", value)
        self._live[fieldname] = value
        return delta

    def _remove(self, fieldname: bytes) -> int:
        delta = 0 if fieldname in self._pend else 1
        self._pend[fieldname] = ("map_del", None)
        self._live.pop(fieldname, None)
        return delta

    def _drop(self) -> int:
        delta = 1 - self._slots()
        self._pend.clear()
        self._reset = True
        self._live.clear()
        return delta

    def _collect(self, batch: MutationBatch) -> int:
        count = self._slots()
        if count == 0:
            return 0
        key = self._key
        if self._reset:
            batch.add(key, Mutation("delete"))
            self._reset = False
        batch.items += [
            (key, _new(Mutation, (kind, fieldname, value)))
            for fieldname, (kind, value) in self._pend.items()
        ]
        self._pend.clear()
        return count


class MapHandle(_MapHandleBase):
    __slots__ = ()
    _stype = StructureType.MAP

    def get(self, key: bytes) -> bytes | None:
        return self._live.get(_check_map_key(key))

    def insert(self, key: bytes, value: bytes) -> None:
        self._cache.apply_op(
            self, _MapHandleBase._insert, _check_map_key(key), _check_element(value), wait=True
        )

    def insert_nowait(self, key: bytes, value: bytes) -> None:
        self._cache.apply_op(
            self, _MapHandleBase._insert, _check_map_key(key), _check_element(value)
        )


class CounterMapHandle(_MapHandleBase):
    __slots__ = ()
    _stype = StructureType.COUNTER_MAP

    def get(self, key: bytes) -> int:
        return self._live.get(_check_map_key(key), 0)

    def add_to(self, key: bytes, n: int) -> None:
        self._cache.apply_op(
            self, CounterMapHandle._add_to, _check_map_key(key), n, wait=True
        )

    def add_to_nowait(self, key: bytes, n: int) -> None:
        self._cache.apply_op(self, CounterMapHandle._add_to, _check_map_key(key), n)

    def insert(self, key: bytes, value: int) -> None:
        self._cache.apply_op(
            self, _MapHandleBase._insert, _check_map_key(key), check_int(value), wait=True
        )

    def insert_nowait(self, key: bytes, value: int) -> None:
        self._cache.apply_op(
            self, _MapHandleBase._insert, _check_map_key(key), check_int(value)
        )

    def _add_to(self, fieldname: bytes, n: int) -> int:
        if type(n) is not int or not INT64_MIN <= n <= INT64_MAX:
            n = check_int(n)  # the argument checks; raises what it refuses
        value = self._live.get(fieldname, 0) + n
        if not INT64_MIN <= value <= INT64_MAX:
            check_int64(value)  # raises Overflow
        p = self._pend.get(fieldname)
        if p is None:
            self._pend[fieldname] = ("map_incr", n)
            delta = 1
        else:
            if p[0] == "map_incr" and INT64_MIN <= (acc := p[1] + n) <= INT64_MAX:
                self._pend[fieldname] = ("map_incr", acc)
            else:
                self._pend[fieldname] = ("map_set", value)
            delta = 0
        self._live[fieldname] = value
        return delta


class ListHandle(_Handle):
    __slots__ = ("_appends", "_reset")
    _stype = StructureType.LIST

    def __init__(self, cache: CoreCache, key: StoreKey, snapshot):
        super().__init__(cache, key, list(snapshot) if snapshot else [])
        self._appends: list = []
        self._reset = False

    def read(self, index: int) -> bytes:
        try:
            if index < 0:
                raise IndexError
            return self._live[index]
        except IndexError:
            raise IndexOutOfRange(f"index {index} outside [0, {len(self._live)})") from None

    def length(self) -> int:
        return len(self._live)

    def read_all(self) -> list[bytes]:
        return list(self._live)

    def push_back(self, value: bytes) -> None:
        self._cache.apply_op(self, ListHandle._push_back, _check_element(value), wait=True)

    def push_back_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self, ListHandle._push_back, _check_element(value))

    def clear(self) -> None:
        self._cache.apply_op(self, ListHandle._clear, wait=True)

    def clear_nowait(self) -> None:
        self._cache.apply_op(self, ListHandle._clear)

    def _push_back(self, value) -> int:
        self._appends.append(value)
        self._live.append(value)
        return 1

    def _clear(self) -> int:
        delta = 1 - (len(self._appends) + (1 if self._reset else 0))
        self._appends.clear()
        self._reset = True
        self._live.clear()
        return delta

    def _collect(self, batch: MutationBatch) -> int:
        count = len(self._appends) + (1 if self._reset else 0)
        if count == 0:
            return 0
        key = self._key
        if self._reset:
            batch.add(key, Mutation("delete"))
            self._reset = False
        batch.items += [
            (key, _new(Mutation, ("list_append", None, value))) for value in self._appends
        ]
        self._appends.clear()
        return count


class SetHandle(_Handle):
    __slots__ = ("_pend",)
    _stype = StructureType.SET

    def __init__(self, cache: CoreCache, key: StoreKey, snapshot):
        super().__init__(cache, key, set(snapshot) if snapshot else set())
        self._pend: dict = {}  # member -> "set_add" | "set_del"

    def contains(self, value: bytes) -> bool:
        return _check_element(value) in self._live

    def size(self) -> int:
        return len(self._live)

    def read_all(self) -> set[bytes]:
        return set(self._live)

    def insert(self, value: bytes) -> None:
        self._cache.apply_op(self, SetHandle._insert, _check_element(value), wait=True)

    def insert_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self, SetHandle._insert, _check_element(value))

    def remove(self, value: bytes) -> None:
        self._cache.apply_op(self, SetHandle._remove, _check_element(value), wait=True)

    def remove_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self, SetHandle._remove, _check_element(value))

    def _insert(self, value: bytes) -> int:
        delta = 0 if value in self._pend else 1
        self._pend[value] = "set_add"
        self._live.add(value)
        return delta

    def _remove(self, value: bytes) -> int:
        delta = 0 if value in self._pend else 1
        self._pend[value] = "set_del"
        self._live.discard(value)
        return delta

    def _collect(self, batch: MutationBatch) -> int:
        count = len(self._pend)
        if count == 0:
            return 0
        key = self._key
        batch.items += [
            (key, _new(Mutation, (kind, None, member))) for member, kind in self._pend.items()
        ]
        self._pend.clear()
        return count


# The one table from a structure type to its handle class.
_HANDLE_BY_TYPE = {
    cls._stype: cls
    for cls in (CounterHandle, NameValueHandle, MapHandle, CounterMapHandle, ListHandle, SetHandle)
}


class StateContext:
    """Per-core entry point an NF uses to open structures."""

    def __init__(self, cache: CoreCache, n_cores: int = 1):
        self.cache = cache
        self.n_cores = n_cores

    @property
    def core_id(self) -> int:
        return self.cache.core_id

    @property
    def nf_id(self) -> str:
        return self.cache.nf_id

    @property
    def instance_id(self) -> str:
        return self.cache.instance_id

    def create_structure(self, stype: StructureType, structure_id: str):
        return self.cache.create_structure(stype, structure_id)

    def create_counter(self, structure_id: str) -> CounterHandle:
        return self.create_structure(StructureType.COUNTER, structure_id)

    def create_name_value(self, structure_id: str) -> NameValueHandle:
        return self.create_structure(StructureType.NAME_VALUE, structure_id)

    def create_map(self, structure_id: str) -> MapHandle:
        return self.create_structure(StructureType.MAP, structure_id)

    def create_counter_map(self, structure_id: str) -> CounterMapHandle:
        return self.create_structure(StructureType.COUNTER_MAP, structure_id)

    def create_list(self, structure_id: str) -> ListHandle:
        return self.create_structure(StructureType.LIST, structure_id)

    def create_set(self, structure_id: str) -> SetHandle:
        return self.create_structure(StructureType.SET, structure_id)
