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
cache lock (see cache.py). A Counter or NameValue holds its one slot as a
[kind, value] list that the folds update in place, so an increment on a
pending incr only adds to the held sum and allocates nothing. Every fold
keeps each live value within int64, but a sum may leave it and come
back; a Counter's sum is checked once, in _collect, and one still outside
int64 flushes as a set_blob of the live value. Map, CounterMap, List and
Set hold one form: an ordered dict from slot (a Map field, a Set member,
a List position) to the Mutation that slot flushes as, so _collect only
attaches the key. A reset (Map delete, List clear) empties the dict and
stores one delete under the _RESET slot, which flushes ahead of every
later slot. (CounterMap folds range-check their pending sum every time.)
The invariant throughout: replaying the pending slots on top of the
store's current value yields exactly the live value.
"""

from __future__ import annotations

from itertools import repeat
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

# A collection's reset (Map delete, List clear) is held under this slot,
# which no Map field, Set member or List position equals.
_RESET = None
_DELETE = Mutation("delete")

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
        # [kind, value], updated in place: kind None (nothing pending),
        # "set_blob", "incr" (value the summed increment) or "delete".
        self._pend = [None, None]

    def delete(self) -> None:
        self._cache.apply_op(self, _ValueHandle._drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self, _ValueHandle._drop)

    def _set(self, value) -> int:
        p = self._pend
        delta = 0 if p[0] else 1
        p[0] = "set_blob"
        p[1] = value
        self._live = value
        return delta

    def _drop(self) -> int:
        p = self._pend
        delta = 0 if p[0] else 1
        p[0] = "delete"
        p[1] = None
        self._live = None
        return delta

    def _collect(self, batch: MutationBatch) -> int:
        p = self._pend
        kind, value = p
        if kind is None:
            return 0
        if kind == "incr" and not INT64_MIN <= value <= INT64_MAX:
            kind, value = "set_blob", self._live
        batch.add(self._key, _new(Mutation, (kind, None, value)))
        p[0] = p[1] = None
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
        self._live = value
        p = self._pend
        kind = p[0]
        if kind == "incr":
            p[1] += n  # _collect checks the sum's range once per flush
            return 0
        if kind is None:
            p[0] = "incr"
            p[1] = n
            return 1
        # After a set or a delete the slot is a set of the live value.
        p[0] = "set_blob"
        p[1] = value
        return 0


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


class _CollectionHandle(_Handle):
    """What Map, CounterMap, List and Set handles share: the pending slots,
    an ordered dict from slot (a Map field, a Set member or a List
    position) to the Mutation that slot flushes as."""

    __slots__ = ("_pend",)
    _live_type: type

    def __init__(self, cache: CoreCache, key: StoreKey, snapshot):
        super().__init__(cache, key, self._live_type(snapshot or ()))
        self._pend: dict = {}

    def _drop(self) -> int:
        pend = self._pend
        delta = 1 - len(pend)
        pend.clear()
        pend[_RESET] = _DELETE
        self._live.clear()
        return delta

    def _collect(self, batch: MutationBatch) -> int:
        pend = self._pend
        batch.items += zip(repeat(self._key), pend.values())
        count = len(pend)
        pend.clear()
        return count


class _MapHandleBase(_CollectionHandle):
    """What Map and CounterMap handles share: everything but the values."""

    __slots__ = ()
    _live_type = dict

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
        self._cache.apply_op(self, _CollectionHandle._drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self, _CollectionHandle._drop)

    def _insert(self, fieldname: bytes, value) -> int:
        count = len(pend := self._pend)
        pend[fieldname] = _new(Mutation, ("map_set", fieldname, value))
        self._live[fieldname] = value
        return len(pend) - count

    def _remove(self, fieldname: bytes) -> int:
        delta = 0 if fieldname in self._pend else 1
        self._pend[fieldname] = _new(Mutation, ("map_del", fieldname, None))
        self._live.pop(fieldname, None)
        return delta


class MapHandle(_MapHandleBase):
    __slots__ = ()
    _stype = StructureType.MAP

    # A NAT calls get per packet and insert_nowait per new binding, so both
    # make the checks' fast test inline: a call to the check costs more.
    def get(self, key: bytes) -> bytes | None:
        if type(key) is not bytes or len(key) > MAX_MAP_KEY_BYTES:
            key = _check_map_key(key)
        return self._live.get(key)

    def insert(self, key: bytes, value: bytes) -> None:
        self._cache.apply_op(
            self, _MapHandleBase._insert, _check_map_key(key), _check_element(value), wait=True
        )

    def insert_nowait(self, key: bytes, value: bytes) -> None:
        if type(key) is not bytes or len(key) > MAX_MAP_KEY_BYTES:
            key = _check_map_key(key)
        if type(value) is not bytes or len(value) > MAX_ELEMENT_BYTES:
            value = _check_element(value)
        self._cache.apply_op(self, _MapHandleBase._insert, key, value)


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
            self._pend[fieldname] = _new(Mutation, ("map_incr", fieldname, n))
            delta = 1
        else:
            if p[0] == "map_incr" and INT64_MIN <= (acc := p[2] + n) <= INT64_MAX:
                self._pend[fieldname] = _new(Mutation, ("map_incr", fieldname, acc))
            else:
                self._pend[fieldname] = _new(Mutation, ("map_set", fieldname, value))
            delta = 0
        self._live[fieldname] = value
        return delta


class ListHandle(_CollectionHandle):
    __slots__ = ()
    _stype = StructureType.LIST
    _live_type = list

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
        self._cache.apply_op(self, _CollectionHandle._drop, wait=True)

    def clear_nowait(self) -> None:
        self._cache.apply_op(self, _CollectionHandle._drop)

    def _push_back(self, value) -> int:
        pend = self._pend
        pend[len(pend)] = _new(Mutation, ("list_append", None, value))
        self._live.append(value)
        return 1


class SetHandle(_CollectionHandle):
    __slots__ = ()
    _stype = StructureType.SET
    _live_type = set

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
        self._pend[value] = _new(Mutation, ("set_add", None, value))
        self._live.add(value)
        return delta

    def _remove(self, value: bytes) -> int:
        delta = 0 if value in self._pend else 1
        self._pend[value] = _new(Mutation, ("set_del", None, value))
        self._live.discard(value)
        return delta


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
