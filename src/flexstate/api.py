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
"""

from __future__ import annotations

from .cache import (
    CoreCache,
    _CounterMapState,
    _CounterState,
    _ListState,
    _MapState,
    _NameValueState,
    _SetState,
)
from .errors import IndexOutOfRange, KeyTooLarge, ValueTooLarge
from .keys import StructureType
from .limits import (
    MAX_BLOB_BYTES,
    MAX_ELEMENT_BYTES,
    MAX_MAP_KEY_BYTES,
    check_int,
)

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
    __slots__ = ("_cache", "_state")

    def __init__(self, cache: CoreCache, state):
        self._cache = cache
        self._state = state

    @property
    def structure_id(self) -> str:
        return self._state.key.structure_id

    @property
    def key(self):
        return self._state.key


class CounterHandle(_Handle):
    def read(self) -> int:
        live = self._state.live
        return 0 if live is None else live

    def exists(self) -> bool:
        return self._state.live is not None

    def set(self, value: int) -> None:
        self._cache.apply_op(self._state, _CounterState.set_value, check_int(value), wait=True)

    def set_nowait(self, value: int) -> None:
        self._cache.apply_op(self._state, _CounterState.set_value, check_int(value))

    def add(self, n: int = 1) -> None:
        self._cache.apply_op(self._state, _CounterState.add, n, wait=True)

    def add_nowait(self, n: int = 1) -> None:
        self._cache.apply_op(self._state, _CounterState.add, n)

    def delete(self) -> None:
        self._cache.apply_op(self._state, _CounterState.drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self._state, _CounterState.drop)


class NameValueHandle(_Handle):
    def get(self) -> bytes | None:
        return self._state.live

    def create(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _NameValueState.set_value, _check_blob(value), wait=True)

    def create_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _NameValueState.set_value, _check_blob(value))

    update = create
    update_nowait = create_nowait

    def delete(self) -> None:
        self._cache.apply_op(self._state, _NameValueState.drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self._state, _NameValueState.drop)


class _MapHandleBase(_Handle):
    """What Map and CounterMap handles share: everything but the values."""

    def has(self, key: bytes) -> bool:
        return _check_map_key(key) in self._state.live

    def read_all(self) -> dict:
        return dict(self._state.live)

    def size(self) -> int:
        return len(self._state.live)

    def remove(self, key: bytes) -> None:
        self._cache.apply_op(self._state, _MapState.remove, _check_map_key(key), wait=True)

    def remove_nowait(self, key: bytes) -> None:
        self._cache.apply_op(self._state, _MapState.remove, _check_map_key(key))

    def delete(self) -> None:
        self._cache.apply_op(self._state, _MapState.drop, wait=True)

    def delete_nowait(self) -> None:
        self._cache.apply_op(self._state, _MapState.drop)


class MapHandle(_MapHandleBase):
    def get(self, key: bytes) -> bytes | None:
        return self._state.live.get(_check_map_key(key))

    def insert(self, key: bytes, value: bytes) -> None:
        self._cache.apply_op(
            self._state, _MapState.insert, _check_map_key(key), _check_element(value), wait=True
        )

    def insert_nowait(self, key: bytes, value: bytes) -> None:
        self._cache.apply_op(
            self._state, _MapState.insert, _check_map_key(key), _check_element(value)
        )


class CounterMapHandle(_MapHandleBase):
    def get(self, key: bytes) -> int:
        return self._state.live.get(_check_map_key(key), 0)

    def add_to(self, key: bytes, n: int) -> None:
        self._cache.apply_op(
            self._state, _CounterMapState.add_to, _check_map_key(key), n, wait=True
        )

    def add_to_nowait(self, key: bytes, n: int) -> None:
        self._cache.apply_op(
            self._state, _CounterMapState.add_to, _check_map_key(key), n
        )

    def insert(self, key: bytes, value: int) -> None:
        self._cache.apply_op(
            self._state, _CounterMapState.insert, _check_map_key(key), check_int(value), wait=True
        )

    def insert_nowait(self, key: bytes, value: int) -> None:
        self._cache.apply_op(
            self._state, _CounterMapState.insert, _check_map_key(key), check_int(value)
        )


class ListHandle(_Handle):
    def read(self, index: int) -> bytes:
        try:
            if index < 0:
                raise IndexError
            return self._state.live[index]
        except IndexError:
            raise IndexOutOfRange(
                f"index {index} outside [0, {len(self._state.live)})"
            ) from None

    def length(self) -> int:
        return len(self._state.live)

    def read_all(self) -> list[bytes]:
        return list(self._state.live)

    def push_back(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _ListState.push_back, _check_element(value), wait=True)

    def push_back_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _ListState.push_back, _check_element(value))

    def clear(self) -> None:
        self._cache.apply_op(self._state, _ListState.clear, wait=True)

    def clear_nowait(self) -> None:
        self._cache.apply_op(self._state, _ListState.clear)


class SetHandle(_Handle):
    def contains(self, value: bytes) -> bool:
        return _check_element(value) in self._state.live

    def size(self) -> int:
        return len(self._state.live)

    def read_all(self) -> set[bytes]:
        return set(self._state.live)

    def insert(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _SetState.insert, _check_element(value), wait=True)

    def insert_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _SetState.insert, _check_element(value))

    def remove(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _SetState.remove, _check_element(value), wait=True)

    def remove_nowait(self, value: bytes) -> None:
        self._cache.apply_op(self._state, _SetState.remove, _check_element(value))


_HANDLE_BY_TYPE = {
    StructureType.COUNTER: CounterHandle,
    StructureType.NAME_VALUE: NameValueHandle,
    StructureType.MAP: MapHandle,
    StructureType.COUNTER_MAP: CounterMapHandle,
    StructureType.LIST: ListHandle,
    StructureType.SET: SetHandle,
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
        state = self.cache.create_structure(stype, structure_id)
        return _HANDLE_BY_TYPE[stype](self.cache, state)

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
