"""Driver registry: config labels to driver classes.

Stores are selected by label alone, so moving an NF between stores is a
one-line config change and no NF code imports this package.
"""

from __future__ import annotations

from ..errors import UnknownDriver
from .base import (
    Driver,
    DriverSession,
    Mutation,
    MutationBatch,
    delete,
    incr,
    list_append,
    map_del,
    map_incr,
    map_set,
    set_add,
    set_blob,
    set_del,
)
from .flatkvs import FlatKvsDriver
from .resp import RespDriver
from .tablestore import TableStoreDriver

_REGISTRY: dict[str, type] = {
    FlatKvsDriver.label: FlatKvsDriver,
    TableStoreDriver.label: TableStoreDriver,
    RespDriver.label: RespDriver,
}


def known_labels() -> frozenset[str]:
    return frozenset(_REGISTRY)


def make_driver(
    label: str, endpoint: str = "local", *, inject_latency_us: int = 0
) -> Driver:
    """The driver registered under label, for endpoint; every session it
    opens pays inject_latency_us on each apply, fetch and scan."""
    cls = _REGISTRY.get(label)
    if cls is None:
        raise UnknownDriver(f"driver {label!r}; known: {sorted(_REGISTRY)}")
    return cls(endpoint, inject_latency_us=inject_latency_us)


def from_config(config) -> Driver:
    return make_driver(config.driver_label, config.endpoint)


__all__ = [
    "Driver",
    "DriverSession",
    "Mutation",
    "MutationBatch",
    "FlatKvsDriver",
    "TableStoreDriver",
    "RespDriver",
    "known_labels",
    "make_driver",
    "from_config",
    "set_blob",
    "delete",
    "incr",
    "map_set",
    "map_del",
    "map_incr",
    "list_append",
    "set_add",
    "set_del",
]
