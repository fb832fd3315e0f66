"""State management for network functions, decoupled from the data store.

NFs program against small typed structures (counters, maps, lists, sets)
through a per-core write-back cache; pluggable drivers translate the same
mutation stream to whichever store a config file names. The package also
ships a simulated multi-core packet runtime, reference NFs, and the
flexbench CLI for correctness and throughput runs.
"""

from . import drivers, nf
from .api import (
    CounterHandle,
    CounterMapHandle,
    ListHandle,
    MapHandle,
    NameValueHandle,
    SetHandle,
    StateContext,
)
from .cache import CoreCache, FlushStats
from .config import FlexConfig, load_config, parse_config
from .errors import StateError
from .keys import StoreKey, StructureType, build_key, parse_key
from .runtime import Packet, RunReport, WorkerPool, make_packet, rss_hash
from .trafficgen import generate_flows, replay

__version__ = "0.1.0"

__all__ = [
    "StateContext",
    "CounterHandle",
    "NameValueHandle",
    "MapHandle",
    "CounterMapHandle",
    "ListHandle",
    "SetHandle",
    "CoreCache",
    "FlushStats",
    "FlexConfig",
    "load_config",
    "parse_config",
    "StateError",
    "StoreKey",
    "StructureType",
    "build_key",
    "parse_key",
    "Packet",
    "make_packet",
    "rss_hash",
    "WorkerPool",
    "RunReport",
    "generate_flows",
    "replay",
    "drivers",
    "nf",
    "__version__",
]
