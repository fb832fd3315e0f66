"""Source NAT with per-core address chunks.

The external pool is a range of (address, port) pairs carved into
contiguous, disjoint chunks, one per core, so cores allocate without
coordinating. Each core keeps its bindings in a Map (packed 5-tuple ->
packed pair) and its allocation cursor in a Counter; both persist, so a
restarted core resumes after its previously allocated entries instead of
double-assigning them.

handle unpacks the packet once, packs the flow key from those fields and
builds the rewritten packet with one tuple.__new__ over all seven fields,
as the counter NFs do: NamedTuple's generated __new__ costs more than the
tuple. The header work stays: the pair is still packed and unpacked.

A miss (a new binding) costs about three hits: it reads the cursor, packs
the pair with pool_pair and makes two _nowait calls. On resp a flush's
bindings travel as HSETs of up to 256 pairs, far past encode_command's
16-part crossover to its C-level passes (resp/protocol.py).
"""

from __future__ import annotations

import struct

from ..api import StateContext
from ..errors import BackpressureSignal
from ..runtime import Packet

BINDINGS_ID = "natBindings"
CURSOR_ID = "natCursor"

# 100.64.0.0/10, the address space reserved for exactly this kind of NAT.
EXTERNAL_BASE = 0x64400000

_FLOW = struct.Struct("!IIHHB")
_PAIR = struct.Struct("!IH")
# Pool entry index is (EXTERNAL_BASE + index // 65536, index % 65536), so
# its _PAIR packing is the six big-endian bytes of _PAIR_BASE + index.
_PAIR_BASE = EXTERNAL_BASE << 16
_new = tuple.__new__  # builds a Packet without NamedTuple's Python __new__


def pool_pair(index: int) -> bytes:
    """The packed (address, port) a binding to pool entry index stores."""
    return (_PAIR_BASE + index).to_bytes(6, "big")


def pool_entry(index: int) -> tuple[int, int]:
    """(address, port) of pool entry index; 65536 ports per address."""
    return _PAIR.unpack(pool_pair(index))


def pool_index(pair: bytes) -> int:
    """Inverse of pool_pair."""
    return int.from_bytes(pair, "big") - _PAIR_BASE


def chunk_bounds(pool_size: int, core_id: int, n_cores: int) -> tuple[int, int]:
    """(start, length) of a core's contiguous slice of the pool."""
    base, extra = divmod(pool_size, n_cores)
    start = core_id * base + min(core_id, extra)
    length = base + (1 if core_id < extra else 0)
    return start, length


class NatNF:
    name = "nat"

    def __init__(self, pool_size: int = 65536):
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        self.pool_size = pool_size
        self.bindings = None
        self.cursor = None
        self.chunk_start = 0
        self.chunk_len = 0
        self.exhausted_drops = 0
        self.stability_violations = 0
        self.backpressure_drops = 0
        self._assigned: dict[bytes, bytes] = {}

    def setup(self, ctx: StateContext) -> None:
        self.chunk_start, self.chunk_len = chunk_bounds(
            self.pool_size, ctx.core_id, ctx.n_cores
        )
        self.bindings = ctx.create_map(BINDINGS_ID)
        self.cursor = ctx.create_counter(CURSOR_ID)
        # Bindings that survived a previous run count as our own.
        self._assigned = dict(self.bindings.read_all())

    def handle(self, pkt: Packet, ctx: StateContext):
        src_ip, dst_ip, src_port, dst_port, proto, size, _meta = pkt
        flow_key = _FLOW.pack(src_ip, dst_ip, src_port, dst_port, proto)
        pair = self.bindings.get(flow_key)
        if pair is None:
            index = self.cursor.read()
            if index >= self.chunk_len:
                self.exhausted_drops += 1
                return None
            pair = pool_pair(self.chunk_start + index)
            try:
                self.cursor.add_nowait(1)
                # Refused here, the cursor has moved: the entry stays unused.
                self.bindings.insert_nowait(flow_key, pair)
            except BackpressureSignal:
                self.backpressure_drops += 1
                return None
            self._assigned[flow_key] = pair
        elif self._assigned.get(flow_key, pair) != pair:
            self.stability_violations += 1
        ext_ip, ext_port = _PAIR.unpack(pair)
        return _new(Packet, (ext_ip, dst_ip, ext_port, dst_port, proto, size, None))

    def summary(self) -> dict:
        return {
            "allocated": self.cursor.read(),
            "exhausted_drops": self.exhausted_drops,
            "stability_violations": self.stability_violations,
            "backpressure_drops": self.backpressure_drops,
            "chunk_start": self.chunk_start,
            "chunk_len": self.chunk_len,
        }

    def bindings_snapshot(self) -> dict[bytes, bytes]:
        return self.bindings.read_all()
