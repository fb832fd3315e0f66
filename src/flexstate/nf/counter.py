"""Packet counters, the minimal stateful NF.

Both variants count every packet in a per-core "pktCounter" and forward
the packet with its addresses swapped (the cheapest possible rewrite, so
runs measure state cost rather than header work: one unpack and one
tuple.__new__ over all seven fields, since NamedTuple's generated __new__
costs more than the counter's fold). The sync variant waits for the store
on every add; the async variant folds adds into the write-back cache and
lets the flusher batch them.
"""

from __future__ import annotations

from ..api import StateContext
from ..errors import BackpressureSignal, StoreUnavailable
from ..runtime import Packet

COUNTER_ID = "pktCounter"
_new = tuple.__new__  # builds a Packet without NamedTuple's Python __new__


class CounterSyncNF:
    name = "counter-sync"

    def __init__(self):
        self.counter = None
        self.store_errors = 0

    def setup(self, ctx: StateContext) -> None:
        self.counter = ctx.create_counter(COUNTER_ID)

    def handle(self, pkt: Packet, ctx: StateContext):
        try:
            self.counter.add(1)
        except (StoreUnavailable, BackpressureSignal):
            self.store_errors += 1
            return None
        src_ip, dst_ip, src_port, dst_port, proto, size, _meta = pkt
        return _new(Packet, (dst_ip, src_ip, dst_port, src_port, proto, size, None))

    def summary(self) -> dict:
        return {"count": self.counter.read(), "store_errors": self.store_errors}


class CounterAsyncNF(CounterSyncNF):
    name = "counter-async"

    def handle(self, pkt: Packet, ctx: StateContext):
        try:
            self.counter.add_nowait(1)
        except BackpressureSignal:
            self.store_errors += 1
            return None
        src_ip, dst_ip, src_port, dst_port, proto, size, _meta = pkt
        return _new(Packet, (dst_ip, src_ip, dst_port, src_port, proto, size, None))
