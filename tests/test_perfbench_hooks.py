"""perfbench's tracer (perfbench/tracing.py) patches names defined in src/:
the handle methods, CoreCache and Flusher methods, Driver.apply/fetch and
the RESP codec. This drives each patched path once under the tracer, so a
rename in src/ that the tracer would silently miss fails here.
"""

from pathlib import Path

from flexstate.api import StateContext
from flexstate.cache import CoreCache
from flexstate.drivers import make_driver
from flexstate.keys import StructureType, build_key

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_spans_reach_every_layer(mini_server, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    apply_op = CoreCache.apply_op
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cache = CoreCache("nf1", "ins1", 0, make_driver("flatkvs"), start_flusher=False)
        ctx = StateContext(cache)
        ctx.create_counter("c").add_nowait(1)
        ctx.create_map("m").insert_nowait(b"k", b"v")
        cache.flush_now()
        cache.drain()
        resp = make_driver("resp", mini_server.endpoint)
        with resp.connect() as session:
            key = build_key("nf1", "ins1", 0, StructureType.COUNTER, "c")
            assert session.fetch(key) is None
        resp.close()
    finally:
        tracer.uninstall()
    calls = tracer.merged()["calls"]
    for span in (
        "api.add_nowait",
        "cache.apply_op",
        "cache.tick",
        "cache.take_pending",
        "driver.flush_apply",
        "driver.fetch",
        "resp.encode_command",
        "resp.read_reply",
    ):
        assert calls.get(span, 0) > 0, span
    assert CoreCache.__dict__["apply_op"] is apply_op
