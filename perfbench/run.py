"""flexstate benchmark: one workload per invocation.

    python3 perfbench/run.py --workload counter-hot --seed 1 --seconds 20 --trace 0

Runs repetitions of the named workload (see workloads.py) until --seconds
have passed, after one warm-up repetition, checks every repetition's
output against the store, and prints two JSON lines on stdout: a detail
record (environment, sample counts, checks), then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off), their
times scaled to the reference host speed (see reference.py). With
--trace 1 the run alternates untraced and traced repetitions and reports
the per-layer metrics from the traced ones, plus the tracing overhead;
the spans are written to perfbench/out/. Exit status: 0 when every check
passed, 1 when a check failed or a repetition raised, 2 when the program
under test cannot be found.

--tiny and --lossy exist for selfcheck.py: --tiny divides every workload
size by 20, --lossy makes the store drop one mutation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
TINY_DIVISOR = 20
NULL_RUNS = 3
RSS_REPS = 10

E2E_UNITS = {
    "pps": "1/s",
    "durable_pps": "1/s",
    "setup_s": "s",
    "rss_peak_mb": "MiB",
}

LAYERS = ("trafficgen", "nf", "api", "cache", "driver", "keys", "resp")

LAYER_UNITS = {
    "trafficgen.next_ns": "ns",
    "runtime.null_pps": "1/s",
    "runtime.handle_share": "ratio",
    "runtime.queue_dropped": "count",
    "nf.handle_us_p50": "us",
    "nf.handle_us_p99": "us",
    "api.mutate_us_p50": "us",
    "api.mutate_us_p99": "us",
    "api.read_us_p50": "us",
    "api.mutate_calls": "count",
    "api.read_calls": "count",
    "api.wait_us_p50": "us",
    "api.wait_us_p90": "us",
    "api.wait_us_p99": "us",
    "cache.apply_op_us_p50": "us",
    "cache.apply_op_us_p99": "us",
    "cache.take_pending_us_p50": "us",
    "cache.take_pending_us_p99": "us",
    "cache.batch_mutations_p50": "count",
    "cache.batch_mutations_p99": "count",
    "cache.drain_s": "s",
    "cache.drain_mutation_share": "ratio",
    "cache.flushes_per_s": "1/s",
    "cache.empty_tick_share": "ratio",
    "cache.coalescing_ratio": "ratio",
    "cache.store_lag_ms_p99": "ms",
    "cache.retries": "count",
    "cache.sync_flushes": "count",
    "driver.flush_apply_us_p50": "us",
    "driver.flush_apply_us_p99": "us",
    "driver.ns_per_mutation": "ns",
    "driver.sync_apply_us_p50": "us",
    "driver.fetch_us_p50": "us",
    "keys.render_per_mutation": "ratio",
    "resp.encode_us_per_cmd": "us",
    "resp.read_reply_us_p50": "us",
    "resp.cmds_per_mutation": "ratio",
    "resp.server_dispatch_us_p50": "us",
    **{f"{layer}.self_ns_per_item": "ns" for layer in LAYERS},
    "trace.pps_delta": "1/s",
    "trace.wait_us_p50_delta": "us",
}


def percentile(values, q: int) -> float:
    """q-th percentile (1..99); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "lossy": args.lossy,
    }


def run_reps(run_one, deadline: float, reps: list) -> None:
    """Append repetitions until the deadline has passed (at least one)."""
    while True:
        reps.append(run_one())
        if perf_counter() >= deadline:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rate(reps, seconds: str, slowdowns=None) -> float:
    """Items per second over all repetitions: total items / total time,
    each repetition's time divided by the host's slowdown over it."""
    slowdowns = slowdowns or [1.0] * len(reps)
    return sum(r.items for r in reps) / sum(
        getattr(r, seconds) / k for r, k in zip(reps, slowdowns)
    )


def slowdowns_of(ref_s: list[float]) -> list[float]:
    """Host slowdown over each repetition, from the reference times taken
    before it and after it."""
    return [(a + b) / 2 / reference.NOMINAL_S for a, b in zip(ref_s, ref_s[1:])]


def e2e_metrics(reps, slowdowns, rss_mb: float) -> dict:
    n = len(reps)
    slowdowns = slowdowns or [1.0] * n
    return {
        "pps": (rate(reps, "busy_s", slowdowns), n),
        "durable_pps": (rate(reps, "durable_s", slowdowns), n),
        "setup_s": (statistics.median(r.setup_s / k for r, k in zip(reps, slowdowns)), n),
        "rss_peak_mb": (rss_mb, 1),
    }


def layer_metrics(tracer, traced, plain, null_pps) -> dict:
    from tracing import is_mutate, is_read

    merged = tracer.merged()
    calls = merged["calls"]
    total_ns = merged["total_ns"]
    self_ns = merged["self_ns"]
    in_apply = merged["calls_in_apply"]
    n_traced = len(traced)
    items = sum(r.items for r in traced)
    busy_s = sum(r.busy_s for r in traced)
    flush_mutations = calls.get("mutations.flush", 0)
    mutations = flush_mutations + calls.get("mutations.sync", 0)

    def spans(name):
        return tracer.durations_us(lambda n: n == name)

    def p(values, q):
        return (percentile(values, q), len(values))

    flush_totals = {}
    for r in traced:
        for key, value in r.flush.items():
            if isinstance(value, int):
                flush_totals[key] = flush_totals.get(key, 0) + value

    mutate_calls = sum(v for k, v in calls.items() if is_mutate(k))
    read_calls = sum(v for k, v in calls.items() if is_read(k))
    mutate_us = tracer.durations_us(is_mutate)
    read_us = tracer.durations_us(is_read)
    handle_us = spans("nf.handle")
    apply_op_us = spans("cache.apply_op")
    take_us = spans("cache.take_pending")
    flush_apply_us = spans("driver.flush_apply")
    sync_apply_us = spans("driver.sync_apply")
    fetch_us = spans("driver.fetch")
    read_reply_us = spans("resp.read_reply")
    dispatch_us = spans("resp.server_dispatch")
    lags = [lag for r in traced for lag in r.lags_ms]
    plain_waits = [w for r in plain for w in r.waits_us]
    traced_waits = [w for r in traced for w in r.waits_us]
    drained = flush_totals.get("mutations_flushed", 0) + flush_totals.get("drain_mutations", 0)
    handled_s = total_ns.get("nf.handle", 0) / 1e9

    out = {
        "trafficgen.next_ns": (
            ratio(total_ns.get("trafficgen.next", 0), calls.get("trafficgen.packets", 0)),
            calls.get("trafficgen.packets", 0),
        ),
        "runtime.null_pps": (statistics.median(null_pps), len(null_pps)),
        "runtime.handle_share": (
            ratio(handled_s, busy_s),
            calls.get("nf.handle", 0),
        ),
        "runtime.queue_dropped": (sum(r.queue_dropped for r in traced + plain), len(traced + plain)),
        "nf.handle_us_p50": p(handle_us, 50),
        "nf.handle_us_p99": p(handle_us, 99),
        "api.mutate_us_p50": p(mutate_us, 50),
        "api.mutate_us_p99": p(mutate_us, 99),
        "api.read_us_p50": p(read_us, 50),
        "api.mutate_calls": (ratio(mutate_calls, n_traced), n_traced),
        "api.read_calls": (ratio(read_calls, n_traced), n_traced),
        "api.wait_us_p50": p(plain_waits, 50),
        "api.wait_us_p90": p(plain_waits, 90),
        "api.wait_us_p99": p(plain_waits, 99),
        "cache.apply_op_us_p50": p(apply_op_us, 50),
        "cache.apply_op_us_p99": p(apply_op_us, 99),
        "cache.take_pending_us_p50": p(take_us, 50),
        "cache.take_pending_us_p99": p(take_us, 99),
        "cache.batch_mutations_p50": p(tracer.batch_sizes, 50),
        "cache.batch_mutations_p99": p(tracer.batch_sizes, 99),
        "cache.drain_s": (statistics.median(r.drain_s for r in traced), n_traced),
        "cache.drain_mutation_share": (
            ratio(flush_totals.get("drain_mutations", 0), drained),
            drained,
        ),
        "cache.flushes_per_s": (
            ratio(flush_totals.get("flushes_succeeded", 0), busy_s),
            flush_totals.get("flushes_succeeded", 0),
        ),
        "cache.empty_tick_share": (
            ratio(flush_totals.get("empty_ticks", 0), flush_totals.get("ticks", 0)),
            flush_totals.get("ticks", 0),
        ),
        "cache.coalescing_ratio": (ratio(mutate_calls, mutations), mutations),
        "cache.store_lag_ms_p99": p(lags, 99),
        "cache.retries": (ratio(flush_totals.get("retries", 0), n_traced), n_traced),
        "cache.sync_flushes": (ratio(flush_totals.get("sync_flushes", 0), n_traced), n_traced),
        "driver.flush_apply_us_p50": p(flush_apply_us, 50),
        "driver.flush_apply_us_p99": p(flush_apply_us, 99),
        "driver.ns_per_mutation": (
            ratio(total_ns.get("driver.flush_apply", 0), flush_mutations),
            flush_mutations,
        ),
        "driver.sync_apply_us_p50": p(sync_apply_us, 50),
        "driver.fetch_us_p50": p(fetch_us, 50),
        "keys.render_per_mutation": (ratio(in_apply.get("keys.render", 0), mutations), mutations),
        "resp.encode_us_per_cmd": (
            ratio(total_ns.get("resp.encode_command", 0) / 1000, calls.get("resp.encode_command", 0)),
            calls.get("resp.encode_command", 0),
        ),
        "resp.read_reply_us_p50": p(read_reply_us, 50),
        "resp.cmds_per_mutation": (
            ratio(in_apply.get("resp.encode_command", 0), mutations),
            mutations,
        ),
        "resp.server_dispatch_us_p50": p(dispatch_us, 50),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ns_per_item"] = (ratio(self_ns.get(layer, 0), items), items)
    out["trace.pps_delta"] = (
        rate(traced, "busy_s") - rate(plain, "busy_s"),
        n_traced,
    )
    out["trace.wait_us_p50_delta"] = (
        percentile(traced_waits, 50) - percentile(plain_waits, 50),
        len(traced_waits),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--lossy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "flexstate" / "__init__.py").is_file():
        print(f"flexstate sources not found under {SRC}", file=sys.stderr)
        return 2
    # Every thread of the run shares one CPU: one simulated core under one
    # GIL, and no cross-CPU wake-ups, whose cost on a shared host varies
    # by several times from minute to minute.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import COUNTER_HOT, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.tiny:
        workload = workload.scaled(TINY_DIVISOR)
    inputs = workload.make_inputs(args.seed)

    plain: list = []
    traced: list = []
    warm: list = []
    ref_s: list = []  # reference times: before each measured repetition, and after the last
    tracer = Tracer() if args.trace else None
    error = None

    def plain_rep():
        # The last repetition's pool, caches and store form reference cycles;
        # collect them here, outside every timed window, so that neither a
        # later repetition's timing nor the peak RSS depends on when the
        # collector happens to run.
        gc.collect()
        return workload.run_rep(inputs, lossy=args.lossy)

    def measured_rep():
        gc.collect()
        ref_s.append(reference.sample())
        return plain_rep()

    def traced_pair():
        # Untraced then traced, so both halves of the overhead figure see
        # the same host conditions.
        plain.append(plain_rep())
        gc.collect()
        tracer.install()
        try:
            return workload.run_rep(inputs, tracer=tracer, lossy=args.lossy)
        finally:
            tracer.uninstall()

    rss_mb = 0.0
    try:
        warm.append(plain_rep())
        deadline = perf_counter() + args.seconds
        if tracer is None:
            # Peak RSS after a fixed number of repetitions: how many more fit
            # in the window depends on the host's speed, not on the program.
            for _ in range(RSS_REPS):
                plain.append(measured_rep())
            rss_mb = peak_rss_mb()
            run_reps(measured_rep, deadline, plain)
            ref_s.append(reference.sample())
        else:
            run_reps(traced_pair, deadline, traced)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)

    reps = warm + plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if error is not None:
        attempted += workload.planned
        failed += workload.planned
    failed_checks = sorted({k for r in reps for k, v in r.checks.items() if not v})
    correct = error is None and failed == 0 and not failed_checks

    metrics: dict = {}
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args),
        "reps": {"warmup": len(warm), "untraced": len(plain), "traced": len(traced)},
        "failed_share": ratio(failed, attempted),
        "failed_checks": failed_checks,
        "error": error,
    }
    if error is None:
        if tracer is None:
            slowdowns = slowdowns_of(ref_s)
            measured = e2e_metrics(plain, slowdowns, rss_mb)
            units = E2E_UNITS
            detail["unscaled"] = {
                name: value for name, (value, _n) in e2e_metrics(plain, None, rss_mb).items()
            }
            detail["slowdown_median"] = statistics.median(slowdowns)
            detail["per_rep"] = {
                "pps": [r.items / r.busy_s for r in plain],
                "durable_pps": [r.items / r.durable_s for r in plain],
                "setup_s": [r.setup_s for r in plain],
                "slowdown": slowdowns,
            }
        else:
            flows = COUNTER_HOT.scaled(TINY_DIVISOR) if args.tiny else COUNTER_HOT
            null_flows = flows.make_inputs(args.seed)
            null_pps = [flows.null_pps(null_flows) for _ in range(NULL_RUNS)]
            measured = layer_metrics(tracer, traced, plain, null_pps)
            units = LAYER_UNITS
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write_spans(str(spans_path))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            detail["spans"] = len(tracer.spans)
        metrics = {
            name: {"value": measured[name][0], "unit": unit} for name, unit in units.items()
        }
        detail["samples"] = {name: measured[name][1] for name in units}

    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:30s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
