"""Benchmark scenarios: run NFs on the simulated runtime and check them.

A scenario pins everything that matters (NF, cores, driver, endpoint,
flush interval, traffic, seed) and runs N repetitions with seeds seed,
seed+1, ... Each repetition gets a fresh store, a fresh pool, and a set of
NF-specific correctness checks computed from the store (through the same
driver) and the per-core run logs. A repetition passes only if every check
passes; throughput is reported as mean/stdev of per-rep packets-per-second.

For driver "resp" with endpoint "local", a bundled loopback server is
started for the scenario's lifetime.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field, fields, replace

from .config import FlexConfig
from .drivers import make_driver
from .drivers.base import check_inject_latency
from .nf import make_nf_factory
from .nf.combine import (
    combine_counter_maps,
    combine_counters,
    merge_maps,
)
from .nf.nat import NatNF, pool_index
from .resp.server import MiniRespServer
from .runtime import RunReport, WorkerPool
from .trafficgen import generate_flows, read_flow_file, replay

DEFAULT_DURATION_S = 15.0


@dataclass
class BenchScenario:
    nf: str = "counter-async"
    cores: int = 1
    driver_label: str = "flatkvs"
    endpoint: str = "local"
    flush_interval_us: int = 1000
    n_flows: int = 50000
    packet_size: int = 64
    budget: int | None = None
    duration_s: float | None = None
    seed: int = 0
    repetitions: int = 10
    inject_latency_us: int = 0
    nf_params: dict = field(default_factory=dict)
    nf_id: str = "nf1"
    instance_id: str = "ins1"
    flow_file: str | None = None

    def normalized(self) -> "BenchScenario":
        out = self
        if out.budget is not None and out.budget < 1:
            raise ValueError("budget must be positive")
        if out.duration_s is not None and not out.duration_s > 0:
            raise ValueError("duration_s must be positive")
        if out.budget is not None and out.duration_s is not None:
            raise ValueError("set budget or duration_s, not both")
        if out.budget is None and out.duration_s is None:
            out = replace(out, duration_s=DEFAULT_DURATION_S)
        if out.cores < 1:
            raise ValueError("cores must be at least 1")
        if out.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        check_inject_latency(out.inject_latency_us)
        out.config(out.endpoint).validate()
        make_nf_factory(out.nf, **out.nf_params)
        return out

    def config(self, endpoint: str) -> FlexConfig:
        """The config a repetition runs, on endpoint (a bundled server's
        own endpoint stands in for "local" on resp)."""
        values = {f.name: getattr(self, f.name) for f in fields(FlexConfig)}
        return FlexConfig(**{**values, "endpoint": endpoint})

    def label(self) -> str:
        where = self.endpoint if self.driver_label == "resp" else "local"
        return f"{self.nf}/{self.driver_label}@{where}/c{self.cores}"


@dataclass
class RepResult:
    seed: int
    report: RunReport
    checks: dict

    def passed(self) -> bool:
        return all(v for k, v in self.checks.items() if isinstance(v, bool))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed(),
            "checks": self.checks,
            "report": self.report.to_dict(),
        }


@dataclass
class BenchReport:
    scenario: BenchScenario
    reps: list[RepResult]

    @property
    def pps_values(self) -> list[float]:
        return [r.report.pps for r in self.reps]

    @property
    def mean_pps(self) -> float:
        return statistics.fmean(self.pps_values)

    @property
    def stdev_pps(self) -> float:
        values = self.pps_values
        return statistics.stdev(values) if len(values) > 1 else 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed() for r in self.reps)

    def to_dict(self) -> dict:
        scenario = dict(self.scenario.__dict__)
        return {
            "scenario": scenario,
            "label": self.scenario.label(),
            "mean_pps": self.mean_pps,
            "stdev_pps": self.stdev_pps,
            "passed": self.passed,
            "reps": [r.to_dict() for r in self.reps],
        }


def run_scenario(scenario: BenchScenario) -> BenchReport:
    scenario = scenario.normalized()
    server = None
    endpoint = scenario.endpoint
    try:
        if scenario.driver_label == "resp" and endpoint == "local":
            server = MiniRespServer().start()
            endpoint = server.endpoint
        reps = []
        for i in range(scenario.repetitions):
            reps.append(_run_rep(scenario, endpoint, scenario.seed + i))
        return BenchReport(scenario=scenario, reps=reps)
    finally:
        if server is not None:
            server.stop()


def _run_rep(scenario: BenchScenario, endpoint: str, seed: int) -> RepResult:
    if scenario.flow_file:
        flows = read_flow_file(scenario.flow_file)
    else:
        flows = generate_flows(scenario.n_flows, seed)
    driver = make_driver(
        scenario.driver_label, endpoint, inject_latency_us=scenario.inject_latency_us
    )
    control = driver.connect()
    try:
        driver.wipe(control)  # repetitions must not see earlier state
        config = scenario.config(endpoint)
        pool = WorkerPool(config, scenario.cores, driver)
        source = replay(
            flows, packet_size=scenario.packet_size, budget=scenario.budget
        )
        report = pool.run(
            make_nf_factory(scenario.nf, **scenario.nf_params),
            source,
            duration_s=scenario.duration_s,
            nf_name=scenario.nf,
        )
        checks = _run_checks(scenario, config, pool, control, report)
        return RepResult(seed=seed, report=report, checks=checks)
    finally:
        control.close()
        driver.close()


def _run_checks(
    scenario: BenchScenario,
    config: FlexConfig,
    pool: WorkerPool,
    session,
    report: RunReport,
) -> dict:
    checks: dict = {
        "conservation": report.conservation_ok(),
        "no_dead_letters": not any(c.flush.get("dead_letters") for c in report.per_core),
    }
    nf_name = scenario.nf
    if nf_name in ("counter-sync", "counter-async"):
        combined = combine_counters(
            session, config.nf_id, config.instance_id, "pktCounter"
        )
        checks["combined_count"] = combined
        checks["count_matches_processed"] = combined == report.processed
    elif nf_name == "nat":
        checks.update(_nat_checks(pool, session, config))
    elif nf_name == "lb":
        checks.update(_lb_checks(pool, session, config))
    return checks


def _nat_checks(pool: WorkerPool, session, config: FlexConfig) -> dict:
    nfs: list[NatNF] = [w.nf for w in pool.workers]
    union: dict[bytes, bytes] = {}
    sizes = 0
    pairs: list[bytes] = []
    chunks_ok = True
    for nf in nfs:
        snapshot = nf.bindings_snapshot()
        sizes += len(snapshot)
        union.update(snapshot)
        pairs.extend(snapshot.values())
        low = nf.chunk_start
        high = nf.chunk_start + nf.chunk_len
        for pair in snapshot.values():
            index = pool_index(pair)
            if not low <= index < high:
                chunks_ok = False
    store_bindings = merge_maps(
        session, config.nf_id, config.instance_id, "natBindings"
    )
    # Against the live cursors, not the bindings: a backpressure drop after
    # an allocation legitimately leaves a cursor ahead of its bindings.
    store_cursor = combine_counters(
        session, config.nf_id, config.instance_id, "natCursor"
    )
    return {
        "bindings": len(union),
        "exhausted_drops": sum(nf.exhausted_drops for nf in nfs),
        "no_exhaustion": all(nf.exhausted_drops == 0 for nf in nfs),
        "injective": len(set(pairs)) == len(pairs),
        "cores_disjoint": len(union) == sizes,
        "chunks_respected": chunks_ok,
        "stable": all(nf.stability_violations == 0 for nf in nfs),
        "store_matches_log": store_bindings == union,
        "cursor_matches_log": store_cursor == sum(nf.cursor.read() for nf in nfs),
    }


def _lb_checks(pool: WorkerPool, session, config: FlexConfig) -> dict:
    per_core_ok = True
    log_totals: dict[bytes, int] = {}
    total_flows = 0
    for w in pool.workers:
        nf = w.nf
        loads = [nf.load.get(s) for s in nf.server_ids]
        if loads and max(loads) - min(loads) > 1:
            per_core_ok = False
        for server, count in nf.load.read_all().items():
            log_totals[server] = log_totals.get(server, 0) + count
        total_flows += nf.flows_assigned
    combined = combine_counter_maps(session, config.nf_id, config.instance_id, "load")
    server_ids = pool.workers[0].nf.server_ids if pool.workers else []
    spread = [combined.get(s, 0) for s in server_ids]
    global_ok = (max(spread) - min(spread) <= pool.n_cores) if spread else True
    return {
        "flows_assigned": total_flows,
        "per_core_spread_ok": per_core_ok,
        "global_spread_ok": global_ok,
        "combined_matches_logs": combined == {k: v for k, v in log_totals.items() if v},
        "all_packets_forwarded": all(w.report.nf_dropped == 0 for w in pool.workers),
    }


# Sweeps and output formats.

# flexbench's scenario flags: flag -> (BenchScenario field, type). The CLI
# builds its options and overrides from this table, and run_sweep casts
# axis values with it.
SCENARIO_FLAGS = {
    "nf": ("nf", str),
    "cores": ("cores", int),
    "driver": ("driver_label", str),
    "endpoint": ("endpoint", str),
    "flush-interval-us": ("flush_interval_us", int),
    "flows": ("n_flows", int),
    "packet-size": ("packet_size", int),
    "seed": ("seed", int),
    "duration-s": ("duration_s", float),
    "budget": ("budget", int),
    "inject-latency-us": ("inject_latency_us", int),
    "reps": ("repetitions", int),
    "flow-file": ("flow_file", str),
}
_AXES = ("cores", "driver", "flush-interval-us", "inject-latency-us", "flows", "nf")


def sweep_axes() -> list[str]:
    return sorted(_AXES)


def run_sweep(base: BenchScenario, axis: str, values: list[str]) -> list[BenchReport]:
    if axis not in _AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; known: {sweep_axes()}")
    field_name, cast = SCENARIO_FLAGS[axis]
    reports = []
    for raw in values:
        scenario = replace(base, **{field_name: cast(raw)})
        reports.append(run_scenario(scenario))
    return reports


def reports_to_json(reports: list[BenchReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


# CSV heading -> BenchScenario field; the report figures follow.
_CSV_COLUMNS = {
    "nf": "nf",
    "driver": "driver_label",
    "endpoint": "endpoint",
    "cores": "cores",
    "flush_interval_us": "flush_interval_us",
    "inject_latency_us": "inject_latency_us",
    "flows": "n_flows",
    "reps": "repetitions",
}


def reports_to_csv(reports: list[BenchReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*_CSV_COLUMNS, "mean_pps", "stdev_pps", "passed"])
    for r in reports:
        writer.writerow(
            [getattr(r.scenario, name) for name in _CSV_COLUMNS.values()]
            + [f"{r.mean_pps:.0f}", f"{r.stdev_pps:.0f}", r.passed]
        )
    return buf.getvalue()


def reports_to_text(reports: list[BenchReport]) -> str:
    lines = []
    for r in reports:
        s = r.scenario
        lines.append(
            f"{r.scenario.label():40s} reps={s.repetitions} "
            f"mean={r.mean_pps:12.0f} pps stdev={r.stdev_pps:10.0f} "
            f"{'PASS' if r.passed else 'FAIL'}"
        )
        for rep in r.reps:
            failed = {
                k: v for k, v in rep.checks.items() if isinstance(v, bool) and not v
            }
            if failed:
                lines.append(f"  seed {rep.seed}: failed checks {sorted(failed)}")
    return "\n".join(lines) + "\n"
