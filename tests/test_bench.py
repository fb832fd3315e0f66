"""Benchmark harness and flexbench CLI tests.

Runs use tiny packet budgets: the point is to exercise scenario plumbing,
correctness checks, sweeps, and output formats, not to measure throughput.
"""

import argparse
import csv
import inspect
import io
import json
import os

import pytest

from flexstate import bench
from flexstate.cache import CoreCache
from flexstate.cli import build_parser, main
from flexstate.drivers import (
    Driver,
    FlatKvsDriver,
    RespDriver,
    TableStoreDriver,
    known_labels,
    make_driver,
)
from flexstate.runtime import WorkerPool


def tiny(**overrides) -> bench.BenchScenario:
    base = dict(
        nf="counter-async",
        cores=2,
        driver_label="flatkvs",
        n_flows=200,
        budget=2000,
        repetitions=2,
        seed=7,
    )
    base.update(overrides)
    return bench.BenchScenario(**base)


# Scenario normalization and labels.


def test_normalized_defaults_duration_when_unbounded():
    s = bench.BenchScenario().normalized()
    assert s.budget is None
    assert s.duration_s == bench.DEFAULT_DURATION_S


def test_normalized_keeps_explicit_budget():
    s = tiny().normalized()
    assert s.budget == 2000
    assert s.duration_s is None


@pytest.mark.parametrize("bad", [{"cores": 0}, {"cores": -1}, {"repetitions": 0}])
def test_normalized_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        tiny(**bad).normalized()


def test_normalized_rejects_nan_duration():
    # NaN passes a "<= 0" test, and a NaN deadline is never reached.
    with pytest.raises(ValueError, match="duration_s must be positive"):
        tiny(budget=None, duration_s=float("nan")).normalized()


def test_normalized_rejects_unknown_nf():
    with pytest.raises(KeyError):
        tiny(nf="firewall").normalized()


def test_normalized_rejects_bad_nf_params():
    with pytest.raises(ValueError):
        tiny(nf="nat", nf_params={"pool_size": 0}).normalized()


def test_label_shows_endpoint_only_for_resp():
    assert tiny().label() == "counter-async/flatkvs@local/c2"
    resp = tiny(driver_label="resp", endpoint="127.0.0.1:6399", nf="nat")
    assert resp.label() == "nat/resp@127.0.0.1:6399/c2"


# run_scenario on each NF.


def test_counter_scenario_checks():
    report = bench.run_scenario(tiny())
    assert len(report.reps) == 2
    assert report.passed
    for i, rep in enumerate(report.reps):
        assert rep.seed == 7 + i
        assert rep.checks["conservation"] is True
        assert rep.checks["combined_count"] == 2000
        assert rep.checks["count_matches_processed"] is True
    assert all(p > 0 for p in report.pps_values)
    assert report.mean_pps > 0
    assert report.stdev_pps >= 0.0


def test_reps_do_not_share_state():
    # The combined count stays at the per-rep budget, so each repetition
    # must have started from a wiped store.
    report = bench.run_scenario(tiny(repetitions=3))
    for rep in report.reps:
        assert rep.checks["combined_count"] == 2000


def test_nat_scenario_checks():
    report = bench.run_scenario(
        tiny(nf="nat", n_flows=300, budget=3000, nf_params={"pool_size": 4096})
    )
    assert report.passed
    rep = report.reps[0]
    assert rep.checks["bindings"] == 300
    assert rep.checks["exhausted_drops"] == 0
    for key in (
        "no_exhaustion",
        "injective",
        "cores_disjoint",
        "chunks_respected",
        "stable",
        "store_matches_log",
    ):
        assert rep.checks[key] is True, key


def test_lb_scenario_checks():
    report = bench.run_scenario(
        tiny(nf="lb", n_flows=120, budget=1200, nf_params={"servers": 3})
    )
    assert report.passed
    rep = report.reps[0]
    assert rep.checks["flows_assigned"] == 120
    for key in (
        "per_core_spread_ok",
        "global_spread_ok",
        "combined_matches_logs",
        "all_packets_forwarded",
    ):
        assert rep.checks[key] is True, key


def test_resp_scenario_starts_its_own_server():
    # endpoint "local" with the resp driver gets a private server per call.
    report = bench.run_scenario(
        tiny(driver_label="resp", repetitions=1, n_flows=50, budget=500)
    )
    assert report.passed
    assert report.reps[0].checks["combined_count"] == 500


def test_flow_file_scenario(tmp_path):
    path = tmp_path / "flows.txt"
    assert main(["gen-flows", "--flows", "150", "--seed", "3", "--out", str(path)]) == 0
    report = bench.run_scenario(
        tiny(flow_file=str(path), repetitions=1, budget=1500)
    )
    assert report.passed
    assert report.reps[0].checks["combined_count"] == 1500


# Sweeps.


def test_sweep_casts_axis_values():
    reports = bench.run_sweep(tiny(repetitions=1), "cores", ["1", "2"])
    assert [r.scenario.cores for r in reports] == [1, 2]
    assert all(r.passed for r in reports)


def test_sweep_over_driver_axis():
    reports = bench.run_sweep(
        tiny(repetitions=1, budget=600, n_flows=60),
        "driver",
        ["flatkvs", "tablestore"],
    )
    assert [r.scenario.driver_label for r in reports] == ["flatkvs", "tablestore"]
    assert all(r.passed for r in reports)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        bench.run_sweep(tiny(), "mtu", ["1500"])


def test_sweep_axes_listing():
    assert bench.sweep_axes() == sorted(
        ["cores", "driver", "flush-interval-us", "inject-latency-us", "flows", "nf"]
    )


_NFS = ("counter-async", "counter-sync", "lb", "nat")
_DRIVERS = ("flatkvs", "resp", "tablestore")
# option strings -> (dest, type, choices, default, help, required)
_SCENARIO_SURFACE = {
    ("-h", "--help"): (
        "help", str, None, argparse.SUPPRESS, "show this help message and exit", False
    ),
    ("--config",): (
        "config", str, None, None, "config file with ids and store defaults", False
    ),
    ("--nf",): ("nf", str, _NFS, None, None, False),
    ("--cores",): ("cores", int, None, None, None, False),
    ("--driver",): ("driver", str, _DRIVERS, None, None, False),
    ("--endpoint",): (
        "endpoint", str, None, None, "host:port, or 'local' for in-process", False
    ),
    ("--flush-interval-us",): ("flush_interval_us", int, None, None, None, False),
    ("--flows",): ("flows", int, None, None, None, False),
    ("--packet-size",): ("packet_size", int, None, None, None, False),
    ("--seed",): ("seed", int, None, None, None, False),
    ("--duration-s",): ("duration_s", float, None, None, None, False),
    ("--budget",): (
        "budget", int, None, None, "total packets instead of a duration", False
    ),
    ("--inject-latency-us",): ("inject_latency_us", int, None, None, None, False),
    ("--reps",): ("reps", int, None, None, None, False),
    ("--pool-size",): ("pool_size", int, None, None, "NAT external pool entries", False),
    ("--servers",): ("servers", int, None, None, "load balancer backend count", False),
    ("--flow-file",): (
        "flow_file", str, None, None, "replay this flow file instead of generating", False
    ),
    ("--report",): (
        "report", str, None, None, "write the report here instead of stdout", False
    ),
    ("--format",): ("fmt", str, ("json", "csv", "text"), "text", None, False),
}
_AXIS_NAMES = ("cores", "driver", "flows", "flush-interval-us", "inject-latency-us", "nf")
_SWEEP_SURFACE = {
    **_SCENARIO_SURFACE,
    ("--axis",): ("axis", str, _AXIS_NAMES, None, None, True),
    ("--values",): ("values", str, None, None, "comma-separated axis values", True),
}


def _option_surface(command: str) -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        tuple(a.option_strings): (
            a.dest,
            a.type or str,  # an untyped option's value is its string
            tuple(a.choices) if a.choices is not None else None,
            a.default,
            a.help,
            a.required,
        )
        for a in sub.choices[command]._actions
    }


@pytest.mark.parametrize(
    "command, surface", [("run", _SCENARIO_SURFACE), ("sweep", _SWEEP_SURFACE)]
)
def test_flexbench_surface_is_pinned(command, surface):
    assert _option_surface(command) == surface
    assert tuple(bench.sweep_axes()) == _AXIS_NAMES
    header = bench.reports_to_csv([]).splitlines()
    assert header == [
        "nf,driver,endpoint,cores,flush_interval_us,inject_latency_us,"
        "flows,reps,mean_pps,stdev_pps,passed"
    ]


# The library's run settings. A knob added to one of these calls fails
# here until the literal is edited on purpose.
_CALL_SURFACE = {
    CoreCache.__init__: "(self, nf_id, instance_id, core_id, driver, *, flush_interval_us=1000)",
    CoreCache.drain: "(self)",
    WorkerPool.__init__: "(self, config, n_cores, driver=None)",
    WorkerPool.run: "(self, nf_factory, packets, *, duration_s=None, nf_name='nf')",
    make_driver: "(label, endpoint='local', *, inject_latency_us=0)",
    Driver.connect: "(self)",
    FlatKvsDriver: "(endpoint, *, inject_latency_us=0)",
    TableStoreDriver: "(endpoint, *, inject_latency_us=0)",
    RespDriver: "(endpoint, *, inject_latency_us=0)",
}


def _bare_signature(obj) -> str:
    """obj's parameters and defaults as source spells them, unannotated."""
    signature = inspect.signature(obj)
    params = [
        p.replace(annotation=inspect.Parameter.empty)
        for p in signature.parameters.values()
    ]
    return str(signature.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_library_surface_is_pinned():
    assert {c.label for c in (FlatKvsDriver, TableStoreDriver, RespDriver)} == known_labels()
    surface = {obj: _bare_signature(obj) for obj in _CALL_SURFACE}
    assert surface == _CALL_SURFACE


# Output formats.


@pytest.fixture(scope="module")
def one_report():
    return [bench.run_scenario(tiny(repetitions=1))]


def test_json_report_shape(one_report):
    parsed = json.loads(bench.reports_to_json(one_report))
    assert len(parsed) == 1
    entry = parsed[0]
    assert entry["label"] == "counter-async/flatkvs@local/c2"
    assert entry["passed"] is True
    assert entry["scenario"]["budget"] == 2000
    assert entry["reps"][0]["checks"]["combined_count"] == 2000
    assert entry["reps"][0]["report"]["processed"] == 2000


def test_csv_report_shape(one_report):
    rows = list(csv.reader(io.StringIO(bench.reports_to_csv(one_report))))
    assert rows[0][:4] == ["nf", "driver", "endpoint", "cores"]
    assert len(rows) == 2
    assert rows[1][0] == "counter-async"
    assert rows[1][-1] == "True"


def test_text_report_shape(one_report):
    text = bench.reports_to_text(one_report)
    assert "counter-async/flatkvs@local/c2" in text
    assert "PASS" in text
    assert "failed checks" not in text


def test_text_report_names_failed_checks():
    report = bench.run_scenario(tiny(repetitions=1))
    report.reps[0].checks["count_matches_processed"] = False
    text = bench.reports_to_text([report])
    assert "FAIL" in text
    assert "failed checks ['count_matches_processed']" in text


# CLI.


def test_cli_gen_flows_round_trip(tmp_path, capsys):
    out = tmp_path / "flows.txt"
    code = main(["gen-flows", "--flows", "25", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "wrote 25 flows" in capsys.readouterr().out
    header, *lines = out.read_text().splitlines()
    assert header == "flexstate-flows v1"
    assert len(lines) == 25
    assert all(line.count(",") == 4 for line in lines)


def test_cli_run_text_output(capsys):
    code = main(
        [
            "run",
            "--nf",
            "counter-async",
            "--cores",
            "2",
            "--driver",
            "flatkvs",
            "--flows",
            "100",
            "--budget",
            "1000",
            "--reps",
            "1",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "counter-async/flatkvs@local/c2" in captured.out
    assert "PASS" in captured.out


@pytest.mark.parametrize(
    "limits, message",
    [
        (["--budget", "0"], "budget must be positive"),
        (["--budget", "-5"], "budget must be positive"),
        (["--duration-s", "0"], "duration_s must be positive"),
        (["--duration-s", "-1"], "duration_s must be positive"),
        (["--budget", "1000", "--duration-s", "0.5"], "set budget or duration_s, not both"),
        (
            ["--flush-interval-us", "0"],
            "flush interval must be a positive integer of microseconds, got 0",
        ),
        (
            ["--flush-interval-us", "-5"],
            "flush interval must be a positive integer of microseconds, got -5",
        ),
        (["--inject-latency-us", "-3"], "inject_latency_us must not be negative"),
    ],
)
def test_cli_run_refuses_bad_traffic_limits(limits, message, capsys):
    code = main(["run", "--nf", "counter-async", "--flows", "100", "--reps", "1", *limits])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flexbench: {message}\n"


def test_cli_run_json_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--nf",
            "lb",
            "--servers",
            "3",
            "--cores",
            "1",
            "--driver",
            "tablestore",
            "--flows",
            "60",
            "--budget",
            "600",
            "--reps",
            "1",
            "--format",
            "json",
            "--report",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    parsed = json.loads(out.read_text())
    assert parsed[0]["passed"] is True
    assert parsed[0]["scenario"]["nf_params"] == {"servers": 3}


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    conf = tmp_path / "nf.conf"
    conf.write_text(
        "NF id: gateway; NF instance id: edge1;\n"
        "driver: tablestore;\n"
        "flush interval us: 2000;\n"
    )
    code = main(
        [
            "run",
            "--config",
            str(conf),
            "--driver",
            "flatkvs",
            "--flows",
            "100",
            "--budget",
            "1000",
            "--reps",
            "1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    scenario = parsed[0]["scenario"]
    assert scenario["nf_id"] == "gateway"
    assert scenario["instance_id"] == "edge1"
    assert scenario["flush_interval_us"] == 2000
    assert scenario["driver_label"] == "flatkvs"  # flag beats config


def test_cli_sweep(capsys):
    code = main(
        [
            "sweep",
            "--axis",
            "cores",
            "--values",
            "1,2",
            "--nf",
            "counter-async",
            "--driver",
            "flatkvs",
            "--flows",
            "80",
            "--budget",
            "800",
            "--reps",
            "1",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert [r[3] for r in rows[1:]] == ["1", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--nf", "counter-async", "--cores", "0", "--budget", "100"],
        ["run", "--nf", "nat", "--pool-size", "0", "--budget", "100"],
        ["run", "--config", "/nonexistent/nf.conf", "--budget", "100"],
        ["sweep", "--axis", "cores", "--values", "one", "--budget", "100"],
    ],
)
def test_cli_reports_errors_on_stderr(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("flexbench: ")


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


# Dead letters fail the repetition.


def test_dead_lettered_batch_fails_the_repetition(monkeypatch):
    # The store applies its first batch, then refuses it, as a store
    # without atomic batches can: every mutation lands, so only the
    # dead-letter check can tell that the run lost a batch's report.
    from flexstate.errors import Overflow
    from flexstate.testing import RecordingDriver

    class RefuseOnce(RecordingDriver):
        refused = False

        def _apply(self, session, batch):
            super()._apply(session, batch)
            if not self.refused:
                self.refused = True
                raise Overflow("injected refusal")

    drivers = []

    def make_refusing(label, endpoint="local", **kwargs):
        driver = RefuseOnce(bench_make_driver(label, endpoint, **kwargs))
        drivers.append(driver)
        return driver

    bench_make_driver = bench.make_driver
    monkeypatch.setattr(bench, "make_driver", make_refusing)
    report = bench.run_scenario(tiny(cores=1, repetitions=1))
    rep = report.reps[0]
    flush = rep.report.per_core[0].flush
    path = next(p for p in flush["last_error"].split() if p.endswith(".json:"))[:-1]
    os.unlink(path)
    assert flush["dead_letters"] == 1
    assert rep.checks["no_dead_letters"] is False
    failed = [k for k, v in rep.checks.items() if v is False]
    assert failed == ["no_dead_letters"]
    assert not rep.passed()
    assert not report.passed
    assert drivers[0].refused


def test_clean_repetition_has_no_dead_letters():
    report = bench.run_scenario(tiny(cores=2, repetitions=1))
    assert report.reps[0].checks["no_dead_letters"] is True
    assert report.reps[0].passed()


# The NAT cursor must reach the store.


def test_lost_cursor_increment_fails_the_repetition(monkeypatch):
    # Every binding lands but one allocation-cursor delta does not: only
    # the cursor check can tell, and a restarted core would then hand out
    # an already bound pair again.
    from flexstate.drivers.base import MutationBatch
    from flexstate.testing import RecordingDriver

    class DropOneCursorIncr(RecordingDriver):
        dropped = False

        def _apply(self, session, batch):
            items = list(batch.items)
            for i, (key, mutation) in enumerate(items):
                if (
                    not self.dropped
                    and key.structure_id == "natCursor"
                    and mutation.kind == "incr"
                ):
                    del items[i]
                    self.dropped = True
                    break
            super()._apply(session, MutationBatch(items, seq=batch.seq))

    drivers = []

    def make_dropping(label, endpoint="local", **kwargs):
        driver = DropOneCursorIncr(bench_make_driver(label, endpoint, **kwargs))
        drivers.append(driver)
        return driver

    bench_make_driver = bench.make_driver
    monkeypatch.setattr(bench, "make_driver", make_dropping)
    scenario = tiny(
        nf="nat",
        cores=1,
        n_flows=300,
        budget=3000,
        repetitions=1,
        nf_params={"pool_size": 4096},
    )
    rep = bench.run_scenario(scenario).reps[0]
    assert drivers[0].dropped
    failed = [k for k, v in rep.checks.items() if v is False]
    assert failed == ["cursor_matches_log"]
    assert not rep.passed()
