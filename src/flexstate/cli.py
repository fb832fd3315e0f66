"""flexbench: run and sweep NF benchmark scenarios from the shell.

    flexbench run --nf counter-async --cores 4 --driver flatkvs --budget 100000
    flexbench run --config nf.conf --nf nat --cores 8 --duration-s 5 --format json
    flexbench sweep --axis cores --values 1,2,4,8 --nf counter-async --budget 50000
    flexbench gen-flows --flows 50000 --seed 7 --out flows.txt

A config file provides the NF/instance ids and store defaults; explicit
flags override it. Exit status is 0 only if every repetition of every
scenario passed its correctness checks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import bench
from .config import load_config
from .drivers import known_labels
from .errors import StateError
from .nf import known_nfs
from .trafficgen import generate_flows, write_flow_file


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file with ids and store defaults")
    extra = {
        "nf": {"choices": sorted(known_nfs())},
        "driver": {"choices": sorted(known_labels())},
        "endpoint": {"help": "host:port, or 'local' for in-process"},
        "budget": {"help": "total packets instead of a duration"},
        "flow-file": {"help": "replay this flow file instead of generating"},
    }
    for flag, (_name, cast) in bench.SCENARIO_FLAGS.items():
        p.add_argument(f"--{flag}", type=cast, **extra.get(flag, {}))
    p.add_argument("--pool-size", type=int, help="NAT external pool entries")
    p.add_argument("--servers", type=int, help="load balancer backend count")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", dest="fmt"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flexbench", description="NF state-management benchmark harness"
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    _add_scenario_args(run_p)

    sweep_p = sub.add_parser("sweep", help="run one scenario per axis value")
    _add_scenario_args(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=bench.sweep_axes())
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated axis values"
    )

    flows_p = sub.add_parser("gen-flows", help="write a deterministic flow file")
    flows_p.add_argument("--flows", type=int, default=50000)
    flows_p.add_argument("--seed", type=int, default=0)
    flows_p.add_argument("--out", required=True)
    return p


def _scenario_from_args(args) -> bench.BenchScenario:
    scenario = bench.BenchScenario()
    if args.config:
        scenario = bench.BenchScenario(**asdict(load_config(args.config)))
    for flag, (name, _cast) in bench.SCENARIO_FLAGS.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            setattr(scenario, name, value)
    if scenario.nf == "nat" and args.pool_size is not None:
        scenario.nf_params["pool_size"] = args.pool_size
    if scenario.nf == "lb" and args.servers is not None:
        scenario.nf_params["servers"] = args.servers
    return scenario


_FORMATTERS = {
    "json": bench.reports_to_json,
    "csv": bench.reports_to_csv,
    "text": bench.reports_to_text,
}


def _emit(reports, args) -> None:
    text = _FORMATTERS[args.fmt](reports)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-flows":
            write_flow_file(args.out, generate_flows(args.flows, args.seed))
            print(f"wrote {args.flows} flows to {args.out}")
            return 0
        scenario = _scenario_from_args(args)
        if args.command == "run":
            reports = [bench.run_scenario(scenario)]
        else:
            reports = bench.run_sweep(
                scenario, args.axis, args.values.split(",")
            )
        _emit(reports, args)
        return 0 if all(r.passed for r in reports) else 1
    except (StateError, ValueError, OSError) as exc:
        print(f"flexbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
