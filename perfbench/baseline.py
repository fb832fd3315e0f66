"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 10 [--workloads counter-hot,...]
                                  [--seconds N] [--traced] [--out FILE]

Each run is a fresh `run.py` process, as the benchmark is run for real.
For each end-to-end metric the summary gives the median over the seeds,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json; a
spread above a third of its bound is marked. The same summary of the
unscaled figures and of the host slowdown goes to --out. With --traced, one traced
run per workload (first seed) adds the per-layer figures. --out writes
every value to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"detail": detail, "result": result}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report: dict = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry: dict = {"environment": runs[0]["detail"]["environment"], "end_to_end": {}}
        print(f"== {workload} ({len(seeds)} seeds, {args.seconds} s each)")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            summary = summarise(values)
            summary["unit"] = unit
            entry["end_to_end"][name] = summary
            flag = "" if summary["spread"] < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, summary["spread"] / bound)
            print(
                f"  {name:14s} median {summary['median']:12.4f} {unit:4s} "
                f"q1 {summary['q1']:12.4f} q3 {summary['q3']:12.4f} "
                f"spread {summary['spread']:6.3f} bound {bound}{flag}"
            )
        entry["unscaled"] = {
            name: summarise([r["detail"]["unscaled"][name] for r in runs])
            for name in runs[0]["detail"]["unscaled"]
        }
        entry["slowdown"] = summarise([r["detail"]["slowdown_median"] for r in runs])
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {
                name: m["value"] for name, m in traced["result"]["metrics"].items()
            }
            entry["per_layer_samples"] = traced["detail"]["samples"]
        report["workloads"][workload] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
