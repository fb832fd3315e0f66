"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

0. layer_moves.json has one row for each per-layer metric of
   BENCHMARK.json, naming only its end-to-end metrics and workloads.
1. A tiny run (--tiny --seconds 1) of every workload, untraced and
   traced, must pass its correctness checks and print exactly the metrics
   BENCHMARK.json names for that mode, each with its unit and a finite
   value; end-to-end values must also be non-zero.
2. The same tiny run with --lossy, where the store drops one mutation,
   must print failed > 0 and exit non-zero, on every workload.
3. run.py must exit non-zero without a result line in a directory that
   holds only BENCHMARK.json and perfbench/ (no program to measure).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = HERE / "out" / "selfcheck-bare"
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def check_metrics(result: dict, expected: dict, nonzero: bool) -> list[str]:
    problems = []
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not finite")
        elif nonzero and value == 0:
            problems.append(f"{name}: value is 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        status = "ok" if not problems else "FAIL"
        print(f"{status:4s} {label}")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)

    moves = json.loads((HERE / "layer_moves.json").read_text())["rows"]
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    if sorted(row["metric"] for row in moves) != sorted(expected[1]):
        problems.append("rows do not match BENCHMARK.json per_layer one to one")
    for row in moves:
        if not set(row["moves"]) <= set(expected[0]) or not set(row["workloads"]) <= workloads:
            problems.append(f"{row['metric']}: unknown metric or workload in {row}")
    report("layer_moves.json covers every per-layer metric", problems)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, result = run(ROOT, workload, trace)
            problems = []
            if proc.returncode != 0 or result is None:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-800:]}")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"correct={result['correct']} failed={result['failed']}")
                problems += check_metrics(result, expected[trace], nonzero=trace == 0)
            report(f"{workload} trace={trace}: metrics and units", problems)

        proc, result = run(ROOT, workload, 0, "--lossy")
        problems = []
        if proc.returncode == 0:
            problems.append("lossy store was not caught: exit 0")
        if result is None or result.get("failed", 0) <= 0 or result.get("correct"):
            problems.append(f"lossy store was not counted: result {result}")
        report(f"{workload} lossy store: failed > 0 and exit non-zero", problems)

    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, BARE / "perfbench")
    proc, result = run(BARE, spec["workloads"][0]["name"], 0)
    problems = []
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    report("bare directory: non-zero exit, no result", problems)
    shutil.rmtree(BARE, ignore_errors=True)

    print("selfcheck passed" if not failures else f"selfcheck: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
