"""Smoke check of the benchmark itself; finishes in about half a minute.

Run from the repository root: ``python3 bench/smoke.py``

Runs every workload in ``BENCHMARK.json`` at its smallest sizes, with
tracing off and on.  Fails unless each run exits 0, prints every metric the
file lists by name (a metric may instead be printed as absent, as
``latency_tail_s`` is when a pass has fewer than 20 requests), reports no
metric the file does not list, and has ``fail_ratio`` 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def smoke(workload: str, trace: int, expected: list[str]) -> list[str]:
    argv = [
        sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    printed = {line.split()[0].rstrip(":") for line in report if line.strip()}
    problems = [f"{name} not printed" for name in expected if name not in printed]
    problems += [
        f"{name} missing from the result"
        for name in expected
        if name not in result["metrics"] and not any(line.startswith(f"{name}: absent") for line in report)
    ]
    problems += [f"{name} is not in BENCHMARK.json" for name in result["metrics"] if name not in expected]
    if result["failed"] or not result["correct"] or "fail_ratio" not in printed:
        problems.append("fail_ratio is not 0: " + "; ".join(line for line in report if line.startswith(("fail_ratio", "FAILED"))))
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            problems = smoke(workload["name"], trace, [m["name"] for m in spec[group]])
            print(f"{'FAIL' if problems else 'ok  '} {workload['name']} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
