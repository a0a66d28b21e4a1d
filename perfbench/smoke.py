"""Smoke run of every workload at minimal length.

    python3 perfbench/smoke.py

Runs perfbench/run.py for one second per workload, untraced and traced, and
checks that each run exits 0, reports correct outputs, and prints exactly
the metrics BENCHMARK.json names, each with its declared unit and a finite
value. Exits 1 and lists the problems otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    for name in sorted(set(declared) ^ set(printed)):
        side = "not printed" if name in declared else "not declared"
        problems.append(f"{where}: metric {name} {side}")
    for name in sorted(set(declared) & set(printed)):
        entry = printed[name]
        if entry.get("unit") != declared[name]:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                            f"declared {declared[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
