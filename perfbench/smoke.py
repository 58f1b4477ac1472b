#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
--sizes tiny (band limits 4/6/8, certificates with 16 line samples) and
checks that each final line has exactly the keys correct, attempted,
failed and metrics, and exactly the metrics BENCHMARK.json names, with
their units. It is not part of the test suite; it takes under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if result.get("attempted", 0) < 1:
                problems.append(f"{where}: no op attempted")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, unit differs {wrong}")
            print(f"{where}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{len(got)} metrics", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
