#!/usr/bin/env python3
"""crown-harmonics benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip|certify|verify|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (child.py), one at a time,
with OMP/OpenBLAS/MKL thread counts pinned to 1 in that child only.
--trace 0 prints the end-to-end metrics, measured untraced; --trace 1
prints the per-layer metrics from a traced replay of the same ops.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roundtrip", "certify", "verify")
#: set-up is measured in this many fresh processes, half of them before the
#: workload's run and half after it; setup_s is the median
SETUPS = 11
#: wall-clock limit for one workload's child processes
DEADLINE_S = 170.0


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def run_child(argv: list, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times_ms):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times_ms)
    if n < 11:
        return None
    return sorted(times_ms)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(res, setups, slots):
    """Gated metrics for the final line, and the ungated report lines.

    Op times are gated in units of the run's reference pass
    (workloads.reference), which cancels most of the host's speed drift;
    the raw wall-clock figures are printed beside them. The pass time is
    the mean over ops of the mean pass in the block after each op, so
    each op's moment counts once however long the op was.
    """
    ops = res["ops"]
    times = [o["ms"] for o in ops]
    ref_ms = statistics.fmean(o["ref_ms"] / o["ref_n"] for o in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_mean_ref": (statistics.fmean(times) / ref_ms, "ref"),
        "op_p50_ref": (statistics.median(times) / ref_ms, "ref"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    reported = {
        "ops_per_s": f"{len(times) / (1e-3 * sum(times)):.6g} 1/s",
        "op_p50_ms": f"{statistics.median(times):.4f} ms",
        "ref_pass_ms": f"{ref_ms:.6f} ms ({sum(o['ref_n'] for o in ops)} passes in {len(ops)} blocks)",
    }
    t = tail(times)
    reported |= {
        "setup samples": ", ".join(f"{s:.4f} s" for s in setups),
        "op_tail_ms": (f"{t[0]:.4f} ms (p{t[1]:.1f} of {t[2]} ops)" if t
                       else f"omitted: {len(times)} ops, needs >= 11"),
    }
    for slot in slots:
        by_l = [o["ms"] for o in ops if o["cls"] == slot]
        reported[f"rt_{slot}_ms"] = f"{statistics.median(by_l):.4f} ms (median of {len(by_l)})"
    failed = sum(o["failure"] is not None for o in ops)
    reported["fail_ratio"] = f"{failed / len(ops):.4f} failed/attempted ({failed}/{len(ops)})"
    digits = [o["digits"] for o in ops if o["digits"] is not None]
    reported["accuracy_digits"] = (f"{min(digits):.4f} decades (min over {len(digits)} ops)"
                                   if digits else "n/a: no op produced output")
    return metrics, [f"  {k:<20} {v}" for k, v in reported.items()]


def class_lines(ops):
    lines = []
    for cls in dict.fromkeys(o["cls"] for o in ops):
        mine = [o for o in ops if o["cls"] == cls]
        bad = [o["failure"] for o in mine if o["failure"]]
        first = f"; first failure: {bad[0]}" if bad else ""
        lines.append(f"  class {cls}: {len(bad)}/{len(mine)} failed{first}")
    return lines


def run_workload(name: str, args) -> None:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--sizes", args.sizes]
    def setup_samples(n):
        return [run_child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(n)]

    setups = [] if args.trace else setup_samples((SETUPS - 1) // 2)
    res = run_child(common + ["--trace", str(args.trace)], deadline)
    ops = res["ops"]
    info = machine_info()
    print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"sizes={args.sizes}")
    print(f"# nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={res['numpy']}")
    if args.trace:
        metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
        idle = [k for k, (v, _) in metrics.items() if v == 0.0]
        lines = [f"  trace file: {res['trace_file']}",
                 f"  tracing overhead: {metrics['trace.overhead'][0]:.4f} "
                 "(1 - traced/untraced ops_per_s over the same ops)"]
        if idle:
            lines.append(f"  reads 0, not exercised by {name}: {', '.join(idle)}")
        lines.append("  span: calls, inclusive ms, self ms (per traced op)")
        lines += [f"    {k}: {c:.1f}, {incl:.3f}, {own:.3f}"
                  for k, (c, incl, own) in sorted(res["self_times"].items())]
    else:
        setups += [res["setup_s"], *setup_samples(SETUPS - 1 - len(setups))]
        metrics, lines = end_to_end(res, setups, ["L32", "L64", "L128"] if name == "roundtrip" else [])
    for key, (value, unit) in metrics.items():
        print(f"  {key:<20} {value:.6g} {unit}")
    for line in lines + class_lines(ops):
        print(line)
    result = {
        "correct": all(o["consistent"] for o in ops),
        "attempted": len(ops),
        "failed": sum(o["failure"] is not None for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes (smoke.py)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "crown_harmonics" / "__init__.py").is_file():
        print(f"perfbench: no crown_harmonics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
