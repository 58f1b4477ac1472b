"""One workload in one process: set-up, the timed loop, checks, trace.

Started by run.py with the thread counts pinned; prints one JSON object
on its last line of standard output. Set-up is timed from before the
package import to the end of the workload's warm-up.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

import workloads as wl  # noqa: E402  (imports crown_harmonics)

#: reference passes after each op take this share of the op's time, and at
#: least REF_MIN_S, so that every op's block is a fair sample of the host
REF_SHARE = 0.05
REF_MIN_S = 0.02


def reference_pass():
    t = time.perf_counter()
    wl.reference()
    return time.perf_counter() - t


def run_loop(workload, state, seed, budget=None, count=None):
    """Run whole cycles of ops: count ops, or as many as fit the time budget.

    Another cycle starts only if a cycle of the mean length so far still
    ends within the budget, so a run measures at most about budget seconds
    (and always at least one cycle).
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if i % workload.cycle == 0 and i > 0:
            if count is not None and i >= count:
                break
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed * (1 + workload.cycle / i) > budget:
                break
        inp = workload.make_input(state, seed, i)
        t = time.perf_counter()
        try:
            out = workload.run_op(state, inp)
        except Exception as exc:  # a failed op is counted, and its time kept
            ms = 1e3 * (time.perf_counter() - t)
            outcome = wl.Outcome(f"{type(exc).__name__}: {exc}", None)
        else:
            ms = 1e3 * (time.perf_counter() - t)
            outcome = workload.check(state, inp, out)
        ref = [reference_pass()]
        while sum(ref) < max(REF_SHARE * 1e-3 * ms, REF_MIN_S):
            ref.append(reference_pass())
        records.append({"cls": inp.cls, "ms": ms, "failure": outcome.failure,
                        "digits": outcome.digits, "consistent": bool(outcome.consistent),
                        "ref_ms": 1e3 * sum(ref), "ref_n": len(ref)})
        i += 1
    return records


def ops_per_s(records):
    return len(records) / (1e-3 * sum(r["ms"] for r in records))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=sorted(wl.SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import crown_harmonics
    src = ROOT / "src"
    if not Path(crown_harmonics.__file__).resolve().is_relative_to(src):
        sys.exit(f"crown_harmonics imported from {crown_harmonics.__file__}, not {src}")
    import numpy as np

    sizes = wl.SIZES[args.sizes]
    workload = wl.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(peak_lmax=max(sizes["roundtrip_ls"].values()))
        tracer.install()
    state = workload.setup(sizes)
    if tracer:
        tracer.restore()
    result = {"setup_s": time.perf_counter() - _T0, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    records = run_loop(workload, state, args.seed,
                       budget=args.seconds / 2 if tracer else args.seconds)
    if tracer:
        # replay the same ops traced; overhead compares the two passes
        tracer.install()
        traced = run_loop(workload, state, args.seed, count=len(records))
        tracer.restore()
        overhead = 1.0 - ops_per_s(traced) / ops_per_s(records)
        from tracer import layer_metrics, self_times
        gl = crown_harmonics.numerics.gauss_legendre.cache_info()
        result["per_layer"] = layer_metrics(tracer.spans, len(traced), sizes["roundtrip_ls"],
                                            tracer.measure_peaks(), gl, overhead)
        result["self_times"] = self_times(tracer.spans, len(traced))
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "traced_ops": len(traced), "numpy": np.__version__})
        result["trace_file"] = str(path.relative_to(ROOT))
        records += traced
    result["ops"] = records
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
