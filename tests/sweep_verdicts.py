"""The two verdict sweeps, one JSON line per case, diffed against a baseline.

    PYTHONPATH=src python tests/sweep_verdicts.py [--output FILE] [--baseline FILE]
        [--sweep crown|certify|all] [--classes A,B] [--radii R,S]

The whole-crown sweep judges every certify class of tests/oracles.py at
each radius r of WHOLE_CROWN_RADII on 144 x 8 (whole_crown_report): the
verdict at r/2 must reject and the one at min(1.1 r, pi/2 - 1e-3) must
accept; --classes and --radii narrow it. The certify sweep runs ops
0-179 of seeds 1-10 of the benchmark's Certify workload through its own
setup, make_input, run_op and check, imported from
perfbench/workloads.py, so the cases cannot drift from the benchmark's.

Each line holds the case key, the two radii, their verdicts and
reasons, r_hat and its interval, the decay constants, the symmetry
residual and, for a certify op, the rebuilt exterior mass and the
check's failure. A case that raises a library error gets a line with
the error instead. The summary goes to stderr: per sweep the wrong
verdicts (and which of them are known) or failed ops, and how many
failed verdicts each kind of reason (type, symmetry) decides alone,
with no reason of the other kind beside it. With --baseline,
every verdict that changed against the baseline's line of the same case
is printed, then the largest relative move of each measured field, and
the exit status is 1 if any verdict changed. Cases in only one of the
two files are counted, not compared. ExtendProvider values change in
their last bits with the BLAS thread count, so the script sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
numpy is imported, unless they are already set: a baseline and a run
written with the defaults read a move of 0 as bit for bit. The full
sweep takes about half a minute on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread unless the caller sets another count, before numpy is
    # imported: ExtendProvider values change in their last bits with it
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
from crown_harmonics.errors import CrownHarmonicsError  # noqa: E402
from oracles import (  # noqa: E402
    CERTIFY_CLASSES,
    WHOLE_CROWN_RADII,
    WHOLE_CROWN_WRONG,
    whole_crown_report,
)

#: the offline certify sweep: ops 0..CERTIFY_OPS-1 of each seed
CERTIFY_SEEDS = range(1, 11)
CERTIFY_OPS = 180

#: fields whose relative moves the baseline diff reports
_MEASURED = ("r_hat", "type_interval", "decay_constants", "weyl_residual", "exterior_mass")

#: the kinds of verdict reason, each known by how its reasons start
_REASON_KINDS = {"type": "type upper bound", "symmetry": "symmetry residual"}


def _report_fields(report, low, high) -> dict:
    te = report.type_estimate
    verdicts = [report.verdict_for(low), report.verdict_for(high)]
    return {
        "radii": [low, high],
        "verdicts": [v.passed for v in verdicts],
        "reasons": [list(v.reasons) for v in verdicts],
        "right": not verdicts[0].passed and verdicts[1].passed,
        "r_hat": te.r_hat,
        "type_interval": [te.lower, te.upper],
        "decay_constants": {str(k): v for k, v in report.decay_constants.items()},
        "weyl_residual": report.weyl_residual,
    }


def crown_lines(classes=CERTIFY_CLASSES, radii=WHOLE_CROWN_RADII):
    """The whole-crown cases, one dict each."""
    for name in classes:
        for r in radii:
            line = {"sweep": "crown", "case": [name, r],
                    "known_wrong": WHOLE_CROWN_WRONG.get((name, r))}
            try:
                line.update(_report_fields(*whole_crown_report(name, r)))
            except CrownHarmonicsError as exc:
                line["error"] = f"{type(exc).__name__}: {exc}"
            yield line


def certify_lines():
    """The benchmark's certify ops, one dict each."""
    work = workloads.Certify()
    state = work.setup(workloads.SIZES["full"])
    for seed in CERTIFY_SEEDS:
        for i in range(CERTIFY_OPS):
            inp = work.make_input(state, seed, i)
            line = {"sweep": "certify", "case": [seed, i], "class": inp.cls, "r": inp.radius}
            try:
                out = work.run_op(state, inp)
            except CrownHarmonicsError as exc:
                line["error"] = f"{type(exc).__name__}: {exc}"
                yield line
                continue
            report, rebuilt = out
            line.update(_report_fields(report, inp.radius / 2, 1.1 * inp.radius))
            grid = state["rebuild_grid"]
            exterior = grid.theta > 1.21 * inp.radius
            if exterior.any():
                peak = abs(rebuilt.values).max()
                line["exterior_mass"] = float(abs(rebuilt.values[exterior]).max() / peak)
            outcome = work.check(state, inp, out)
            line["failure"], line["consistent"] = outcome.failure, outcome.consistent
            yield line


def _numbers(value, prefix):
    """(name, number) pairs of a measured field, lists and dicts flattened."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, f"{prefix}[{k}]")
    elif isinstance(value, list):
        for j, v in enumerate(value):
            yield from _numbers(v, f"{prefix}[{j}]")
    elif value is not None:
        yield prefix, float(value)


def compare(baseline, lines):
    """(changed, moves, unmatched): the cases whose verdicts or errors
    changed, as printable lines; the largest relative move of each
    measured field over the cases in both; and the count of cases in
    only one of the two."""
    old = {(b["sweep"], *b["case"]): b for b in baseline}
    changed, moves, matched = [], {}, 0
    for line in lines:
        key = (line["sweep"], *line["case"])
        before = old.get(key)
        if before is None:
            continue
        matched += 1
        outcome = [(b.get("verdicts"), b.get("error")) for b in (before, line)]
        if outcome[0] != outcome[1]:
            changed.append(f"{key}: verdicts {before.get('verdicts')} -> {line.get('verdicts')}, "
                           f"error {before.get('error')} -> {line.get('error')}, "
                           f"reasons {line.get('reasons')}")
        for field in _MEASURED:
            was = dict(_numbers(before.get(field), field))
            for name, now in _numbers(line.get(field), field):
                if name not in was:
                    continue
                a = was[name]
                move = 0.0 if a == now else abs(now - a) / max(abs(a), 1e-300)
                if math.isnan(move) or move > moves.get(name, (-1.0,))[0]:
                    moves[name] = (move, key)
    return changed, moves, len(old) + len(lines) - 2 * matched


def _decided_alone(lines) -> str:
    """How many failed verdicts of the lines each kind of reason decides
    alone: every reason of the verdict is of that kind."""
    counts = dict.fromkeys(_REASON_KINDS, 0)
    for b in lines:
        for reasons in b.get("reasons", ()):
            kinds = {next((kind for kind, start in _REASON_KINDS.items()
                           if reason.startswith(start)), "other") for reason in reasons}
            if len(kinds) == 1 and kinds <= counts.keys():
                counts[kinds.pop()] += 1
    return "decided alone by " + ", ".join(f"{kind} {n}" for kind, n in counts.items())


def _summary(lines) -> str:
    parts = []
    crown = [b for b in lines if b["sweep"] == "crown"]
    if crown:
        wrong = [b for b in crown if not b.get("right")]
        known = sum(1 for b in wrong if b["known_wrong"])
        parts.append(f"crown: {len(crown) - len(wrong)} right, {len(wrong)} wrong "
                     f"({known} known), {_decided_alone(crown)}")
    ops = [b for b in lines if b["sweep"] == "certify"]
    if ops:
        failed = sum(1 for b in ops
                     if "error" in b or b["failure"] is not None or not b["consistent"])
        parts.append(f"certify: {failed}/{len(ops)} failed ops, {_decided_alone(ops)}")
    return "; ".join(parts)


def _floats(text):
    return [float(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="JSON lines file (stdout if omitted)")
    parser.add_argument("--baseline", help="JSON lines file of an earlier run to diff against")
    parser.add_argument("--sweep", choices=("crown", "certify", "all"), default="all")
    parser.add_argument("--classes", type=lambda t: t.split(","), default=CERTIFY_CLASSES)
    parser.add_argument("--radii", type=_floats, default=WHOLE_CROWN_RADII)
    args = parser.parse_args(argv)

    lines = []
    if args.sweep in ("crown", "all"):
        lines += crown_lines(args.classes, args.radii)
    if args.sweep in ("certify", "all"):
        lines += certify_lines()
    text = "".join(json.dumps(b) + "\n" for b in lines)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    print(_summary(lines), file=sys.stderr)
    if not args.baseline:
        return 0
    baseline = [json.loads(t) for t in Path(args.baseline).read_text().splitlines() if t]
    changed, moves, unmatched = compare(baseline, lines)
    for entry in changed:
        print(f"changed {entry}", file=sys.stderr)
    for name, (move, key) in sorted(moves.items()):
        print(f"move {name}: {move:.3e} at {key}", file=sys.stderr)
    print(f"{len(changed)} changed verdicts; {unmatched} cases in only one file", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
