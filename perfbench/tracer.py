"""Span recorder for the traced run, and the per-layer metrics it yields.

install() wraps the package's public functions where their callers look
them up: every module global (and module-level tuple entry) bound to
the original function, and methods on their class. A name bound by
``from .sphere import kernel_mode_profiles`` lives in each consumer
module, so each binding is replaced. restore() puts every original back.
Spans (name, start, end, parent) stay in memory until write().
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

_MIB = 1024.0 * 1024.0


def _analyze_info(args, kwargs):
    return {"L": int(args[1] if len(args) > 1 else kwargs["lmax"])}


def _synthesize_info(args, kwargs):
    provider = type(args[0]).__name__
    kind = {"TableProvider": "table", "ExtendProvider": "extend"}.get(provider, provider)
    return {"L": int(args[2] if len(args) > 2 else kwargs["lmax"]), "kind": kind}


def _eval_info(args, kwargs):
    ell = complex(args[1])
    return {"ell": [ell.real, ell.imag], "m": int(args[2])}


def _text_bytes(args, result):
    return {"bytes": len(result if isinstance(result, str) else args[0])}


def _check_name(args, result):
    return {"check": result.name}


#: (module, attribute path, span name, info before the call, info after it)
TARGETS = (
    ("numerics", "gauss_legendre", "numerics.gauss_legendre", None, None),
    ("numerics", "assoc_legendre", "numerics.assoc_legendre", None, None),
    ("sphere", "SphereGrid.__init__", "sphere.SphereGrid", None, None),
    ("sphere", "kernel_mode_profiles", "sphere.kernel_mode_profiles", None, None),
    ("sphere", "boundary_log_pairing", "sphere.boundary_log_pairing", None, None),
    ("transform", "analyze", "transform.analyze", _analyze_info, None),
    ("transform", "synthesize", "transform.synthesize", _synthesize_info, None),
    ("transform", "TableProvider.eval", "transform.TableProvider.eval", None, None),
    ("transform", "ExtendProvider.__init__", "transform.ExtendProvider.init", None, None),
    ("transform", "ExtendProvider.eval", "transform.ExtendProvider.eval", _eval_info, None),
    ("intertwining", "intertwiner_rational", "intertwining.intertwiner_rational", None, None),
    ("intertwining", "intertwiner_scalar", "intertwining.intertwiner_scalar", None, None),
    ("intertwining", "probe_integral", "intertwining.probe_integral", None, None),
    ("paley_wiener", "pw_report", "paley_wiener.pw_report", None, None),
    ("paley_wiener", "sample_line", "paley_wiener.sample_line", None, None),
    ("paley_wiener", "decay_profile", "paley_wiener.decay_profile", None, None),
    ("paley_wiener", "type_estimate", "paley_wiener.type_estimate", None, None),
    ("reduction", "intertwine_check", "reduction.intertwine_check", None, None),
    ("reduction", "kostant_ratio", "reduction.kostant_ratio", None, None),
    ("reduction", "reduction_synthesize", "reduction.reduction_synthesize", None, None),
    ("testbed", "oracle_sht", "testbed.oracle_sht", None, None),
    ("testbed", "random_bandlimited", "testbed.random_bandlimited", None, None),
    ("testbed", "make_bump", "testbed.make_bump", None, None),
    ("serialization", "dumps_table", "serialization.dumps_table", None, _text_bytes),
    ("serialization", "loads_table", "serialization.loads_table", None, _text_bytes),
    ("serialization", "dumps_grid_function", "serialization.dumps_grid_function", None, _text_bytes),
    ("serialization", "loads_grid_function", "serialization.loads_grid_function", None, _text_bytes),
    ("cli", "main", "cli.main", None, None),
) + tuple(
    ("verify", name, "verify.check", None, _check_name)
    for name in ("check_zonal_kernel", "check_round_trip", "check_extend_matches_analyze",
                 "check_type_estimate", "check_weyl_symmetry",
                 "check_scalar_probe_independence", "check_certification_verdicts",
                 "check_ladder_ratios", "check_intertwining", "check_ladder_synthesis",
                 "check_vanishing_rule", "check_classical_bridge")
)

#: names the acceptance checks print, one verify.<name>.ms metric each
CHECK_NAMES = (
    "zonal-kernel-identity", "coefficient-round-trip", "extension-integer-agreement",
    "type-estimate-accuracy", "reflection-symmetry", "scalar-probe-independence",
    "certificate-and-rebuild", "ladder-ratio-rationality", "intertwining-identity",
    "ladder-synthesis", "sub-frequency-vanishing", "classical-bridge",
)

#: functions whose peak traced memory is measured at the largest band limit
_PEAK_SPANS = ("transform.analyze", "transform.synthesize")
#: pw_report stages; an ExtendProvider.eval counts toward the innermost open one
_STAGES = ("paley_wiener.sample_line", "paley_wiener.decay_profile", "paley_wiener.pw_report")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent, info):
        self.name, self.parent, self.info = name, parent, info
        self.start = self.end = 0.0


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self, peak_lmax: int):
        self.peak_lmax = peak_lmax
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._peak_calls: dict = {}
        self.t0 = time.perf_counter()

    def _wrap(self, name, fn, before, after):
        spans, stack, peak_calls = self.spans, self._stack, self._peak_calls
        probe_peak = name in _PEAK_SPANS

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1,
                        before(args, kwargs) if before else None)
            if (probe_peak and name not in peak_calls and span.info["L"] == self.peak_lmax
                    and span.info.get("kind", "table") == "table"):
                peak_calls[name] = (fn, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after:
                span.info = {**(span.info or {}), **after(args, result)}
            return result

        return wrapper

    def install(self):
        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name.startswith("crown_harmonics.")}
        replaced = {}
        for modname, path, name, before, after in TARGETS:
            owner = modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            replaced[id(original)] = wrapper
            if cls_path:
                self._set(owner, attr, wrapper)
        for mod in (*modules.values(), sys.modules["crown_harmonics"]):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
                elif isinstance(value, tuple) and any(id(v) in replaced for v in value):
                    self._set(mod, attr, tuple(replaced.get(id(v), v) for v in value))

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def measure_peaks(self) -> dict:
        """Peak traced MiB of each memory-probed function, by span name.

        Repeats the first traced call at the largest band limit under
        tracemalloc, after the traced pass, so tracemalloc's cost stays
        out of every timing.
        """
        peaks = {}
        for name, (fn, args, kwargs) in self._peak_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1] / _MIB
            finally:
                tracemalloc.stop()
        return peaks

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start - self.t0, "end": s.end - self.t0,
                                     **(s.info or {})}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _child_time(spans, names=None):
    """Seconds of each span covered by its direct children (of the given names)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0 and (names is None or s.name in names):
            covered[s.parent] += s.end - s.start
    return covered


def _fit_exponent(ls, ms):
    if len(ms) < 2 or min(ms) <= 0.0:
        return 0.0
    return float(np.polyfit(np.log(ls), np.log(ms), 1)[0])


def layer_metrics(spans, n_ops, slots, peaks, gl_cache_info, overhead):
    """Per-layer metrics from the spans of the traced set-up and ops.

    Counts and ms are per traced op (set-up included in the traced pass);
    us_per_call divides by calls; ms.L<n> is the median call at that band
    limit. Returns {name: (value, unit)}; a layer the workload never
    called reads 0.
    """
    child = _child_time(spans)
    stage_child = _child_time(spans, _STAGES)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def calls(name):
        return len(by_name.get(name, ()))

    def total_ms(name):
        return 1e3 * sum(dur(i) for i in by_name.get(name, ()))

    def per_op(x):
        return x / n_ops

    def us_per_call(name):
        return 1e3 * total_ms(name) / calls(name) if calls(name) else 0.0

    def stage_of(i):
        p = spans[i].parent
        while p >= 0 and spans[p].name not in _STAGES:
            p = spans[p].parent
        return p

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    # analyze and table-backed synthesize per band limit
    for layer, span_name, kind in (("transform.analyze", "transform.analyze", None),
                                   ("transform.synthesize.table", "transform.synthesize", "table")):
        spans_of = [spans[i] for i in by_name.get(span_name, ())
                    if spans[i].info.get("kind") == kind]
        medians = {}
        for slot, L in slots.items():
            d = [1e3 * (s.end - s.start) for s in spans_of if s.info["L"] == L]
            medians[slot] = statistics.median(d) if d else 0.0
            put(f"{layer}.ms.{slot}", medians[slot], "ms")
        fitted = [(slots[k], v) for k, v in medians.items() if v > 0.0]
        put(f"{layer}.L_exp", _fit_exponent(*zip(*fitted)) if len(fitted) > 1 else 0.0, "1")
        top = max(slots, key=slots.get)
        put(f"{layer}.peak_mib.{top}", peaks.get(span_name, 0.0), "MiB")
        if layer == "transform.analyze":
            L = slots[top]
            cells = (L + 2) * (2 * L + 2) * (2 * L + 2)
            # einsum: complex multiply-add (8 flops) per cell and degree;
            # power update: complex multiply (6 flops) per cell and degree
            flops = cells * (8 * (L + 1) + 6 * L)
            t = medians[top] / 1e3
            put(f"{layer}.gflop_s.{top}", flops / t / 1e9 if t else 0.0, "GFLOP/s")

    for name in ("transform.TableProvider.eval", "intertwining.intertwiner_rational",
                 "transform.ExtendProvider.eval"):
        put(f"{name}.calls", per_op(calls(name)), "count")
        put(f"{name}.us_per_call", us_per_call(name), "us")
    put("transform.ExtendProvider.init.ms", per_op(total_ms("transform.ExtendProvider.init")), "ms")
    extend_synth = [i for i in by_name.get("transform.synthesize", ())
                    if spans[i].info["kind"] == "extend"]
    put("transform.synthesize.extend.ms", per_op(1e3 * sum(map(dur, extend_synth))), "ms")
    put("sphere.kernel_mode_profiles.calls", per_op(calls("sphere.kernel_mode_profiles")), "count")
    put("sphere.kernel_mode_profiles.ms", per_op(total_ms("sphere.kernel_mode_profiles")), "ms")
    put("sphere.kernel_mode_profiles.us_per_call", us_per_call("sphere.kernel_mode_profiles"), "us")
    put("sphere.boundary_log_pairing.calls", per_op(calls("sphere.boundary_log_pairing")), "count")
    put("sphere.boundary_log_pairing.ms", per_op(total_ms("sphere.boundary_log_pairing")), "ms")

    # pw_report stages: evaluations go to the innermost open stage
    evals_in: dict[int, list] = {}
    for i in by_name.get("transform.ExtendProvider.eval", ()):
        evals_in.setdefault(stage_of(i), []).append(spans[i].info)
    stage_evals = {name: [] for name in _STAGES}
    for stage, infos in evals_in.items():
        if stage >= 0:
            stage_evals[spans[stage].name].append(infos)
    put("paley_wiener.pw_report.ms", per_op(total_ms("paley_wiener.pw_report")), "ms")
    for stage in ("sample_line", "decay_profile"):
        name = f"paley_wiener.{stage}"
        put(f"{name}.ms", per_op(total_ms(name)), "ms")
        put(f"{name}.evals", per_op(sum(map(len, stage_evals[name]))), "count")
    decay = stage_evals["paley_wiener.decay_profile"]
    distinct = sum(len({(*e["ell"], e["m"]) for e in infos}) for infos in decay)
    n_decay = sum(map(len, decay))
    put("paley_wiener.decay_profile.unique_ratio", distinct / n_decay if n_decay else 0.0, "ratio")
    reports = by_name.get("paley_wiener.pw_report", ())
    put("paley_wiener.symmetry.ms",
        per_op(1e3 * sum(dur(i) - stage_child[i] for i in reports)), "ms")
    put("paley_wiener.symmetry.evals",
        per_op(sum(map(len, stage_evals["paley_wiener.pw_report"]))), "count")
    put("paley_wiener.type_estimate.ms", per_op(total_ms("paley_wiener.type_estimate")), "ms")

    scalars = calls("intertwining.intertwiner_scalar")
    probes_in_scalars = sum(
        1 for i in by_name.get("intertwining.probe_integral", ())
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "intertwining.intertwiner_scalar")
    put("intertwining.intertwiner_scalar.calls", per_op(scalars), "count")
    put("intertwining.intertwiner_scalar.ms", per_op(total_ms("intertwining.intertwiner_scalar")), "ms")
    put("intertwining.probe_integral.calls", per_op(calls("intertwining.probe_integral")), "count")
    put("intertwining.first_probe_ratio",
        scalars / (probes_in_scalars / 2) if probes_in_scalars else 0.0, "ratio")

    codecs = ("dumps_table", "loads_table", "dumps_grid_function", "loads_grid_function")
    for codec in codecs:
        put(f"serialization.{codec}.ms", per_op(total_ms(f"serialization.{codec}")), "ms")
    put("serialization.bytes", per_op(sum((spans[i].info or {}).get("bytes", 0) for c in codecs
                                          for i in by_name.get(f"serialization.{c}", ()))), "B")

    put("reduction.intertwine_check.calls", per_op(calls("reduction.intertwine_check")), "count")
    for name in ("reduction.intertwine_check", "reduction.kostant_ratio",
                 "reduction.reduction_synthesize", "testbed.oracle_sht",
                 "testbed.random_bandlimited", "numerics.assoc_legendre"):
        put(f"{name}.ms", per_op(total_ms(name)), "ms")
    check_ms = dict.fromkeys(CHECK_NAMES, 0.0)
    for i in by_name.get("verify.check", ()):
        check = (spans[i].info or {}).get("check")
        if check is not None:  # a check that raised has no name
            check_ms[check] = check_ms.get(check, 0.0) + 1e3 * dur(i)
    for check, ms in check_ms.items():
        put(f"verify.{check}.ms", per_op(ms), "ms")
    put("cli.main.self_ms",
        per_op(1e3 * sum(dur(i) - child[i] for i in by_name.get("cli.main", ()))), "ms")

    put("numerics.gauss_legendre.ms", per_op(total_ms("numerics.gauss_legendre")), "ms")
    lookups = gl_cache_info.hits + gl_cache_info.misses
    put("numerics.gauss_legendre.hit_ratio", gl_cache_info.hits / lookups if lookups else 0.0, "ratio")
    put("sphere.SphereGrid.ms", per_op(total_ms("sphere.SphereGrid")), "ms")
    put("testbed.make_bump.ms", per_op(total_ms("testbed.make_bump")), "ms")
    put("trace.overhead", overhead, "ratio")
    return out


def self_times(spans, n_ops):
    """{span name: (calls, inclusive ms, self ms)} per traced op."""
    child = _child_time(spans)
    table: dict[str, list] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += 1e3 * (s.end - s.start)
        row[2] += 1e3 * (s.end - s.start - child[i])
    return {k: (c / n_ops, incl / n_ops, own / n_ops) for k, (c, incl, own) in table.items()}
