"""The three benchmark workloads: seeded inputs, the timed op, its check.

Each workload provides

    setup(sizes)               -> state     timed as set-up
    make_input(state, seed, i) -> input     op i of the seed's schedule, not timed
    run_op(state, input)       -> output    the timed operation
    check(state, input, out)   -> Outcome   not timed

and a cycle length. A run starts a new cycle only while its time budget
lasts, so every run does whole cycles of the same op mix and op_mean_ref
does not depend on where the budget happened to run out.

Library calls go through module attributes (``transform.analyze``, not a
name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from crown_harmonics import cli, paley_wiener, serialization, sphere, testbed, transform

#: the ROADMAP's full-order gate on the per-entry relative error
ROUNDTRIP_GATE = 1e-9
#: finest relative error a double can express; caps accuracy_digits
_EPS = 2.0 ** -53

SIZES = {
    "full": {
        # band-limit slots by metric name; the grid is (L+2) x (2L+2)
        "roundtrip_ls": {"L32": 32, "L64": 64, "L128": 128},
        "bump_grid": (144, 8),
        "rebuild_grid": (144, 16),
        "rebuild_lmax": 128,
        "calibration": {},
    },
    # smoke sizes: same code paths, seconds instead of minutes
    "tiny": {
        "roundtrip_ls": {"L32": 4, "L64": 6, "L128": 8},
        "bump_grid": (144, 8),
        "rebuild_grid": (144, 16),
        "rebuild_lmax": 16,
        "calibration": {"n_samples": 16},
    },
}


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op.

    failure is None when the op met its gate, else the reason it did not.
    digits is the op's accuracy in decades (None when there was no
    output). consistent is False when an output contradicts itself or a
    documented wire guarantee; such a run reports correct = false.
    """

    failure: str | None
    digits: float | None
    consistent: bool = True


def _digits(err: float) -> float:
    return -math.log10(max(err, _EPS))


# ---------------------------------------------------------------------------
# host-speed reference: fixed work that uses nothing of the package, timed
# between ops. The host this was sized on runs the same code up to 1.8x
# slower in phases that come and go within seconds and drift over minutes;
# op times divided by the reference pass time of the same run cancel most
# of that drift.

_REF_Z = (0.3 + 2j) * np.log(np.cos(0.5) + 1j * np.sin(0.5)
                             * np.cos(np.linspace(0.0, 2.0 * np.pi, 512)))[None, :].repeat(45, 0)


def reference():
    """One pass: exp and FFT on a 45 x 512 complex array, then an interpreter
    loop that takes a little longer, as the workloads mix both kinds of work."""
    np.fft.fft(np.exp(_REF_Z), axis=-1)
    sum(i * i for i in range(15000))


# ---------------------------------------------------------------------------
# roundtrip: table text -> synthesize -> grid codec -> analyze -> table text


@dataclass(frozen=True)
class RoundtripInput:
    cls: str
    lmax: int
    text: str
    lm: np.ndarray  # (n, 2) integer (l, m), sorted
    values: np.ndarray  # complex entries, same order


def _bridge_factors(lmax: int):
    """(l, m) pairs with |m| <= l and rho = i^|m| l!/sqrt((2l+1)(l+|m|)!(l-|m|)!)."""
    lm = np.array([(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)])
    l = lm[:, 0].astype(float)
    k = np.abs(lm[:, 1]).astype(float)
    lg = np.vectorize(math.lgamma)
    mag = np.exp(lg(l + 1) - 0.5 * (lg(l + k + 1) + lg(l - k + 1))) / np.sqrt(2 * l + 1)
    return lm, (1j) ** k * mag


class Roundtrip:
    """One op per band limit, cycling L32 -> L64 -> L128.

    The input is a full-order table of well-scaled entries rho * a with
    a seeded complex normal, written as table JSON text by this module
    so the input does not depend on the library's own writer.
    """

    cycle = 3

    def setup(self, sizes):
        ls = sizes["roundtrip_ls"]
        lmaxes = (4, *ls.values())
        state = {
            "ls": ls,
            "grids": {L: sphere.SphereGrid(L + 2, 2 * L + 2) for L in lmaxes},
            "rho": {L: _bridge_factors(L) for L in lmaxes},
        }
        # warm-up: one op at L=4 through every codec and both transforms
        warm = self._input(state, 4, "warm-up", np.random.default_rng(0))
        self.check(state, warm, self.run_op(state, warm))
        return state

    def make_input(self, state, seed, i):
        slot = list(state["ls"])[i % self.cycle]
        return self._input(state, state["ls"][slot], slot, np.random.default_rng([seed, i]))

    @staticmethod
    def _input(state, lmax, cls, rng):
        lm, rho = state["rho"][lmax]
        values = rho * (rng.standard_normal(rho.size) + 1j * rng.standard_normal(rho.size))
        rows = ",".join(
            '{"l": %d, "m": %d, "re": %r, "im": %r}' % (l, m, v.real, v.imag)
            for (l, m), v in zip(lm.tolist(), values.tolist())
        )
        text = '{"lmax": %d, "entries": [%s]}' % (lmax, rows)
        return RoundtripInput(cls, lmax, text, lm, values)

    @staticmethod
    def run_op(state, inp):
        table = serialization.loads_table(inp.text)
        f = transform.synthesize(transform.TableProvider(table), state["grids"][inp.lmax], inp.lmax)
        grid_text = serialization.dumps_grid_function(f)
        f_back = serialization.loads_grid_function(grid_text)
        back = transform.analyze(f_back, inp.lmax)
        return f, f_back, serialization.dumps_table(back)

    @staticmethod
    def check(state, inp, out):
        f, f_back, text = out
        # the grid codec promises an exact round trip
        consistent = np.array_equal(f.values, f_back.values)
        try:
            obj = json.loads(text)
        except ValueError as exc:  # "inf" is not JSON: a non-finite entry
            return Outcome(f"non-finite output ({exc})", None, consistent)
        consistent = consistent and obj["lmax"] == inp.lmax
        got = {(e["l"], e["m"]): complex(e["re"], e["im"]) for e in obj["entries"]}
        back = np.array([got.get((l, m), 0j) for l, m in inp.lm.tolist()])
        err = float(np.max(np.abs(back - inp.values) / np.abs(inp.values)))
        failure = None
        if not math.isfinite(err):
            failure = "non-finite output"
        elif err > ROUNDTRIP_GATE:
            failure = f"per-entry relative error {err:.2e} > {ROUNDTRIP_GATE:g}"
        return Outcome(failure, _digits(err) if math.isfinite(err) else None, consistent)


# ---------------------------------------------------------------------------
# certify: ExtendProvider -> pw_report at r/2 and 1.1 r -> rebuild


CERTIFY_CLASSES = ("smooth-zonal", "smooth-ktype1", "two-type", "cospow-p8")
_R_MIN, _R_MAX = 0.3, 1.0
_STRATA = 3


@dataclass(frozen=True)
class CertifyInput:
    cls: str
    radius: float
    f: object


class Certify:
    """Support certificates of pole-centred bumps, cycling four classes.

    Radii are drawn from the seed in [0.3, 1.0], stratified: the interval
    is cut in thirds and each class takes its k-th radius uniformly from
    a third that rotates with k. A cycle is the whole rotation, 12 ops
    that cover the small, middle and large radii of every class, so
    every run has the same op mix and op_mean_ref does not swing with a
    lucky draw, while each seed still gives its own radii.
    Op 0 is the r = 1.0 smooth zonal bump of the acceptance check.
    """

    cycle = len(CERTIFY_CLASSES) * _STRATA

    def setup(self, sizes):
        state = {
            "bump_grid": sphere.SphereGrid(*sizes["bump_grid"]),
            "rebuild_grid": sphere.SphereGrid(*sizes["rebuild_grid"]),
            "rebuild_lmax": sizes["rebuild_lmax"],
            "calibration": paley_wiener.Calibration().replaced(**sizes["calibration"]),
        }
        warm = transform.ExtendProvider(
            testbed.make_bump(testbed.BumpSpec(1.0), state["bump_grid"]))
        warm.eval(-0.5 + 1j, 0)
        transform.synthesize(warm, state["rebuild_grid"], 2)
        return state

    def make_input(self, state, seed, i):
        n_cls = len(CERTIFY_CLASSES)
        cls = CERTIFY_CLASSES[i % n_cls]
        k = i // n_cls
        # stratum (k + class + 2) mod 3: op 0 lands in the top third, every
        # class visits each third once per cycle
        stratum = (k + i % n_cls + 2) % _STRATA
        u = np.random.default_rng([seed, i]).random()
        r = 1.0 if i == 0 else _R_MIN + (_R_MAX - _R_MIN) * (stratum + u) / _STRATA
        grid = state["bump_grid"]
        spec = testbed.BumpSpec
        if cls == "smooth-zonal":
            f = testbed.make_bump(spec(r, "smooth"), grid)
        elif cls == "smooth-ktype1":
            f = testbed.make_bump(spec(r, "smooth", ktype=1), grid)
        elif cls == "two-type":
            inner = testbed.make_bump(spec(0.6 * r, "smooth"), grid)
            outer = testbed.make_bump(spec(r, "smooth", ktype=2), grid)
            f = sphere.GridFunction(grid, inner.values + outer.values)
        else:
            f = testbed.make_bump(spec(r, "cospow", p=8), grid)
        return CertifyInput(cls, r, f)

    @staticmethod
    def run_op(state, inp):
        provider = transform.ExtendProvider(inp.f)
        report = paley_wiener.pw_report(provider, [inp.radius / 2, 1.1 * inp.radius],
                                        state["calibration"])
        rebuilt = transform.synthesize(provider, state["rebuild_grid"], state["rebuild_lmax"])
        return report, rebuilt

    @staticmethod
    def check(state, inp, out):
        report, rebuilt = out
        r = inp.radius
        tight, loose = r / 2, 1.1 * r
        grid = state["rebuild_grid"]
        consistent = (
            [v.radius for v in report.verdicts] == [tight, loose]
            and rebuilt.values.shape == (grid.n_theta, grid.n_phi)
        )
        te = report.type_estimate
        finite = (np.all(np.isfinite(rebuilt.values))
                  and all(map(math.isfinite, (te.r_hat, te.upper, report.weyl_residual))))
        if not finite:
            return Outcome("non-finite output", None, consistent)
        peak = float(np.max(np.abs(rebuilt.values)))
        exterior = grid.theta > 1.21 * r
        mass = float(np.max(np.abs(rebuilt.values[exterior]))) / peak if exterior.any() else 0.0
        rejects, accepts = not report.passed(tight), report.passed(loose)
        failure = None
        if not (rejects and accepts):
            failure = (f"r={r:.3f}: reject@{tight:.3f}={rejects}, accept@{loose:.3f}={accepts}, "
                       f"r_hat {te.r_hat:.3f}")
        return Outcome(failure, _digits(mass), consistent)


# ---------------------------------------------------------------------------
# verify: the CLI acceptance gate, in-process


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): measured (\S+) \(threshold (\S+)\)")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass(frozen=True)
class VerifyInput:
    cls: str
    argv: list


class Verify:
    """``crown-harmonics verify --seed s`` in-process, output captured."""

    cycle = 1

    def setup(self, sizes):
        cli.build_parser().parse_args(["verify"])
        return {}

    def make_input(self, state, seed, i):
        return VerifyInput("verify", ["verify", "--seed", str(seed * 1000 + i)])

    @staticmethod
    def run_op(state, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(inp.argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(state, inp, out):
        code, text, err = out
        lines = text.splitlines()
        checks = [m.groups() for m in map(_CHECK_LINE.match, lines) if m]
        summary = _SUMMARY.match(lines[-1]) if lines else None
        n_pass = sum(status == "PASS" for status, *_ in checks)
        # a check that raises ends verify with a nonzero code and no
        # summary: a failed op, not a contradiction
        consistent = (summary is None and code != 0) or (
            summary is not None
            and (int(summary[1]), int(summary[2])) == (n_pass, len(checks))
            and (code == 0) == (n_pass == len(checks))
        )
        margins = [math.log10(float(thr) / float(meas))
                   for _, _, meas, thr in checks if float(meas) > 0.0]
        failure = None
        if code != 0:
            failed = [name for status, name, *_ in checks if status == "FAIL"]
            failure = f"exit code {code}: failed {failed or err.strip()[:200]}"
        return Outcome(failure, min(margins) if margins else None, consistent)


WORKLOADS = {"roundtrip": Roundtrip(), "certify": Certify(), "verify": Verify()}
