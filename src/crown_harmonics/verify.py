"""Named end-to-end checks with pinned tolerances.

Each check exercises one advertised guarantee of the library on fixed,
reproducible inputs and reports a single worst-case measurement against
its threshold. The acceptance test suite and the command line `verify`
subcommand both run exactly these functions, so a green gate in CI and
a green `crown-harmonics verify` mean the same thing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intertwining import intertwiner_rational, intertwiner_scalar, probe_integral
from .numerics import assoc_legendre, complex_abs
from .paley_wiener import pw_report, type_estimate, weyl_residual
from .reduction import intertwine_check, kostant_ratio, ladder_components, reduction_synthesize
from .sphere import SphereGrid, boundary_log_pairing, kernel_mode_profiles, support_radius
from .testbed import (
    BumpSpec,
    bridge_factor_candidate,
    bridge_factors,
    make_bump,
    oracle_sht,
    random_bandlimited,
)
from .transform import (
    CoefficientTable,
    ExtendProvider,
    TableProvider,
    analyze,
    lm_grid,
    synthesize,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: measured {self.measured:.3e} "
            f"(threshold {self.threshold:.1e}) - {self.detail}"
        )


def _result(name, measured, threshold, detail) -> CheckResult:
    return CheckResult(name, bool(measured <= threshold), float(measured),
                       float(threshold), detail)


def check_zonal_kernel() -> CheckResult:
    """Zonal kernel modes reproduce the classical degree-l polynomials."""
    worst = 0.0
    for theta in (0.2, 0.7, 1.2):
        column = assoc_legendre(50, 0, math.cos(theta)).tolist()
        log_q = boundary_log_pairing(theta)
        for l in range(51):
            got = complex(kernel_mode_profiles(float(l), log_q, [0])[0, 0])
            worst = max(worst, abs(got - column[l]))
    return _result(
        "zonal-kernel-identity", worst, 1e-10,
        "mode-0 kernel vs Legendre recurrence, l <= 50, three angles",
    )


def check_round_trip(seed: int = 0) -> CheckResult:
    """synthesize then analyze restores a random coefficient table."""
    grid = SphereGrid(40, 72)
    f, table = random_bandlimited(grid, 32, 4, seed)
    back = analyze(f, 32)
    worst = complex_abs(back.values - table.values).max()
    return _result(
        "coefficient-round-trip", worst / complex_abs(table.values).max(), 1e-9,
        "lmax 32, |m| <= 4, grid 40x72, relative to the table scale",
    )


def check_full_order_round_trip(seed: int = 0) -> CheckResult:
    """synthesize then analyze restores every entry of a full-order table."""
    lmax = 64
    # unit-norm-basis data: rho * a with a complex normal, zero for l < |m|
    rho = np.array([[bridge_factor_candidate(l, m) if abs(m) <= l else 0.0
                     for m in range(-lmax, lmax + 1)] for l in range(lmax + 1)])
    full = rho != 0.0
    rng = np.random.default_rng(seed)
    table = CoefficientTable(rho * (rng.standard_normal(full.shape)
                                    + 1j * rng.standard_normal(full.shape)))
    f = synthesize(TableProvider(table), SphereGrid(lmax + 2, 2 * lmax + 2), lmax)
    back = analyze(f, lmax)
    worst = np.max(complex_abs(back.values[full] - table.values[full])
                   / complex_abs(table.values[full]))
    return _result(
        "full-order-round-trip", worst, 1e-9,
        f"lmax {lmax}, all |m| <= l, unit-norm-basis data, grid {lmax + 2}x{2 * lmax + 2}, "
        "per entry relative",
    )


_EXTEND_BUMPS = (
    BumpSpec(0.4, "smooth", ktype=0),
    BumpSpec(0.8, "smooth", ktype=1),
    BumpSpec(0.6, "cospow", p=8, ktype=2),
)


def check_extend_matches_analyze() -> CheckResult:
    """The separated holomorphic route agrees with direct quadrature."""
    grid = SphereGrid(96, 40)
    worst = 0.0
    for spec in _EXTEND_BUMPS:
        f = make_bump(spec, grid)
        table = analyze(f, 12)
        provider = ExtendProvider(f)
        ms, values = sorted(provider.ktypes), provider.eval_many([complex(l) for l in range(13)])
        got = np.array([values[:, ms.index(m)] if m in ms else np.zeros(13)
                        for m in range(-3, 4)]).T
        defect = complex_abs(got - table.values[:, 12 - 3:12 + 4])
        worst = max(worst, np.max(defect / complex_abs(table.values).max()))
    return _result(
        "extension-integer-agreement", worst, 1e-10,
        "three bump shapes, l <= 12, |m| <= 3, relative to table scale",
    )


def check_type_estimate() -> CheckResult:
    """Estimated exponential type tracks the known support radius."""
    grid = SphereGrid(144, 8)
    worst = 0.0
    details = []
    for r in (0.3, 0.6, 1.0):
        f = make_bump(BumpSpec(r, "smooth"), grid)
        est = type_estimate(ExtendProvider(f), t_max=40.0, n_samples=160)
        worst = max(worst, abs(est.r_hat / r - 1.0))
        details.append(f"r={r:g}: {est.r_hat:.4f}")
    return _result(
        "type-estimate-accuracy", worst, 0.10,
        "smooth bumps, " + ", ".join(details),
    )


def check_weyl_symmetry() -> CheckResult:
    """Reflection symmetry holds on the complex sample lattice.

    Both sides are ExtendProvider values from the direct route, so the
    closed-form b_m is checked against two independent quadratures.
    """
    grid = SphereGrid(96, 24)
    worst = 0.0
    for m in (0, 1, 2):
        f = make_bump(BumpSpec(0.7, "smooth", ktype=m), grid)
        worst = max(worst, weyl_residual(ExtendProvider(f)))
    return _result(
        "reflection-symmetry", worst, 1e-8,
        "K-type bumps m in {0,1,2}, 4x4 complex lattice, closed-form scalar vs direct-route values",
    )


_SCALAR_T_GRID = [
    complex(re, im)
    for re in (-1.9, -0.95, 0.07, 1.02, 1.83)
    for im in (-1.2, -0.45, 0.3, 0.95, 1.6)
]


def check_scalar_probe_independence() -> CheckResult:
    """The probe ratio does not depend on the probe angle and equals b_m."""
    probes = (0.2, 0.5, 1.0)
    spread = 0.0
    defect = 0.0
    worst_b0 = 0.0
    for t in _SCALAR_T_GRID:
        worst_b0 = max(worst_b0, abs(intertwiner_scalar(0, t) - 1.0))
        for m in (1, 2, 3):
            vals = [
                probe_integral(m, -t, th) / probe_integral(m, t, th)
                for th in probes
            ]
            mean = sum(vals) / len(vals)
            spread = max(spread, max(abs(v - mean) for v in vals) / abs(mean))
            defect = max(defect, abs(mean - intertwiner_rational(m, t)) / abs(mean))
    # b_0 = 1 exactly, so its defect is held to a tenth of the threshold
    measured = max(spread, defect, 10.0 * worst_b0)
    return _result(
        "scalar-probe-independence", measured, 1e-9,
        f"m <= 3 on 25 complex t: probe spread {spread:.1e}, closed-form defect "
        f"{defect:.1e} (b0 defect {worst_b0:.1e} vs 1e-10)",
    )


def check_certification_verdicts() -> CheckResult:
    """The support certificate rejects tight radii and accepts true ones."""
    grid = SphereGrid(144, 8)
    f = make_bump(BumpSpec(1.0, "smooth"), grid)
    provider = ExtendProvider(f)
    report = pw_report(provider, [0.5, 1.1])
    fails_tight = not report.passed(0.5)
    passes_true = report.passed(1.1)

    out_grid = SphereGrid(144, 16)
    rebuilt = synthesize(provider, out_grid, 128)
    peak = float(np.max(np.abs(rebuilt.values)))
    exterior_rows = out_grid.theta > 1.1 * 1.1
    exterior = (
        float(np.max(np.abs(rebuilt.values[exterior_rows]))) / peak
        if np.any(exterior_rows)
        else 0.0
    )
    measured = exterior if (fails_tight and passes_true) else 1.0
    return _result(
        "certificate-and-rebuild", measured, 1e-5,
        f"radius-1.0 bump: reject@0.5={fails_tight}, accept@1.1={passes_true}, "
        f"rebuilt exterior mass {exterior:.2e} beyond 1.21 rad",
    )


def _ladder_scalar(m: int, t) -> complex:
    """i^m / ((ell+1)(ell+2)...(ell+m)) at ell = -t - 1/2, the closed form of
    the order-m ladder ratio."""
    ell = -complex(t) - 0.5
    value = 1j ** m
    for j in range(1, m + 1):
        value /= ell + j
    return value


def check_ladder_ratios() -> CheckResult:
    """Ladder ratios are probe independent and equal their closed form."""
    worst_spread = 0.0
    worst_defect = 0.0
    thetas = (0.2, 0.5, 1.0)
    ts = (0.31 + 0.22j, -0.87 + 0.41j, 1.24 - 0.33j, -1.62 - 0.5j,
          0.73 + 0.91j, 2.05 + 0.17j, -0.21 - 1.1j, 1.58 + 0.66j,
          -1.13 + 1.02j)
    for m in (1, 2):
        for t in ts:
            ratios, spread = kostant_ratio(m, t, thetas)
            worst_spread = max(worst_spread, spread)
            expect = _ladder_scalar(m, t)
            worst_defect = max(worst_defect, abs(ratios.mean() - expect) / abs(expect))
    measured = max(worst_spread / 1e-7, worst_defect / 1e-6)
    return _result(
        "ladder-ratio-rationality", measured, 1.0,
        f"spread {worst_spread:.1e} (tol 1e-7), "
        f"closed-form defect {worst_defect:.1e} (tol 1e-6)",
    )


_INTERTWINE_POINTS = (0.4 + 0.6j, -1.3 + 0.2j, 2.2 - 0.8j, 1.5j)


def check_intertwining() -> CheckResult:
    """Derivative-transform exchange identity at generic parameters."""
    grid = SphereGrid(64, 16)
    bumps = [
        make_bump(BumpSpec(0.5, "smooth", ktype=0), grid),
        make_bump(BumpSpec(0.9, "smooth", ktype=1), grid),
        make_bump(BumpSpec(0.7, "cospow", p=10, ktype=2), grid),
    ]
    worst = 0.0
    selection_ok = True
    for f in bumps:
        for gen in ("Z", "X", "Y"):
            expected = {f.ktype} if gen == "Z" else {f.ktype - 1, f.ktype + 1}
            if set(ladder_components(f, gen)) != expected:
                selection_ok = False
        worst = max(worst, intertwine_check(f, "ZXY", _INTERTWINE_POINTS))
    measured = worst if selection_ok else max(worst, 1.0)
    return _result(
        "intertwining-identity", measured, 1e-6,
        f"3 handles x 3 generators x 4 parameters, selection rule "
        f"{'exact' if selection_ok else 'violated'}",
    )


def check_ladder_synthesis() -> CheckResult:
    """Pure-type synthesis stays in its cap and passes certification."""
    grid = SphereGrid(144, 16)
    seed = make_bump(BumpSpec(0.6, "smooth"), grid)
    f2 = reduction_synthesize(2, seed)

    modes = np.fft.fft(f2.values, axis=1) / grid.n_phi
    peak = float(np.max(np.abs(modes)))
    off = np.delete(modes, 2, axis=1)
    purity = float(np.max(np.abs(off))) / peak

    supp = support_radius(f2)
    cell = math.pi / grid.n_theta
    supp_ok = supp <= 0.6 + cell

    report = pw_report(ExtendProvider(f2), [0.6])
    cert_ok = report.passed(0.6)

    measured = purity if (supp_ok and cert_ok) else 1.0
    return _result(
        "ladder-synthesis", measured, 1e-12,
        f"K-type purity {purity:.1e}, support {supp:.3f} vs 0.6 (+1 cell), "
        f"certified@0.6={cert_ok}",
    )


def check_vanishing_rule() -> CheckResult:
    """Coefficients below the azimuthal frequency vanish."""
    grid = SphereGrid(40, 72)
    f, table = random_bandlimited(grid, 12, 4, 7)
    back = analyze(f, 12)
    magnitude = complex_abs(back.values)
    ls, ms = lm_grid(12)
    worst = magnitude[ls < np.abs(ms)].max()
    return _result(
        "sub-frequency-vanishing", worst / magnitude.max(), 1e-10,
        "analyze of band-limited data, entries with l < |m|, relative",
    )


def check_classical_bridge() -> CheckResult:
    """Kernel coefficients match classical projections through a bridge
    that matches its closed form."""
    lmax = 16
    grid = SphereGrid(24, 40)

    # measure the bridge from two fixed functions, then test it on five
    # fresh ones it has never seen
    bridges, known = bridge_factors(random_bandlimited(grid, lmax, lmax, 101)[0], lmax)
    again, known_again = bridge_factors(random_bandlimited(grid, lmax, lmax, 202)[0], lmax)
    both = known & known_again
    bridge_defect = np.max(complex_abs(again[both] - bridges[both]) / complex_abs(bridges[both]),
                           initial=0.0)

    worst = 0.0
    for seed in (11, 12, 13, 14, 15):
        f, _ = random_bandlimited(grid, lmax, lmax, seed)
        kern = analyze(f, lmax).values
        clas = oracle_sht(f, lmax).values
        predicted = [r * c for r, c in zip(bridges[known].tolist(), clas[known].tolist())]
        defect = complex_abs(kern[known] - np.array(predicted)) / complex_abs(kern).max()
        worst = max(worst, np.max(defect, initial=0.0))

    # the measured bridge against its closed form, on every resolved entry
    closed = np.array([bridge_factor_candidate(l, m - lmax) for l, m in zip(*np.nonzero(known))])
    closed_defect = np.max(complex_abs(bridges[known] - closed) / complex_abs(closed), initial=0.0)
    measured = max(worst, bridge_defect, closed_defect)
    return _result(
        "classical-bridge", measured, 1e-9,
        f"bridge from 2 functions applied to 5 fresh ones "
        f"(f-independence {bridge_defect:.1e}, closed-form defect {closed_defect:.1e} "
        f"on {int(known.sum())} entries)",
    )


ALL_CHECKS = (
    check_zonal_kernel,
    check_round_trip,
    check_extend_matches_analyze,
    check_type_estimate,
    check_weyl_symmetry,
    check_scalar_probe_independence,
    check_certification_verdicts,
    check_ladder_ratios,
    check_intertwining,
    check_ladder_synthesis,
    check_vanishing_rule,
    check_classical_bridge,
    check_full_order_round_trip,
)

#: the checks that draw their inputs from the acceptance seed
_SEEDED = (check_round_trip, check_full_order_round_trip)


def run_acceptance(seed: int = 0):
    """Run every named check; returns the list of CheckResult."""
    results = []
    for fn in ALL_CHECKS:
        if fn in _SEEDED:
            results.append(fn(seed))
        else:
            results.append(fn())
    return results
