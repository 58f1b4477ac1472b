"""Acceptance gate: the thirteen named library-level checks.

Each test runs one check from the verification suite, prints the
PASS/FAIL line with the measured value and threshold, and fails when
the measurement is out of tolerance. The same checks back the CLI
command `crown-harmonics verify`.
"""

import dataclasses
import math

import numpy as np
import pytest

from crown_harmonics import verify
from crown_harmonics.verify import (
    check_certification_verdicts,
    check_classical_bridge,
    check_extend_matches_analyze,
    check_full_order_round_trip,
    check_intertwining,
    check_ladder_ratios,
    check_ladder_synthesis,
    check_round_trip,
    check_scalar_probe_independence,
    check_type_estimate,
    check_vanishing_rule,
    check_weyl_symmetry,
    check_zonal_kernel,
)


def _assert_check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_zonal_kernel_identity():
    _assert_check(check_zonal_kernel())


def test_criterion_02_coefficient_round_trip():
    _assert_check(check_round_trip(seed=0))


def test_criterion_03_extension_integer_agreement():
    _assert_check(check_extend_matches_analyze())


def test_criterion_04_type_estimate_accuracy():
    _assert_check(check_type_estimate())


def test_criterion_05_reflection_symmetry():
    _assert_check(check_weyl_symmetry())


def test_criterion_06_scalar_probe_independence():
    _assert_check(check_scalar_probe_independence())


def test_criterion_07_certificate_and_rebuild():
    _assert_check(check_certification_verdicts())


def test_criterion_08_ladder_ratio_rationality():
    _assert_check(check_ladder_ratios())


def test_criterion_09_intertwining_identity():
    _assert_check(check_intertwining())


def test_criterion_10_ladder_synthesis():
    _assert_check(check_ladder_synthesis())


def test_criterion_11_sub_frequency_vanishing():
    _assert_check(check_vanishing_rule())


def test_criterion_12_classical_bridge():
    _assert_check(check_classical_bridge())


def test_criterion_13_full_order_round_trip():
    _assert_check(check_full_order_round_trip(seed=0))


def test_classical_bridge_holds_the_closed_form(monkeypatch):
    # a closed form off by 1e-8 relative at one entry fails the check
    exact = verify.bridge_factor_candidate

    def perturbed(l, m):
        rho = exact(l, m).copy()
        rho[(l == 9) & (m == -4)] *= 1.0 + 1e-8
        return rho

    monkeypatch.setattr(verify, "bridge_factor_candidate", perturbed)
    result = check_classical_bridge()
    assert not result.passed, result.line()
    assert result.measured > 9e-9


def test_classical_bridge_compares_every_fresh_function(monkeypatch):
    # the fifth fresh function's classical table off by 1e-8 relative at
    # its peak entry fails the check, though all seven share one call
    exact = verify.oracle_sht

    def perturbed(fs, lmax):
        tables = exact(fs, lmax)
        kern = verify.analyze(fs[6], lmax).values
        peak = np.unravel_index(np.argmax(np.abs(kern)), kern.shape)
        tables[6].values[peak] *= 1.0 + 1e-8
        return tables

    monkeypatch.setattr(verify, "oracle_sht", perturbed)
    result = check_classical_bridge()
    assert not result.passed, result.line()
    assert result.measured > 9e-9


def test_classical_bridge_projects_once(monkeypatch):
    # one oracle_sht call over the seven functions, one analyze each
    calls = []

    def spy(name):
        exact = getattr(verify, name)

        def counted(f, lmax):
            calls.append((name, len(f) if isinstance(f, list) else 1))
            return exact(f, lmax)

        monkeypatch.setattr(verify, name, counted)

    spy("oracle_sht")
    spy("analyze")
    _assert_check(check_classical_bridge())
    assert sorted(calls) == [("analyze", 1)] * 7 + [("oracle_sht", 7)]


def test_scalar_probe_independence_holds_b0_to_its_tolerance(monkeypatch):
    # b_0 off by 5e-10 passes the check's 1e-9 threshold but not the
    # 1e-10 that its detail prints for the b0 defect
    exact = verify.intertwiner_scalar

    def perturbed(m, t):
        return 1.0 + 5e-10 if m == 0 else exact(m, t)

    monkeypatch.setattr(verify, "intertwiner_scalar", perturbed)
    result = check_scalar_probe_independence()
    assert not result.passed, result.line()
    assert "b0 defect 5.0e-10 vs 1e-10" in result.detail


def test_scalar_probe_independence_holds_b_m_to_its_tolerance(monkeypatch):
    # the closed form b_2 off by 1e-8 relative at one t fails the check
    exact = verify.intertwiner_rational

    def perturbed(m, t):
        b = exact(m, t)
        if m == 2:
            b = b.copy()
            b[7] *= 1.0 + 1e-8
        return b

    monkeypatch.setattr(verify, "intertwiner_rational", perturbed)
    result = check_scalar_probe_independence()
    assert not result.passed, result.line()
    assert result.measured > 9e-9


def test_oracle_integrals_are_batched(monkeypatch):
    # one probe_integral call per (m, probe angle) over the stacked
    # parameters [-t, t], and one kernel_mode_profiles call over the
    # degrees 0..50 on the log table of the three angles
    calls = []

    def spy(name, batched_arg):
        exact = getattr(verify, name)

        def counted(*args):
            calls.append((name, *(np.shape(args[j]) for j in batched_arg)))
            return exact(*args)

        monkeypatch.setattr(verify, name, counted)

    spy("probe_integral", [1])
    spy("kernel_mode_profiles", [0, 1])
    monkeypatch.setattr(verify, "intertwiner_scalar", lambda m, t: 1.0)
    _assert_check(check_scalar_probe_independence())
    assert calls == [("probe_integral", (50,))] * 9
    calls.clear()
    _assert_check(check_zonal_kernel())
    assert calls == [("kernel_mode_profiles", (51,), (3, 257))]


def _poisoned(exact, n, poison):
    """exact, except that its n-th call (from 0) returns poison(result)."""
    calls = []

    def wrapped(*args, **kwargs):
        result = exact(*args, **kwargs)
        calls.append(None)
        return poison(result) if len(calls) == n + 1 else result

    return wrapped


def _nan_at(index):
    def poison(values):
        values = np.array(values, dtype=complex if np.iscomplexobj(values) else float)
        values[index] = np.nan
        return values
    return poison


def _nan_r_hat(est):
    return dataclasses.replace(est, r_hat=float("nan"))


def _nan_table(table):
    values = table.values.copy()
    values[5, table.lmax] = np.nan  # l = 5, m = 0
    return type(table)(values)


def _nan_fresh_projection(tables):
    return [*tables[:3], _nan_table(tables[3]), *tables[4:]]


#: one NaN in one comparison of each check that collects its comparisons:
#: (check, name in verify, which call, how its result is poisoned)
_POISONS = {
    "zonal-kernel-identity": (check_zonal_kernel, "assoc_legendre", 0, _nan_at(7)),
    "extension-integer-agreement": (check_extend_matches_analyze, "analyze", 1, _nan_table),
    "type-estimate-accuracy": (check_type_estimate, "type_estimate", 1, _nan_r_hat),
    "scalar-probe-independence": (check_scalar_probe_independence, "intertwiner_rational", 1,
                                  _nan_at(7)),
    "ladder-ratio-rationality": (check_ladder_ratios, "kostant_ratio", 4,
                                 lambda out: (out[0], float("nan"))),
    "intertwining-identity": (check_intertwining, "intertwine_check", 1,
                              lambda residual: float("nan")),
    "classical-bridge": (check_classical_bridge, "oracle_sht", 0, _nan_fresh_projection),
}


@pytest.mark.parametrize("name", list(_POISONS))
def test_a_nan_comparison_fails_its_check(monkeypatch, name):
    # one NaN among a check's comparisons is its measurement, not a pass
    check, target, n, poison = _POISONS[name]
    monkeypatch.setattr(verify, target, _poisoned(getattr(verify, target), n, poison))
    result = check()
    print(result.line())
    assert result.name == name
    assert result.passed is False
    assert math.isnan(result.measured)
