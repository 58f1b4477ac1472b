"""Oracle tests for the hand-rolled numerical kernels.

Expected values were frozen from an independent tool (sympy exact
rationals) before the implementations were written; scipy
cross-checks run alongside where available.
"""

import math

import numpy as np
import pytest

from crown_harmonics import numerics
from crown_harmonics.errors import CrownDomainError, NumericalError
from crown_harmonics.numerics import assoc_legendre, complex_abs, gauss_legendre

# frozen oracles (sympy, 2026-08)
P40_AT_03 = 0.12511584585570795544
P63_AT_04 = -60.142456632711637181


class TestGaussLegendre:
    def test_weights_sum_to_interval_length(self):
        for n in (1, 2, 5, 16, 64):
            rule = gauss_legendre(n)
            assert abs(rule.weights.sum() - 2.0) < 1e-14

    def test_nodes_sorted_symmetric_interior(self):
        rule = gauss_legendre(24)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-15
        assert np.all(np.abs(rule.nodes) < 1.0)

    def test_polynomial_exactness_to_degree_2n_minus_1(self):
        # n = 10 integrates x^18 exactly: integral over [-1, 1] is 2/19
        rule = gauss_legendre(10)
        got = float(rule.weights @ rule.nodes**18)
        assert abs(got - 2.0 / 19.0) < 1e-14
        # and detectably fails at degree 2n
        got20 = float(rule.weights @ rule.nodes**20)
        assert abs(got20 - 2.0 / 21.0) > 1e-9

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        nodes, weights = scipy_special.roots_legendre(64)
        rule = gauss_legendre(64)
        assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
        assert np.max(np.abs(rule.weights - weights)) < 1e-14

    def test_rule_arrays_are_readonly(self):
        rule = gauss_legendre(8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_NEWTON_TOL", 0.0)
        gauss_legendre.cache_clear()
        try:
            with pytest.raises(NumericalError, match="order 7"):
                gauss_legendre(7)
        finally:
            gauss_legendre.cache_clear()


class TestComplexAbs:
    def test_rounds_as_python_abs(self):
        rng = np.random.default_rng(3)
        z = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) \
            * np.exp(rng.uniform(-30.0, 30.0, 2000))
        expect = np.array([abs(v) for v in z.tolist()])
        assert np.array_equal(complex_abs(z), expect)
        assert complex_abs(3.0 + 4.0j) == 5.0


class TestLegendre:
    def test_low_degrees_exact(self):
        x = np.linspace(-1, 1, 7)
        assert np.max(np.abs(assoc_legendre(0, 0, x) - 1.0)) == 0.0
        assert np.max(np.abs(assoc_legendre(1, 0, x) - x)) == 0.0
        assert np.max(np.abs(assoc_legendre(2, 0, x) - (1.5 * x**2 - 0.5))) < 1e-15

    def test_frozen_high_degree_value(self):
        assert abs(assoc_legendre(40, 0, 0.3) - P40_AT_03) < 1e-15

    def test_domain_check(self):
        with pytest.raises(CrownDomainError):
            assoc_legendre(3, 0, 1.5)


class TestAssocLegendre:
    def test_frozen_value_no_condon_shortley(self):
        # sympy Rodrigues: (1-x^2)^{3/2} d^3/dx^3 P_6 at x = 0.4
        assert abs(assoc_legendre(6, 3, 0.4) - P63_AT_04) < 1e-12 * abs(P63_AT_04)

    def test_m_zero_reduces_to_legendre(self):
        x = np.linspace(-0.95, 0.95, 9)
        for l in (0, 1, 5, 11):
            legendre = np.polynomial.legendre.Legendre.basis(l)(x)
            assert np.max(np.abs(assoc_legendre(l, 0, x) - legendre)) < 1e-13

    def test_diagonal_seed(self):
        # P_m^m = (2m-1)!! (1-x^2)^{m/2}, positive in this convention
        x = 0.3
        for m, dfact in ((1, 1.0), (2, 3.0), (3, 15.0)):
            expect = dfact * (1 - x * x) ** (m / 2.0)
            assert abs(assoc_legendre(m, m, x) - expect) < 1e-13

    def test_negative_order_scaling(self):
        x = np.array([0.1, 0.45, 0.8])
        for l, m in ((3, 1), (5, 2), (6, 4)):
            scale = math.factorial(l - m) / math.factorial(l + m)
            got = assoc_legendre(l, -m, x)
            assert np.max(np.abs(got - scale * assoc_legendre(l, m, x))) < 1e-13

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        x = 0.37
        for l in range(7):
            for m in range(l + 1):
                ours = assoc_legendre(l, m, x)
                # scipy lpmv carries the Condon-Shortley phase
                theirs = (-1.0) ** m * scipy_special.lpmv(m, l, x)
                assert abs(ours - theirs) < 1e-12 * max(1.0, abs(theirs))
