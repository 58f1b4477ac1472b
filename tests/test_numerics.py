"""Oracle tests for the hand-rolled numerical kernels.

Expected values were frozen from an independent tool (sympy exact
rationals) before the implementations were written; scipy
cross-checks run alongside where available.
"""

import tracemalloc

import numpy as np
import pytest

from crown_harmonics import numerics
from crown_harmonics.errors import CrownDomainError, NumericalError, SchemaError
from crown_harmonics.numerics import assoc_legendre, gauss_legendre
from crown_harmonics.testbed import complex_abs

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

    @staticmethod
    def _column_rule(n):
        # the Newton iteration on the last two rows of the whole
        # assoc_legendre order-0 column, (n + 1) x n per step
        x = np.cos(np.pi * (4 * np.arange(n) + 3) / (4 * n + 2))
        for _ in range(100):
            p0, p1 = assoc_legendre(n, 0, x)[-2:]
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x = x - dx
            if np.max(np.abs(dx)) < numerics._NEWTON_TOL:
                break
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        order = np.argsort(x)
        return x[order], w[order]

    @pytest.mark.parametrize("n", [*range(1, 40), 64, 96, 130, 144, 258, 513, 1000])
    def test_two_row_recurrence_is_the_column_bit_for_bit(self, n):
        nodes, weights = self._column_rule(n)
        rule = gauss_legendre.__wrapped__(n)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)

    def test_memory_does_not_grow_with_the_square_of_the_order(self):
        # the whole column would hold 2001 x 2000 floats, about 31 MiB
        tracemalloc.start()
        try:
            gauss_legendre.__wrapped__(2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
        column = assoc_legendre(2, 0, x)
        assert column.shape == (3, 7)
        assert np.max(np.abs(column[0] - 1.0)) == 0.0
        assert np.max(np.abs(column[1] - x)) == 0.0
        assert np.max(np.abs(column[2] - (1.5 * x**2 - 0.5))) < 1e-15

    def test_frozen_high_degree_value(self):
        assert abs(assoc_legendre(40, 0, 0.3)[40] - P40_AT_03) < 1e-15

    def test_domain_check(self):
        with pytest.raises(CrownDomainError):
            assoc_legendre(3, 0, 1.5)


class TestAssocLegendre:
    def test_frozen_value_no_condon_shortley(self):
        # sympy Rodrigues: (1-x^2)^{3/2} d^3/dx^3 P_6 at x = 0.4
        assert abs(assoc_legendre(6, 3, 0.4)[6] - P63_AT_04) < 1e-12 * abs(P63_AT_04)

    def test_m_zero_reduces_to_legendre(self):
        x = np.linspace(-0.95, 0.95, 9)
        column = assoc_legendre(11, 0, x)
        for l in (0, 1, 5, 11):
            legendre = np.polynomial.legendre.Legendre.basis(l)(x)
            assert np.max(np.abs(column[l] - legendre)) < 1e-13

    def test_diagonal_seed(self):
        # P_m^m = (2m-1)!! (1-x^2)^{m/2}, positive in this convention
        x = 0.3
        for m, dfact in ((1, 1.0), (2, 3.0), (3, 15.0)):
            expect = dfact * (1 - x * x) ** (m / 2.0)
            assert abs(assoc_legendre(m, m, x)[m] - expect) < 1e-13

    def test_rows_below_the_order_are_exact_zeros(self):
        x = np.array([-1.0, -0.3, 0.0, 0.6, 1.0])
        for m in range(9):
            column = assoc_legendre(8, m, x)
            assert column.shape == (9, 5)
            assert np.all(column[:m] == 0.0)

    def test_order_outside_the_column_raises(self):
        for lmax, m in ((4, 5), (4, -1), (0, 1), (3, -3)):
            with pytest.raises(SchemaError):
                assoc_legendre(lmax, m, 0.2)

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        lmax = 12
        x = np.array([-1.0 + 1e-9, -0.4, 0.0, 0.37, 1.0])
        for m in range(lmax + 1):
            column = assoc_legendre(lmax, m, x)
            for l in range(lmax + 1):
                # scipy lpmv carries the Condon-Shortley phase and is 0 for l < m
                theirs = (-1.0) ** m * scipy_special.lpmv(m, l, x)
                assert np.all(np.abs(column[l] - theirs)
                              < 1e-12 * np.maximum(1.0, np.abs(theirs))), (l, m)
