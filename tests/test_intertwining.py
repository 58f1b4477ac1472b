"""Tests for the reflection scalars: closed form vs quadrature ratio.

The closed-form product is the library's b_m; the probe-ratio
measurement is an independent route kept for verify, and their
agreement on generic parameters is the main event here. Frozen values: b_0 is identically 1, b_1(-3/2) = -2.
"""

import numpy as np
import pytest

from crown_harmonics.errors import SingularParameterError
from crown_harmonics.intertwining import (
    intertwiner_rational,
    intertwiner_scalar,
    probe_integral,
    singular_distance,
)
from crown_harmonics.sphere import SphereGrid
from crown_harmonics.testbed import BumpSpec, make_bump
from crown_harmonics.transform import ExtendProvider

GENERIC_TS = [
    0.3 + 0.4j, -1.2 + 0.9j, 2.1 - 0.6j, 0.05 + 1.5j, -2.3 - 1.1j,
]


class TestClosedForm:
    def test_b0_identically_one(self):
        for t in GENERIC_TS:
            assert intertwiner_rational(0, t) == 1.0

    def test_frozen_value_b1(self):
        assert abs(intertwiner_rational(1, -1.5) - (-2.0)) < 1e-15

    def test_product_form_b2(self):
        # b_2(t) = [(1/2-t)(3/2-t)] / [(1/2+t)(3/2+t)]
        t = 0.7 - 0.3j
        expect = ((0.5 - t) * (1.5 - t)) / ((0.5 + t) * (1.5 + t))
        assert abs(intertwiner_rational(2, t) - expect) < 1e-15

    def test_reciprocal_identity(self):
        for m in (1, 2, 3, 4):
            for t in GENERIC_TS:
                prod = intertwiner_rational(m, t) * intertwiner_rational(m, -t)
                assert abs(prod - 1.0) < 1e-12

    def test_m_sign_symmetry(self):
        for t in GENERIC_TS:
            assert intertwiner_rational(2, t) == intertwiner_rational(-2, t)

    def test_poles_raise(self):
        for m, t in ((1, -0.5), (2, -1.5), (3, -2.5)):
            with pytest.raises(SingularParameterError):
                intertwiner_rational(m, t)
        # one pole anywhere in an array raises for the whole array
        with pytest.raises(SingularParameterError):
            intertwiner_rational(2, np.array([0.3, -1.5]))

    def test_array_matches_scalar_calls(self):
        ts = np.array(GENERIC_TS).reshape(1, 5)
        for m in (0, 1, 3):
            got = intertwiner_rational(m, ts)
            assert got.shape == (1, 5) and got.dtype == complex
            assert np.array_equal(got[0], [intertwiner_rational(m, t) for t in GENERIC_TS])

    def test_real_parameters_give_a_real_product(self):
        # at t = -n-1/2 every factor is a ratio of integers, so the real
        # product equals prod (n+1+j)/(j-n) bit for bit
        n = np.arange(3, 40)
        got = intertwiner_rational(3, -n - 0.5)
        assert got.dtype == np.float64
        js = np.arange(3)
        assert np.array_equal(got, np.prod((n[:, None] + 1 + js) / (js - n[:, None]), axis=1))


class TestQuadratureScalar:
    def test_matches_closed_form(self):
        worst = 0.0
        for m in (0, 1, 2, 3):
            for t in GENERIC_TS:
                got = intertwiner_scalar(m, t)
                expect = intertwiner_rational(m, t)
                worst = max(worst, abs(got - expect) / abs(expect))
        assert worst < 1e-12

    def test_probe_angle_irrelevant(self):
        t = 0.8 + 0.25j
        vals = [probe_integral(2, -t, th) / probe_integral(2, t, th)
                for th in (0.2, 0.5, 1.0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-12 * abs(vals[0])
        assert abs(intertwiner_scalar(2, t) - vals[1]) < 1e-12 * abs(vals[1])

    def test_probe_integral_reflection_consistency(self):
        # the defining ratio: F_m(-t) / F_m(t) with F built from the
        # kernel mode at the reflected power
        m, t, theta = 2, 0.6 + 0.4j, 0.7
        ratio = probe_integral(m, -t, theta) / probe_integral(m, t, theta)
        assert abs(ratio - intertwiner_rational(m, t)) < 1e-12


class TestWeylReflection:
    """The reflection ell -> -ell - 1 acting on holomorphic extensions.

    phi(ell) = b_m(ell + 1/2) phi(-ell - 1) for the extension phi of a
    cap-supported function; both sides are evaluated directly here.
    """

    @staticmethod
    def _provider():
        grid = SphereGrid(96, 12)
        return ExtendProvider(make_bump(BumpSpec(radius=0.7, ktype=2), grid))

    def test_formula_and_involution(self):
        provider = self._provider()
        # 3 and -4 are exchanged, and so are ell and its reflection
        for ell in (3.0, -4.0, 0.25 + 2.25j, -1.25 - 2.25j):
            lhs = provider.eval(ell, 2)
            rhs = intertwiner_rational(2, ell + 0.5) * provider.eval(-ell - 1.0, 2)
            assert abs(lhs - rhs) < 1e-13 * abs(lhs)

    def test_fixed_point_is_minus_half(self):
        # ell = -1/2 is its own reflection, so b_m(0) must be exactly 1
        for m in range(5):
            assert intertwiner_rational(m, 0.0) == 1.0
            assert abs(intertwiner_scalar(m, 0.0) - 1.0) < 1e-12


class TestSingularBookkeeping:
    def test_singular_distance(self):
        assert singular_distance(0, -0.5) == float("inf")
        assert singular_distance(1, -0.5) == 0.0
        assert abs(singular_distance(2, -1.3) - 0.2) < 1e-14
        # the pole set grows with |m|: t = -5/2 is singular for m=3 only
        assert singular_distance(2, -2.5) >= 1.0
        assert singular_distance(3, -2.5) == 0.0

    def test_singular_distance_over_an_array(self):
        ts = np.array([-2.5, -1.3, 0.4 + 0.3j])
        got = singular_distance(2, ts)
        assert got.shape == (3,)
        assert got[0] == 1.0 and abs(got[1] - 0.2) < 1e-14 and abs(got[2] - abs(0.9 + 0.3j)) < 1e-14
        assert np.all(singular_distance(0, ts) == np.inf)
