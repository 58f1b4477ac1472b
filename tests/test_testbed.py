"""Tests for the bump factory, classical-harmonic oracle, and bridge.

The closed-form bump derivatives are checked against Richardson
extrapolation of central differences, the classical transform oracle is
pinned on explicit low-degree harmonics, and the analytic bridge factor
is validated against the factors measured from random functions.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from crown_harmonics import testbed
from crown_harmonics.errors import SchemaError
from crown_harmonics.numerics import assoc_legendre
from crown_harmonics.sphere import GridFunction, SphereGrid
from crown_harmonics.transform import analyze
from crown_harmonics.testbed import (
    BumpSpec,
    bridge_factor_candidate,
    bridge_factors,
    make_bump,
    oracle_sht,
    random_bandlimited,
    random_table,
)
from oracles import sphere_integral


def spherical_harmonic(grid, l, m):
    """Orthonormal harmonic under the normalized measure, no phase factor.

    Y_l^m = sqrt((2l+1)(l-|m|)!/(l+|m|)!) P_l^{|m|}(cos theta) e^{i m phi}
    """
    k = abs(m)
    norm = math.sqrt((2 * l + 1) * math.factorial(l - k) / math.factorial(l + k))
    radial = norm * assoc_legendre(l, k, np.cos(grid.theta))[l]
    return GridFunction(grid, np.outer(radial, np.exp(1j * m * grid.phi_nodes)))


def richardson_d1(fn, x, h=1e-3):
    d = lambda hh: (fn(x + hh) - fn(x - hh)) / (2.0 * hh)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


class TestBumpSpecValidation:
    def test_radius_range(self):
        with pytest.raises(SchemaError):
            BumpSpec(radius=0.0)
        with pytest.raises(SchemaError):
            BumpSpec(radius=1.6)

    def test_cospow_exponent(self):
        with pytest.raises(SchemaError):
            BumpSpec(radius=0.5, profile="cospow", p=4)
        BumpSpec(radius=0.5, profile="cospow", p=8)

    def test_unknown_profile(self):
        with pytest.raises(SchemaError):
            BumpSpec(radius=0.5, profile="triangle")


class TestBumpDerivatives:
    @pytest.mark.parametrize("spec", [
        BumpSpec(radius=0.7),
        BumpSpec(radius=0.7, profile="cospow", p=8),
        BumpSpec(radius=1.1, profile="cospow", p=12),
    ])
    def test_g1_g2_match_finite_differences(self, spec):
        bump = make_bump(spec, SphereGrid(16, 8))
        xs = np.linspace(0.05, spec.radius - 0.05, 9)
        for x in xs:
            d1 = richardson_d1(bump.g, x)
            d2 = richardson_d1(bump.g1, x)
            # truncation dominates near the steep support edge, so
            # the tolerance is loose; coefficient errors would be O(1)
            assert abs(bump.g1(x) - d1) < 1e-6 * max(abs(d1), 1.0)
            assert abs(bump.g2(x) - d2) < 1e-6 * max(abs(d2), 1.0)

    def test_profile_d1_matches_finite_differences(self):
        bump = make_bump(BumpSpec(radius=0.8, ktype=2), SphereGrid(16, 8))
        for x in (0.2, 0.45, 0.7):
            d1 = richardson_d1(bump.profile, x)
            assert abs(bump.profile_d1(x) - d1) < 1e-6 * max(abs(d1), 1.0)


class TestBumpSampling:
    def test_exact_zero_outside_support(self):
        grid = SphereGrid(64, 8)
        bump = make_bump(BumpSpec(radius=0.6), grid)
        outside = grid.theta > 0.6
        assert outside.any()
        assert np.max(np.abs(bump.values[outside])) == 0.0

    def test_values_factor_as_profile_times_phase(self):
        grid = SphereGrid(24, 12)
        bump = make_bump(BumpSpec(radius=0.9, ktype=2), grid)
        expect = np.outer(bump.profile(grid.theta),
                          np.exp(2j * grid.phi_nodes))
        assert np.max(np.abs(bump.values - expect)) == 0.0

    def test_ktype_profile_vanishes_at_pole_like_sin(self):
        bump = make_bump(BumpSpec(radius=0.9, ktype=1), SphereGrid(24, 12))
        th = np.array([1e-4, 2e-4])
        vals = bump.profile(th)
        assert abs(vals[1] / vals[0] - 2.0) < 1e-3


class TestRandomTables:
    def test_deterministic_and_triangular(self):
        a = random_table(6, 3, seed=42)
        b = random_table(6, 3, seed=42)
        assert np.array_equal(a.values, b.values)
        ls, ms = np.nonzero(a.values)
        assert ls.size == sum(2 * min(l, 3) + 1 for l in range(7))
        assert np.all(np.abs(ms - 6) <= np.minimum(ls, 3))
        assert a.values[1, 3 + a.lmax] == 0.0

    def test_draw_order_is_l_then_m_then_re_im(self):
        # the dense draw keeps the stream of one scalar draw per part
        rng = np.random.default_rng(5)
        expect = {}
        for l in range(5):
            for m in range(-min(2, l), min(2, l) + 1):
                expect[(l, m)] = complex(rng.standard_normal(), rng.standard_normal())
        got = random_table(4, 2, seed=5)
        assert all(got.values[l, m + got.lmax] == v for (l, m), v in expect.items())
        assert np.count_nonzero(got.values) == len(expect)

    def test_mmax_bound(self):
        with pytest.raises(SchemaError):
            random_table(2, 5)


class TestClassicalOracle:
    def test_unit_norm(self):
        grid = SphereGrid(48, 24)
        for l, m in ((0, 0), (3, 0), (4, 2), (5, -4)):
            y = spherical_harmonic(grid, l, m)
            norm = sphere_integral(GridFunction(grid, np.abs(y.values) ** 2))
            assert abs(norm - 1.0) < 1e-12

    def test_degree_one_zonal_is_sqrt3_cos(self):
        grid = SphereGrid(24, 8)
        y = spherical_harmonic(grid, 1, 0)
        expect = math.sqrt(3.0) * np.cos(grid.theta)
        assert np.max(np.abs(y.values - expect[:, None])) < 1e-14

    def test_oracle_projects_harmonics_to_deltas(self):
        grid = SphereGrid(48, 24)
        for l0, m0 in ((1, 0), (2, 1), (4, -3)):
            values = oracle_sht(spherical_harmonic(grid, l0, m0), 5).values.copy()
            values[l0, m0 + 5] -= 1.0
            assert np.max(np.abs(values)) < 1e-12

    def test_one_legendre_column_per_order(self, monkeypatch):
        calls = []

        def spy(lmax, m, x):
            calls.append((lmax, m))
            return assoc_legendre(lmax, m, x)

        monkeypatch.setattr(testbed, "assoc_legendre", spy)
        f, _ = random_bandlimited(SphereGrid(24, 40), 16, 16, seed=4)
        oracle_sht(f, 16)
        assert sorted(calls) == [(16, m) for m in range(17)]
        # a list of functions shares the columns of one call
        calls.clear()
        oracle_sht([f, f, f], 16)
        assert sorted(calls) == [(16, m) for m in range(17)]

    def test_list_of_functions_equals_the_single_calls_bit_for_bit(self):
        grid = SphereGrid(24, 40)
        fs = [random_bandlimited(grid, 16, 16, seed)[0] for seed in (101, 202, 11)]
        tables = oracle_sht(fs, 16)
        assert isinstance(tables, list) and len(tables) == 3
        for f, table in zip(fs, tables):
            assert table.values.tobytes() == oracle_sht(f, 16).values.tobytes()
        assert oracle_sht(fs[:1], 16)[0].values.tobytes() == tables[0].values.tobytes()

    def test_functions_on_two_grids_are_a_schema_error(self):
        f, _ = random_bandlimited(SphereGrid(24, 40), 8, 8, seed=1)
        g, _ = random_bandlimited(SphereGrid(24, 36), 8, 8, seed=1)
        with pytest.raises(SchemaError):
            oracle_sht([f, g], 8)
        with pytest.raises(SchemaError):
            oracle_sht([], 8)

    def test_oracle_names_no_kernel_route(self):
        # the classical-bridge check compares two disjoint routes: the
        # oracle's own code names nothing of the kernel transform
        tree = ast.parse(Path(testbed.__file__).read_text(encoding="utf-8"))
        oracle = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "oracle_sht")
        names = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
        forbidden = {"analyze", "kernel_mode_sweep", "kernel_mode_profiles",
                     "boundary_log_pairing", "fft"}
        assert names and not names & forbidden


class TestBridge:
    def test_candidate_low_degree_values(self):
        assert abs(bridge_factor_candidate(0, 0) - 1.0) < 1e-15
        assert abs(bridge_factor_candidate(1, 0) - 1.0 / math.sqrt(3.0)) < 1e-15
        # rho_{1,1} = i / sqrt(3 * 2) = i / sqrt(6)
        assert abs(bridge_factor_candidate(1, 1) - 1j / math.sqrt(6.0)) < 1e-15

    def test_candidate_matches_extended_precision(self):
        # rho = i^|m| l! / sqrt((2l+1)(l+|m|)!(l-|m|)!) from lgamma holds
        # every entry 0 <= |m| <= l <= 128 to 1e-12 relative of 40 digits
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for l in range(129):
                for k in range(l + 1):
                    exact = mpmath.factorial(l) / mpmath.sqrt(
                        (2 * l + 1) * mpmath.factorial(l + k) * mpmath.factorial(l - k))
                    exact *= mpmath.mpc(0, 1) ** k
                    for m in (k, -k):
                        err = abs(bridge_factor_candidate(l, m) - exact) / abs(exact)
                        worst = max(worst, float(err))
        assert worst < 1e-12

    def test_candidate_over_arrays_is_the_scalar_form_bit_for_bit(self):
        # every 0 <= |m| <= l <= 128 in one call, and a broadcast (l, m)
        # pair of shapes, each entry the scalar form's bits
        ls, ms = np.nonzero(np.abs(np.arange(-128, 129)) <= np.arange(129)[:, None])
        ms = ms - 128
        got = bridge_factor_candidate(ls, ms)
        expect = np.array([bridge_factor_candidate(l, m) for l, m in zip(ls.tolist(), ms.tolist())])
        assert got.shape == ls.shape and got.dtype == complex
        assert got.tobytes() == expect.tobytes()
        table = bridge_factor_candidate(np.arange(4, 9)[:, None], np.arange(-4, 5))
        assert table.shape == (5, 9)
        assert table[2, 1].tobytes() == np.complex128(bridge_factor_candidate(6, -3)).tobytes()

    def test_measured_factors_match_candidate(self):
        # the full-table measurement resolves every entry with l >= |m| and
        # matches the closed form on each, orders -4..4
        f, _ = random_bandlimited(SphereGrid(24, 40), lmax=8, mmax=4, seed=3)
        ratios, resolved = bridge_factors(analyze(f, 8).values, oracle_sht(f, 8).values)
        ls, ms = np.nonzero(resolved)
        ms = ms - 8
        assert resolved.sum() == sum(2 * min(l, 4) + 1 for l in range(9))
        assert np.all(np.isnan(ratios[~resolved]))
        for l, m, rho in zip(ls, ms, ratios[resolved]):
            expect = bridge_factor_candidate(l, m)
            assert abs(rho - expect) < 1e-9 * abs(expect), (l, m)

    def test_factors_need_two_tables_of_one_shape(self):
        with pytest.raises(SchemaError):
            bridge_factors(np.ones((3, 5)), np.ones((4, 7)))

    def test_random_bandlimited_consistency(self):
        grid = SphereGrid(32, 20)
        f, table = random_bandlimited(grid, lmax=4, mmax=2, seed=9)
        classical = oracle_sht(f, 4)
        # kernel-route coefficients convert to classical ones through
        # the bridge factor, degree by degree
        rho = np.array([[bridge_factor_candidate(l, m) if abs(m) <= l else 0.0
                         for m in range(-4, 5)] for l in range(5)])
        worst = np.max(np.abs(classical.values * rho - table.values))
        assert worst < 1e-10 * np.max(np.abs(table.values))
