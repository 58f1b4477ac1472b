"""Tests for the dual pair analyze / synthesize and the coefficient providers.

The degree-one check is exact by hand: the table {(1, 0): 1} must
synthesize to 3 cos(theta), since the zonal kernel mode at degree 1 is
cos(theta), the reflected evaluation multiplies by b_0 = 1, and the
degree weight is 3.
"""

import numpy as np
import pytest

from crown_harmonics.errors import (
    CrownDomainError,
    GridResolutionError,
    ProviderError,
    SchemaError,
)
from crown_harmonics.intertwining import intertwiner_rational
from crown_harmonics.numerics import legendre_p
from crown_harmonics.paley_wiener import _disc_points
from crown_harmonics.sphere import GridFunction, SphereGrid, support_radius
from crown_harmonics.testbed import (
    BumpSpec,
    bridge_factor_candidate,
    make_bump,
    random_bandlimited,
    random_table,
)
from crown_harmonics.transform import (
    CoefficientTable,
    ExtendProvider,
    TableProvider,
    analyze,
    extend,
    lm_grid,
    synthesize,
)
from crown_harmonics.serialization import dumps_table, loads_table
from oracles import FakeProvider, extend_reference, quadrature_analyze, table


def grid_cos_theta(grid, scale=3.0):
    vals = scale * np.cos(grid.theta)[:, None] * np.ones(grid.n_phi)[None, :]
    return GridFunction(grid, vals.astype(complex))


class TestCoefficientTable:
    def test_validation(self):
        for shape in ((0, 0), (0, 1), (3, 4), (3,), (2, 3, 1)):
            with pytest.raises(SchemaError):
                CoefficientTable(np.zeros(shape))
        assert CoefficientTable(np.zeros((3, 5))).lmax == 2

    def test_accessors(self):
        t = table(3, {(2, 1): 2j, (0, 0): 1.0, (3, -2): -0.5})
        assert t.values.shape == (4, 7)
        assert t.values[2, 1 + 3] == 2j
        assert t.get(2, 1) == 2j
        assert t.get(1, 0) == 0.0
        # outside the stored range: 0, which TableProvider relies on
        assert t.get(4, 0) == 0.0 and t.get(2, 4) == 0.0 and t.get(-1, 0) == 0.0
        assert t.ktypes() == frozenset({1, 0, -2})

    def test_ktypes_are_nonzero_columns(self):
        # an explicit zero is no K-type, as after a JSON round trip
        t = table(2, {(1, 1): 0.0, (2, -1): 1e-300j})
        assert t.ktypes() == frozenset({-1})
        assert loads_table(dumps_table(t)).ktypes() == t.ktypes()


class TestExactDegreeOne:
    def test_synthesize_zonal_degree_one(self):
        grid = SphereGrid(24, 8)
        f = synthesize(TableProvider(table(1, {(1, 0): 1.0})), grid, 1)
        expect = grid_cos_theta(grid).values
        assert np.max(np.abs(f.values - expect)) < 1e-13


class TestAnalyzeSynthesize:
    def test_round_trip_random_band_limited(self):
        grid = SphereGrid(40, 20)
        f, t = random_bandlimited(grid, lmax=6, mmax=3, seed=11)
        recovered = analyze(f, 6)
        assert np.max(np.abs(recovered.values - t.values)) < 1e-10 * np.max(np.abs(t.values))

    def test_matches_double_quadrature_for_all_orders(self):
        # full-order band-limited data and an off-pole bump, which
        # carries every order; the reference leaves roundoff where l < |m|.
        # Every coefficient is bounded by max |f|, the scale of both
        # routes' roundoff
        grid = SphereGrid(24, 40)
        inputs = [random_bandlimited(grid, lmax=16, mmax=16, seed=5)[0],
                  make_bump(BumpSpec(0.9, center=(0.6, 1.0)), grid)]
        for f in inputs:
            for lmax in (0, 1, 5, 16):
                got = analyze(f, lmax).values
                expect = quadrature_analyze(f, lmax).values
                assert np.max(np.abs(got - expect)) < 1e-15 * np.max(np.abs(f.values))
                ls, ms = lm_grid(lmax)
                assert np.all(got[ls < np.abs(ms)] == 0.0)

    def test_full_order_round_trip_is_exact_per_entry(self):
        # unit-norm-basis data rho * a: every entry, corner |m| = l
        # included, comes back to roundoff relative to itself
        lmax = 40
        rho = np.array([[bridge_factor_candidate(l, m) if abs(m) <= l else 0.0
                         for m in range(-lmax, lmax + 1)] for l in range(lmax + 1)])
        full = rho != 0.0
        t = CoefficientTable(rho * random_table(lmax, lmax, seed=2).values)
        f = synthesize(TableProvider(t), SphereGrid(lmax + 2, 2 * lmax + 2), lmax)
        back = analyze(f, lmax).values
        assert np.max(np.abs(back[full] - t.values[full]) / np.abs(t.values[full])) < 1e-11

    def test_zonal_roundoff_is_not_amplified(self):
        # a zonal bump's m != 0 entries are roundoff; they scale with
        # their own kernel modes, so synthesis does not blow them up
        lmax = 64
        grid = SphereGrid(lmax + 2, 2 * lmax + 2)
        t = analyze(make_bump(BumpSpec(1.2), grid), lmax)
        again = analyze(synthesize(TableProvider(t), grid, lmax), lmax)
        assert np.max(np.abs(again.values - t.values)) < 1e-14

    def test_rotation_equivariance(self):
        grid = SphereGrid(40, 20)
        f, _ = random_bandlimited(grid, lmax=5, mmax=3, seed=3)
        steps = 4
        c = 2.0 * np.pi * steps / grid.n_phi
        before = analyze(f, 5)
        # f(theta, phi - c): an exact shift by whole azimuthal grid steps
        rotated = GridFunction(grid, np.roll(f.values, steps, axis=1))
        after = analyze(rotated, 5)
        _, ms = lm_grid(5)
        worst = np.max(np.abs(after.values - np.exp(-1j * ms * c) * before.values))
        assert worst < 1e-10 * np.max(np.abs(before.values))

    def test_refinement_invariance(self):
        # analyze must be stable under doubling the colatitude grid
        lmax = 8
        for radius in (0.6, 1.0):
            bump = make_bump(BumpSpec(radius=radius), SphereGrid(384, 24))
            fine = make_bump(BumpSpec(radius=radius), SphereGrid(768, 24))
            a = analyze(bump, lmax)
            b = analyze(fine, lmax)
            ls, ms = lm_grid(lmax)
            assert np.max(np.abs(a.values - b.values)[ls >= np.abs(ms)]) < 1e-10

    def test_synthesize_rejects_unresolved_ktype(self):
        grid = SphereGrid(12, 6)
        with pytest.raises(GridResolutionError):
            synthesize(TableProvider(table(4, {(4, 3): 1.0})), grid, 4)

    def test_synthesize_rejects_boundary_aliasing(self):
        # mode m of Q^l aliases on the 512-sample boundary grid once
        # l + |m| >= 512; the guard fires before any provider evaluation
        grid = SphereGrid(4, 8)
        with pytest.raises(GridResolutionError):
            synthesize(TableProvider(table(512, {(0, 0): 1.0})), grid, 512)
        with pytest.raises(GridResolutionError):
            synthesize(TableProvider(table(509, {(509, 3): 1.0})), grid, 509)
        # l + |m| = 511 is the largest alias-free pair
        t = table(508, {(508, 3): 1.0})
        assert np.all(np.isfinite(synthesize(TableProvider(t), grid, 508).values))


class TestZonalTransform:
    def test_agrees_with_analyze(self):
        # the zonal column of analyze against the classical Legendre
        # projection by the three-term recurrence, a route that shares
        # no inner loop with the kernel powers
        grid = SphereGrid(64, 24)
        bump = make_bump(BumpSpec(radius=0.9), grid)
        row_mean = bump.values.mean(axis=1)
        u = np.cos(grid.theta)
        coeffs = np.array([np.sum(grid.theta_weights * row_mean * legendre_p(l, u))
                           for l in range(11)])
        zonal = analyze(bump, 10).values[:, 10]
        worst = np.max(np.abs(coeffs - zonal))
        assert worst < 1e-12 * max(np.max(np.abs(coeffs)), 1e-300)


class TestExtend:
    def test_matches_analyze_on_integers(self):
        grid = SphereGrid(96, 16)
        bump = make_bump(BumpSpec(radius=0.7, ktype=1), grid)
        t = analyze(bump, 6)
        worst = max(abs(extend(bump, float(l), 1) - t.get(l, 1)) for l in range(1, 7))
        assert worst < 1e-12 * np.max(np.abs(t.values))

    def test_full_sphere_support_rejected(self):
        grid = SphereGrid(24, 8)
        f = GridFunction(grid, np.ones((24, 8), dtype=complex))
        with pytest.raises(CrownDomainError):
            extend(f, 2.0, 0)

    def test_zero_function_extends_to_zero(self):
        grid = SphereGrid(24, 8)
        f = GridFunction(grid, np.zeros((24, 8), dtype=complex))
        assert extend(f, 1.5 + 0.5j, 0) == 0.0


class TestProviders:
    def test_extend_provider_ktype_detection(self):
        grid = SphereGrid(96, 12)
        bump = make_bump(BumpSpec(radius=0.6, ktype=2), grid)
        provider = ExtendProvider(bump)
        assert provider.ktypes == frozenset({2})
        assert provider.eval(3.0, 0) == 0.0
        assert provider.eval(3.0, 2) != 0.0

    def test_amp_policy_reflection_is_exact_for_zonal(self):
        # at extreme degree the provider must route through the
        # functional equation; for m = 0 the scalar is exactly 1, so
        # eval(-97, 0) and eval(96, 0) are the same number
        grid = SphereGrid(96, 8)
        bump = make_bump(BumpSpec(radius=0.8), grid)
        provider = ExtendProvider(bump)
        assert provider.eval(-97.0, 0) == provider.eval(96.0, 0)

    def test_extend_provider_rejects_nyquist_ktype(self):
        # an off-pole bump on an even azimuthal grid carries the Nyquist
        # mode m = n_phi / 2: construction refuses it and names the grid
        grid = SphereGrid(144, 16)
        with pytest.raises(GridResolutionError, match="grid 144x16 .* m=8"):
            ExtendProvider(make_bump(BumpSpec(0.3, center=(0.35, 0.0)), grid))
        zonal = make_bump(BumpSpec(0.3), grid)
        with pytest.raises(GridResolutionError, match="m=-8"):
            ExtendProvider(zonal, ktypes=(0, -8))
        with pytest.raises(GridResolutionError):
            extend(GridFunction(grid, np.zeros((144, 16), dtype=complex)), 1.0, 9)
        assert ExtendProvider(zonal, ktypes=(0, 7)).ktypes == frozenset({0, 7})

    def test_table_provider_reflection(self):
        provider = TableProvider(table(2, {(1, 1): 0.25j, (1, -1): 2.0}))
        # phi(-2) = b_1(-3/2) phi(1) = -2 phi(1)
        assert abs(provider.eval(-2.0, 1) - (-0.5j)) < 1e-15
        assert abs(provider.eval(-2.0, -1) - (-4.0)) < 1e-15

    def test_table_provider_rejects_non_integers(self):
        provider = TableProvider(table(1, {(1, 0): 1.0}))
        with pytest.raises(ProviderError):
            provider.eval(0.5, 0)
        with pytest.raises(ProviderError):
            provider.eval(1.0 + 0.3j, 0)

    def test_table_provider_out_of_range(self):
        provider = TableProvider(table(1, {(1, 0): 1.0}))
        with pytest.raises(ProviderError):
            provider.eval(-3.0, 0)


def certify_class(name, r, grid):
    """The four bump classes of the certify benchmark at radius r."""
    if name == "two-type":
        inner = make_bump(BumpSpec(0.6 * r), grid)
        outer = make_bump(BumpSpec(r, ktype=2), grid)
        return GridFunction(grid, inner.values + outer.values)
    spec = {"smooth-zonal": BumpSpec(r), "smooth-ktype1": BumpSpec(r, ktype=1),
            "cospow-p8": BumpSpec(r, "cospow", p=8)}[name]
    return make_bump(spec, grid)


CERTIFY_CLASSES = ("smooth-zonal", "smooth-ktype1", "two-type", "cospow-p8")


class TestBatchedProviders:
    @pytest.mark.parametrize("name", CERTIFY_CLASSES)
    def test_extend_matches_full_boundary_route(self, name):
        # the half-boundary cosine rule against the 512-point FFT route on
        # the tempered line, the disc and the reflected integers, within
        # 10x the roundoff floor eps e^{log amp} sum |w f_m|; on the line,
        # where the type is fitted, with the same per-K-type rows, the
        # values agree to roundoff relative to themselves
        grid = SphereGrid(144, 8)
        line = -0.5 + 1j * np.linspace(0.5, 80.0, 8)
        ells = np.concatenate([line, _disc_points(20.0, 16, 32)[::19],
                               -np.arange(0, 129, 16) - 1.0])
        for r in (0.35, 0.7, 1.0):
            f = certify_class(name, r, grid)
            provider = ExtendProvider(f)
            values = provider.eval_many(ells)
            for j, m in enumerate(sorted(provider.ktypes)):
                ref, floor = extend_reference(f, ells, m)
                assert np.all(np.abs(values[:, j] - ref) <= 10.0 * floor), (r, m)
                ref, _ = extend_reference(f, line, m, own_rows=True)
                assert np.all(np.abs(values[:line.size, j] - ref) <= 1e-14 * np.abs(ref)), (r, m)

    def test_eval_is_one_entry_of_eval_many(self):
        grid = SphereGrid(144, 8)
        extend_provider = ExtendProvider(certify_class("two-type", 0.8, grid))
        ells = [-0.5 + 7.0j, 3.0, -97.0, 2.5 - 11.0j, -40.0 + 3.0j]
        table_provider = TableProvider(random_table(6, 6, seed=3))
        for provider, points in ((extend_provider, ells), (table_provider, [4.0, -5.0, -1.0])):
            ms = sorted(provider.ktypes)
            batch = provider.eval_many(points)
            assert batch.shape == (len(points), len(ms))
            for i, ell in enumerate(points):
                one = provider.eval_many([ell])
                assert np.array_equal(one[0], batch[i])
                for j, m in enumerate(ms):
                    assert provider.eval(ell, m) == one[0, j]
            assert provider.eval(points[0], max(ms) + 1) == 0.0

    def test_table_eval_many_matches_the_closed_form_scalar(self):
        lmax = 64
        t = random_table(lmax, lmax, seed=5)
        provider = TableProvider(t)
        ns = np.arange(lmax + 1)
        values = provider.eval_many(np.concatenate([ns, -ns - 1.0]))
        direct, reflected = values[:lmax + 1], values[lmax + 1:]
        assert np.array_equal(direct, t.values)
        for n in ns:
            for m in range(-lmax, lmax + 1):
                got = reflected[n, m + lmax]
                if abs(m) > n:
                    assert got == 0.0
                else:
                    want = intertwiner_rational(m, -n - 0.5) * t.get(n, m)
                    assert abs(got - want) <= 1e-14 * abs(want), (n, m)

    def test_table_eval_many_checks_the_whole_batch_first(self):
        provider = TableProvider(table(1, {(1, 0): 1.0}))
        with pytest.raises(ProviderError, match="integers and reflected integers, got ell"):
            provider.eval_many([1.0, 0.5])
        with pytest.raises(ProviderError, match="table lmax=1 cannot reach ell=-3"):
            provider.eval_many([1.0, -3.0])

    def test_empty_ktype_set_gives_no_columns(self):
        grid = SphereGrid(24, 8)
        providers = (FakeProvider(lambda ell, m: 1.0, ktypes=()),
                     ExtendProvider(make_bump(BumpSpec(0.5), grid), ktypes=()),
                     ExtendProvider(GridFunction(grid, np.zeros((24, 8), dtype=complex))),
                     TableProvider(table(2, {})))
        for provider in providers:
            assert provider.eval_many([1.0, -2.0, 0.5j]).shape == (3, 0)

    def test_base_eval_many_names_the_failing_parameter(self):
        def fn(ell, m):
            if m == 1 and ell.imag > 0:
                raise ZeroDivisionError("division by zero")
            return ell
        provider = FakeProvider(fn, ktypes=(1, 0))
        assert np.array_equal(provider.eval_many([2.0, -1.0]),
                              [[2.0, 2.0], [-1.0, -1.0]])
        with pytest.raises(ProviderError, match=r"ell=2\+1j, m=1") as info:
            provider.eval_many([2.0, 2.0 + 1.0j])
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert (info.value.ell, info.value.m) == (2.0 + 1.0j, 1)

    def test_reflection_pole_keeps_the_direct_value(self):
        # at ell = -19 the direct power of the wide cap spreads past
        # e^27.6, so the reflection route is chosen, but b_19 has a pole
        # there; the K-type 19 entry is the direct value, and the batch
        # that synthesize asks for (from l = 0, for the zonal type) is
        # finite
        grid = SphereGrid(96, 40)
        wide = make_bump(BumpSpec(1.4, ktype=19), grid)
        f = GridFunction(grid, wide.values + make_bump(BumpSpec(0.5), grid).values)
        provider = ExtendProvider(f)
        assert provider.ktypes == frozenset({0, 19})
        # the largest |Q^-19| sits at the last row, c = pi/2, where |Q| = cos(theta)
        assert -19.0 * np.log(np.cos(support_radius(f))) > np.log(1e12)
        ref, floor = extend_reference(f, [-19.0], 19)
        got = provider.eval(-19.0, 19)
        assert np.isfinite(got) and abs(got - ref[0]) <= 10.0 * floor[0]
        assert np.all(np.isfinite(synthesize(provider, grid, 30).values))

    def test_reflection_pole_computes_the_direct_values_once(self):
        # two K-types with a pole of the reflection scalar at ell = -19
        # share one direct evaluation, next to the one reflected one
        grid = SphereGrid(96, 48)
        f = GridFunction(grid, sum(make_bump(BumpSpec(1.4, ktype=m), grid).values
                                   for m in (19, 20)))
        provider = ExtendProvider(f)
        assert provider.ktypes == frozenset({19, 20})
        powers = []
        values = provider._values
        provider._values = lambda power: powers.append(power) or values(power)
        got = provider.eval_many([-19.0])
        assert powers == [18.0, -19.0]
        for j, m in enumerate((19, 20)):
            ref, floor = extend_reference(f, [-19.0], m)
            assert abs(got[0, j] - ref[0]) <= 10.0 * floor[0]


class TestSynthesizeProviderErrors:
    @staticmethod
    def raising(exc):
        def fn(ell, m):
            raise exc
        return FakeProvider(fn, ktypes=(0,))

    def test_library_and_arithmetic_errors_become_provider_errors(self):
        grid = SphereGrid(8, 8)
        for exc in (ZeroDivisionError("division by zero"), SchemaError("bad table")):
            with pytest.raises(ProviderError, match="ell=-1, m=0") as info:
                synthesize(self.raising(exc), grid, 2)
            assert info.value.__cause__ is exc

    def test_other_exceptions_propagate(self):
        with pytest.raises(TypeError, match="not a coefficient"):
            synthesize(self.raising(TypeError("not a coefficient")), SphereGrid(8, 8), 2)
