"""Tests for the dual pair analyze / synthesize and the coefficient providers.

The degree-one check is exact by hand: the table {(1, 0): 1} must
synthesize to 3 cos(theta), since the zonal kernel mode at degree 1 is
cos(theta), the reflection scalar b_0 is 1, and the degree weight is 3.
"""

import math
import tracemalloc

import numpy as np
import pytest

from crown_harmonics.errors import (
    CrownDomainError,
    GridResolutionError,
    NumericalError,
    ProviderError,
    SchemaError,
)
from crown_harmonics.intertwining import intertwiner_ladder, intertwiner_rational
from crown_harmonics.numerics import assoc_legendre
from crown_harmonics.paley_wiener import _disc_rays
from crown_harmonics.sphere import GridFunction, SphereGrid, support_radius
from crown_harmonics.testbed import (
    BumpSpec,
    bridge_factor_candidate,
    lm_grid,
    make_bump,
    random_bandlimited,
    random_table,
)
from crown_harmonics.transform import (
    _LOG_AMP_ADVANTAGE_MIN,
    _LOG_AMP_DIRECT_MAX,
    CoefficientProvider,
    CoefficientTable,
    ExtendProvider,
    TableProvider,
    analyze,
    extend,
    ray_points,
    synthesize,
)
from crown_harmonics.serialization import dumps_table, loads_table
from oracles import (
    CERTIFY_CLASSES,
    FakeProvider,
    certify_class,
    extend_reference,
    per_order_analyze,
    per_order_synthesize,
    quadrature_analyze,
    table,
)


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
        assert t.values[2, 1 + t.lmax] == 2j
        assert t.values[1, t.lmax] == 0.0
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

    def test_synthesize_ktype_one_degree_one(self):
        # the term phi(-2, 1) = b_1(-3/2) phi(1, 1) = -2 phi(1, 1), times
        # the degree weight 3 and the kernel mode G_1(1) = (i/2) sin(theta)
        grid = SphereGrid(24, 8)
        f = synthesize(TableProvider(table(1, {(1, 1): 1.0})), grid, 1)
        expect = -3j * np.sin(grid.theta)[:, None] * np.exp(1j * grid.phi_nodes)
        assert np.max(np.abs(f.values - expect)) < 1e-13


class TestAnalyzeSynthesize:
    def test_round_trip_random_band_limited(self):
        grid = SphereGrid(40, 20)
        f, t = random_bandlimited(grid, lmax=6, mmax=3, seed=11)
        recovered = analyze(f, 6)
        assert np.max(np.abs(recovered.values - t.values)) < 1e-10 * np.max(np.abs(t.values))

    def test_matches_double_quadrature_for_all_orders(self):
        # full-order band-limited data and exp(sin(theta) cos(phi - 1)),
        # smooth and carrying every order; the reference leaves roundoff
        # where l < |m|. Every coefficient is bounded by max |f|, the scale
        # of both routes' roundoff
        grid = SphereGrid(24, 40)
        smooth = np.exp(np.outer(np.sin(grid.theta), np.cos(grid.phi_nodes - 1.0)))
        inputs = [random_bandlimited(grid, lmax=16, mmax=16, seed=5)[0],
                  GridFunction(grid, smooth)]
        for f in inputs:
            for lmax in (0, 1, 5, 16):
                got = analyze(f, lmax).values
                expect = quadrature_analyze(f, lmax).values
                assert np.max(np.abs(got - expect)) < 1e-15 * np.max(np.abs(f.values))
                ls, ms = lm_grid(lmax)
                assert np.all(got[ls < np.abs(ms)] == 0.0)

    @pytest.mark.parametrize("lmax", [32, 64, 128])
    def test_matches_the_per_order_transforms(self, lmax):
        # the degree sweep changes only the order of the contraction
        # sums. Unit-norm-basis data rho * a puts every K-type at O(1) on
        # the grid, so the grid norm sees each profile; analyze is
        # compared column by column
        ls, ms = lm_grid(lmax)
        k = np.abs(ms)
        log_rho = (np.vectorize(math.lgamma)(ls + 1.0) - 0.5 * np.vectorize(math.lgamma)(
            ls + k + 1.0) - 0.5 * np.vectorize(math.lgamma)(np.abs(ls - k) + 1.0))
        rho = np.where(k <= ls, np.exp(log_rho) / np.sqrt(2 * ls + 1.0), 0.0)
        provider = TableProvider(CoefficientTable(rho * random_table(lmax, lmax, seed=lmax).values))
        grid = SphereGrid(lmax + 2, 2 * lmax + 2)
        got = synthesize(provider, grid, lmax).values
        expect = per_order_synthesize(provider, grid, lmax)
        assert np.max(np.abs(got - expect)) < 1e-14 * np.max(np.abs(expect))
        f = GridFunction(grid, expect)
        got, expect = analyze(f, lmax).values, per_order_analyze(f, lmax).values
        assert np.all(np.max(np.abs(got - expect), axis=0) < 1e-14 * np.max(np.abs(expect), axis=0))
        assert np.all(got[ls < k] == 0.0)

    def test_synthesize_reads_no_value_below_the_order(self):
        # terms with l < |m| vanish; a provider that is nan there must not
        # reach the grid, and the sum matches the per-K-type reference
        def fn(ell, m):
            l = round(ell.real)
            return math.nan if l < abs(m) else (1.0 + 0.25j * m) / (1.0 + l) ** 2

        lmax = 24
        provider = FakeProvider(fn, ktypes=(0, 3, -5))
        grid = SphereGrid(lmax + 2, 2 * lmax + 2)
        got = synthesize(provider, grid, lmax).values
        expect = per_order_synthesize(provider, grid, lmax)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expect)) < 1e-14 * np.max(np.abs(expect))

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
        # l + |m| >= 512. A table never touches that grid, so it
        # synthesizes past it; an ExtendProvider raises before any kernel
        # exponential
        grid = SphereGrid(4, 8)
        for t, lmax in ((table(512, {(0, 0): 1.0}), 512), (table(509, {(509, 3): 1.0}), 509),
                        (table(508, {(508, 3): 1.0}), 508)):
            assert np.all(np.isfinite(synthesize(TableProvider(t), grid, lmax).values))
        t = random_table(300, 300, seed=1)
        assert np.all(np.isfinite(synthesize(TableProvider(t), SphereGrid(302, 602), 300).values))
        provider = ExtendProvider(make_bump(BumpSpec(0.5, ktype=3), SphereGrid(48, 8)))
        # l + |m| = 511 is the largest alias-free pair
        assert np.all(np.isfinite(synthesize(provider, grid, 508).values))
        provider._kernel = None  # a kernel exponential would fail here
        with pytest.raises(GridResolutionError, match=r"l=509 with K-type \|m\|=3"):
            synthesize(provider, grid, 509)

    def test_synthesize_raises_past_the_double_range(self):
        # the one-entry table l = m = 511 is legal, but |b_511(-511.5)| ~ 4^511
        # overflows; the grid is reported as not finite instead of returned
        with pytest.raises(NumericalError, match="lmax=511"):
            synthesize(TableProvider(table(511, {(511, 511): 1.0})), SphereGrid(513, 1024), 511)


class TestZonalTransform:
    def test_agrees_with_analyze(self):
        # the zonal column of analyze against the classical Legendre
        # projection by the three-term recurrence, a route that shares
        # no inner loop with the kernel powers
        grid = SphereGrid(64, 24)
        bump = make_bump(BumpSpec(radius=0.9), grid)
        row_mean = bump.values.mean(axis=1)
        legendre = assoc_legendre(10, 0, np.cos(grid.theta))
        coeffs = np.sum(grid.theta_weights * row_mean * legendre, axis=1)
        zonal = analyze(bump, 10).values[:, 10]
        worst = np.max(np.abs(coeffs - zonal))
        assert worst < 1e-12 * max(np.max(np.abs(coeffs)), 1e-300)


class TestExtend:
    def test_matches_analyze_on_integers(self):
        grid = SphereGrid(96, 16)
        bump = make_bump(BumpSpec(radius=0.7, ktype=1), grid)
        t = analyze(bump, 6)
        worst = max(abs(extend(bump, float(l), 1) - t.values[l, 1 + t.lmax]) for l in range(1, 7))
        assert worst < 1e-12 * np.max(np.abs(t.values))

    def test_full_sphere_support_rejected(self):
        grid = SphereGrid(24, 8)
        f = GridFunction(grid, np.ones((24, 8), dtype=complex))
        with pytest.raises(CrownDomainError):
            extend(f, 2.0, 0)

    def test_aliased_integer_degree_raises(self):
        # mode m of Q^l aliases on the 512-sample boundary rule once
        # l + min(|m|, l) >= 512: the value would be wrong, so it raises
        f = make_bump(BumpSpec(0.6, ktype=1), SphereGrid(48, 8))
        assert np.isfinite(extend(f, 510.0, 1))
        with pytest.raises(GridResolutionError, match=r"l=511 with K-type \|m\|=1"):
            extend(f, 511.0, 1)

    def test_exact_zero_below_the_order(self):
        # at a nonnegative integer l < |m| the value is 0, as in analyze;
        # the boundary rule leaves roundoff of about 1e-19 there
        f = make_bump(BumpSpec(0.7, ktype=3), SphereGrid(96, 16))
        values = ExtendProvider(f).eval_rays(0.0, 1.0, 4)[:, 0]
        assert np.all(values[:3] == 0.0)
        assert abs(values[3]) > 1e-6
        assert all(extend(f, float(l), 3) == 0.0 for l in range(3))

    def test_exact_zero_where_the_rule_would_alias(self):
        # at (l, m) = (200, 400) the rule returns the alias of mode -112 of
        # Q^200; l + min(|m|, l) = 400 stays inside the guard, and the
        # exact value is 0
        grid = SphereGrid(24, 802)
        g = make_bump(BumpSpec(0.8), grid).values[:, :1]
        f = GridFunction(grid, g * np.exp(400j * grid.phi_nodes))
        provider = ExtendProvider(f, ktypes=(400,))
        assert np.all(provider.eval_rays([199.0, 200.0], 0.0, 1) == 0.0)
        assert extend(f, 200.0, 400) == 0.0

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
        # a cap profile times cos(8 phi) on an even azimuthal grid carries
        # the Nyquist mode m = n_phi / 2: construction refuses it and names
        # the grid
        grid = SphereGrid(144, 16)
        zonal = make_bump(BumpSpec(0.3), grid)
        nyquist = GridFunction(grid, zonal.values * np.cos(8.0 * grid.phi_nodes))
        with pytest.raises(GridResolutionError, match="grid 144x16 .* m=8"):
            ExtendProvider(nyquist)
        with pytest.raises(GridResolutionError, match="m=-8"):
            ExtendProvider(zonal, ktypes=(0, -8))
        with pytest.raises(GridResolutionError):
            extend(GridFunction(grid, np.zeros((144, 16), dtype=complex)), 1.0, 9)
        assert ExtendProvider(zonal, ktypes=(0, 7)).ktypes == frozenset({0, 7})

    @pytest.mark.parametrize("n_phi", [7, 15])
    def test_extend_provider_detects_every_order_of_an_odd_grid(self, n_phi):
        # an odd grid carries the orders -(n_phi-1)/2..(n_phi-1)/2, the
        # most negative one included; random cap data holds all of them
        grid = SphereGrid(40, n_phi)
        values = np.zeros((40, n_phi), dtype=complex)
        values[:12] = np.random.default_rng(n_phi).standard_normal((12, n_phi))
        half = (n_phi - 1) // 2
        assert ExtendProvider(GridFunction(grid, values)).ktypes == frozenset(range(-half, half + 1))

    def test_table_provider_gathers_at_nonnegative_integers(self):
        provider = TableProvider(table(2, {(1, 1): 0.25j, (1, -1): 2.0, (2, 1): -1.5}))
        assert provider.eval(1.0, 1) == 0.25j and provider.eval(1.0, -1) == 2.0
        assert provider.eval(2.0, 1) == -1.5 and provider.eval(0.0, 1) == 0.0
        # within 1e-9 of an integer is that integer
        assert provider.eval(2.0 + 1e-12 - 1e-12j, 1) == -1.5

    def test_table_provider_rejects_non_integers(self):
        provider = TableProvider(table(1, {(1, 0): 1.0}))
        for ell in (0.5, 1.0 + 0.3j, math.nan, math.inf):
            with pytest.raises(ProviderError):
                provider.eval(ell, 0)

    def test_table_provider_out_of_range(self):
        # past the table's lmax it reads 0; a negative degree is outside its reach
        provider = TableProvider(table(1, {(1, 0): 1.0}))
        assert provider.eval(2.0, 0) == 0.0 and provider.eval(600.0, 0) == 0.0
        for ell in (-1.0, -3.0):
            with pytest.raises(ProviderError, match="nonnegative integers"):
                provider.eval(ell, 0)


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
        ells = np.concatenate([line, ray_points(*_disc_rays(20.0, 16, 32), 17).T.ravel()[::19],
                               -np.arange(0, 129, 16) - 1.0])
        for r in (0.35, 0.7, 1.0):
            f = certify_class(name, r, grid)
            provider = ExtendProvider(f)
            values = provider.eval_rays(ells, 0.0, 1)
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
        for provider, points in ((extend_provider, ells), (table_provider, [4.0, 9.0, 0.0])):
            ms = sorted(provider.ktypes)
            batch = provider.eval_rays(points, 0.0, 1)
            assert batch.shape == (len(points), len(ms))
            for i, ell in enumerate(points):
                one = provider.eval_rays([ell], 0.0, 1)
                assert np.array_equal(one[0], batch[i])
                for j, m in enumerate(ms):
                    assert provider.eval(ell, m) == one[0, j]
            assert provider.eval(points[0], max(ms) + 1) == 0.0

    def test_table_eval_many_is_the_table(self):
        # the integer ray of synthesize reads the table's rows as stored,
        # and zero rows past its lmax
        lmax = 64
        t = random_table(lmax, lmax, seed=5)
        values = TableProvider(t).eval_rays(0.0, 1.0, lmax + 8)
        assert np.array_equal(values[:lmax + 1], t.values)
        assert not np.any(values[lmax + 1:])

    def test_table_eval_many_checks_the_whole_batch_first(self):
        provider = TableProvider(table(1, {(1, 0): 1.0}))
        with pytest.raises(ProviderError, match="nonnegative integers, got ell") as info:
            provider.eval_rays([1.0, 0.5, -3.0], 0.0, 1)
        assert info.value.ell == 0.5
        with pytest.raises(ProviderError, match="nonnegative integers, got ell") as info:
            provider.eval_rays([1.0, 2.0, -3.0], 0.0, 1)
        assert info.value.ell == -3.0

    def test_empty_ktype_set_gives_no_columns(self):
        grid = SphereGrid(24, 8)
        providers = (FakeProvider(lambda ell, m: 1.0, ktypes=()),
                     ExtendProvider(make_bump(BumpSpec(0.5), grid), ktypes=()),
                     ExtendProvider(GridFunction(grid, np.zeros((24, 8), dtype=complex))),
                     TableProvider(table(2, {})))
        for provider in providers:
            assert provider.eval_rays([1.0, -2.0, 0.5j], 0.0, 1).shape == (3, 0)

    def test_eval_rays_alone_makes_a_provider(self):
        # a provider implements eval_rays only: eval is one entry of it at
        # a single point, exactly 0 outside the K-types
        class Linear(CoefficientProvider):
            ktypes = frozenset({2, -1})

            def eval_rays(self, origins, steps, n):
                return ray_points(origins, steps, n).reshape(-1, 1) * [-1.0, 2.0]

        provider = Linear()
        assert "eval" not in vars(Linear)
        assert np.array_equal(provider.eval_rays([1.0, 2.0j], 0.0, 1), [[-1.0, 2.0], [-2.0j, 4.0j]])
        assert provider.eval(2.0j, 2) == 4.0j and provider.eval(2.0j, -1) == -2.0j
        for m in (0, 1, 3):
            got = provider.eval(2.0j, m)
            assert type(got) is complex and got == 0.0

    def test_reflection_pole_keeps_the_direct_value(self):
        # at ell = -19 the direct power of the wide cap spreads past
        # e^27.6, so the reflection route is chosen, but b_19 has a pole
        # there; the K-type 19 entry is the direct value, and synthesize
        # is finite
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
        # share one direct kernel exponential, next to the one reflected one
        grid = SphereGrid(96, 48)
        f = GridFunction(grid, sum(make_bump(BumpSpec(1.4, ktype=m), grid).values
                                   for m in (19, 20)))
        provider = ExtendProvider(f)
        assert provider.ktypes == frozenset({19, 20})
        powers = []
        kernel = provider._kernel
        provider._kernel = lambda power: powers.append(power) or kernel(power)
        got = provider.eval_rays([-19.0], 0.0, 1)
        assert powers == [18.0, -19.0]
        for j, m in enumerate((19, 20)):
            ref, floor = extend_reference(f, [-19.0], m)
            assert abs(got[0, j] - ref[0]) <= 10.0 * floor[0]


def per_point_rays(provider, origins, steps, n):
    """eval_rays one point at a time: the reference for its blocks.

    Routes, zeros below the order and reflections as in eval_rays, away
    from the poles of b_m; each run starts from the held start kernel if
    its power is the held one, else from an exact _kernel; every further
    point of the run multiplies the kernel in place by the step kernel:
    the held one if the step is the same, its reciprocal if the step is
    its negation, else an exact _kernel, and a step kernel that is not
    finite is not used. Every point is one contraction of the weights with
    the kernel and the folded cosines, and a value that is not finite
    ends its run and drops both held kernels. The first
    later ray whose origin and step are the exact conjugates of a ray
    with a point off the real axis is read from that ray's kernels, with
    its routes: (-1)^|m| times the conjugate of the contraction with the
    conjugate weights, and a value of either that is not finite ends the
    run.
    """
    ms = sorted(provider.ktypes)
    ks = np.abs(ms)
    points = ray_points(origins, steps, n)
    ells = points.ravel()
    edge = provider._log_q[-1]
    out = np.zeros((ells.size, len(ms)), dtype=complex)
    reflect = np.zeros(points.shape, dtype=bool)
    steps = np.broadcast_to(np.asarray(steps, dtype=complex), points.shape[:1])
    twins, derived = {}, set()
    for i in range(len(points) if n else 0):
        if i in derived or not np.any(points[i].imag):
            continue
        later = [q for q in range(i + 1, len(points)) if q not in derived and q not in twins
                 and points[q, 0] == np.conj(points[i, 0]) and steps[q] == np.conj(steps[i])]
        if later:
            twins[i] = later[0]
            derived.add(later[0])
    conj_weighted = provider._weighted.conj()
    parity = np.where(ks % 2, -1.0, 1.0)
    start = step = (None, None)
    for i, (ray, ray_step) in enumerate(zip(points, steps)):
        if i in derived:
            continue
        twin = twins.get(i)
        a = np.multiply.outer(ray.real, edge.real) - np.multiply.outer(ray.imag, edge.imag)
        log_amp = a.max(axis=1)
        reflect[i] = (log_amp > _LOG_AMP_DIRECT_MAX) & (
            -(a + edge.real).min(axis=1) < log_amp - _LOG_AMP_ADVANTAGE_MIN)
        if twin is not None:
            reflect[twin] = reflect[i]
        prev = None
        for j, (ell, route) in enumerate(zip(ray, reflect[i].tolist())):
            power, delta = (-ell - 1.0, -ray_step) if route else (ell, ray_step)
            if route == prev and step[0] != delta:
                held = step[1] is not None and np.all(np.isfinite(step[1]))
                step = (delta, np.reciprocal(step[1]) if held and step[0] == -delta
                        else provider._kernel(delta))
            if route == prev and np.all(np.isfinite(step[1])):
                kernel = kernel * step[1]
            else:
                if start[0] != power:
                    start = (power, provider._kernel(power))
                kernel = start[1].copy()
            values = out[i * n + j] = np.sum((provider._weighted @ kernel) * provider._cosines,
                                             axis=1)
            if twin is not None:
                conjugate = np.sum((conj_weighted @ kernel) * provider._cosines, axis=1)
                out[twin * n + j] = np.conj(conjugate) * parity
                values = np.r_[values, conjugate]
            prev = route
            if not np.all(np.isfinite(values)):
                prev, start, step = None, (None, None), (None, None)
    integer = (ells.imag == 0.0) & (ells.real >= 0.0) & (ells.real == np.round(ells.real))
    out[integer[:, None] & (ells.real[:, None] < ks)] = 0.0
    rows = np.flatnonzero(reflect.ravel())
    if rows.size:
        out[rows] *= intertwiner_ladder(ks.max(), ells[rows] + 0.5)[:, ks]
    return out


def count_kernels(provider, evaluate):
    """evaluate(provider) and the number of _kernel calls it made."""
    calls = []
    kernel = provider._kernel
    provider._kernel = lambda power: calls.append(power) or kernel(power)
    try:
        return evaluate(provider), len(calls)
    finally:
        del provider._kernel


class TestRays:
    """eval_rays: provider values over arithmetic progressions of parameters."""

    def test_base_rays_are_eval_many_of_the_expanded_points(self):
        # ray_points expands the rays row by row, with the origins as given
        origins, steps = [2.0 - 1.0j, -0.5 + 0.25j], [0.5j, -1.0 + 0.1j]
        points = ray_points(origins, steps, 5)
        assert points.shape == (2, 5) and np.array_equal(points[:, 0], origins)

    def test_single_points_take_the_exact_exponential(self):
        # one point per ray is the per-point route: the direct value, or
        # b_m times the value at -ell-1, each from an exact exponential,
        # bit for bit
        grid = SphereGrid(144, 8)
        for name, r in (("two-type", 0.8), ("smooth-ktype1", 1.3), ("cospow-p8", 1.0)):
            provider = ExtendProvider(certify_class(name, r, grid))
            ells = [-0.5 + 7.0j, 3.0, -97.0, 2.5 - 11.0j, -40.0 + 3.0j, -129.0, 8.5 - 14.0j]
            batch = provider.eval_rays(ells, 0.0, 1)
            for ell, got in zip(ells, batch):
                ell = complex(ell)
                a = np.real(ell * provider._log_q)
                reflect = (a.max() > np.log(1e12) and
                           (-a - provider._log_q.real).max() < a.max() - np.log(1e3))
                power = -ell - 1.0 if reflect else ell
                want = np.sum((provider._weighted @ np.exp(power * provider._log_q))
                              * provider._cosines, axis=1)
                if reflect:
                    want = want * [intertwiner_rational(m, ell + 0.5)
                                   for m in sorted(provider.ktypes)]
                assert np.array_equal(got, want), (name, ell)

    @pytest.mark.parametrize("r", [0.35, 0.7, 1.0, 1.3])
    @pytest.mark.parametrize("name", CERTIFY_CLASSES)
    def test_progressions_stay_within_the_roundoff_floor(self, name, r):
        # the line, disc and rebuild rays of pw_report and synthesize, and
        # the reflected integers, where the reflected route steps too,
        # stepped by one multiply per point, against the 512-point FFT
        # route within 10x its roundoff floor (as TestFoldedRuleAgainstFFT);
        # a spread of points on each stage, ray ends included
        grid = SphereGrid(144, 8)
        f = certify_class(name, r, grid)
        provider = ExtendProvider(f)
        rays = ((-0.5 + 0.5j, 0.5j, 160, 8), (*_disc_rays(20.0, 16, 32), 17, 11),
                (0.0, 1.0, 129, 8), (-1.0, -1.0, 129, 8))
        for origins, steps, n, stride in rays:
            values = provider.eval_rays(origins, steps, n)
            points = ray_points(origins, steps, n).ravel()
            pick = np.unique(np.r_[np.arange(stride - 1, points.size, stride), points.size - 1])
            for j, m in enumerate(sorted(provider.ktypes)):
                ref, floor = extend_reference(f, points[pick], m, own_rows=True)
                assert np.all(np.abs(values[pick, j] - ref) <= 10.0 * floor), (n, m)

    @pytest.mark.parametrize("r", [0.35, 1.0, 1.45])
    @pytest.mark.parametrize("name", CERTIFY_CLASSES)
    def test_blocks_are_the_per_point_loop(self, name, r):
        # points are folded in blocks, so the ray lengths straddle one and
        # two blocks; the rays are the line, two pairs of opposite disc rays
        # (along Re l, which the wide caps reflect, and along Im l, where the
        # second is the conjugate of the first, read from its kernels), the
        # reflected integers and rays that cross between the routes
        provider = ExtendProvider(certify_class(name, r, SphereGrid(144, 8)))
        disc_origins, disc_steps = _disc_rays(20.0, 16, 32)
        pairs = np.r_[0:2, 16:18]
        assert np.array_equal(disc_steps[pairs[1::2]], -disc_steps[pairs[::2]])
        rays = ((-0.5 + 0.5j, 0.5j), (disc_origins[pairs], disc_steps[pairs]), (-1.0, -1.0),
                ([-40.0 + 3.0j, 30.0 - 5.0j], [1.0 + 0.1j, -1.0 + 0.05j]))
        for n in (1, 15, 16, 17, 33, 160):
            for origins, steps in rays:
                got, calls = count_kernels(provider, lambda p: p.eval_rays(origins, steps, n))
                want, want_calls = count_kernels(
                    provider, lambda p: per_point_rays(p, origins, steps, n))
                assert np.array_equal(got, want, equal_nan=True), (n, origins)
                assert calls == want_calls, (n, origins)

    @pytest.mark.parametrize("name", CERTIFY_CLASSES)
    def test_shared_origin_and_opposite_steps_share_exponentials(self, name):
        # rays from one origin in pairs of opposite steps take one
        # exponential for the origin and one per pair: the second ray of a
        # pair steps by the reciprocal of the first's step kernel. Every
        # value stays within 10x the roundoff floor of the FFT route
        f = certify_class(name, 1.0, SphereGrid(144, 8))
        provider = ExtendProvider(f)
        half = np.array([1.25, 0.3 + 0.9j, -0.7 + 1.1j])
        steps = np.stack([half, -half], axis=1).ravel()
        origins = np.full(steps.size, -0.5 + 2.0j)
        values, calls = count_kernels(provider, lambda p: p.eval_rays(origins, steps, 17))
        assert calls == 1 + half.size
        points = ray_points(origins, steps, 17).ravel()
        for j, m in enumerate(sorted(provider.ktypes)):
            ref, floor = extend_reference(f, points, m, own_rows=True)
            assert np.all(np.abs(values[:, j] - ref) <= 10.0 * floor), m

    @pytest.mark.parametrize("r", [0.35, 1.0, 1.45])
    @pytest.mark.parametrize("name", ["smooth-ktype1", "two-type"])
    def test_conjugate_rays_are_read_from_their_partners(self, name, r):
        # Q(theta, pi - c) = conj Q(theta, c), so phi(conj ell, m) is
        # (-1)^|m| times the conjugate of the fold of conj(w f_m) Q^ell: the
        # exact conjugates of two rays, one up the line and one that the
        # wide caps reflect at large negative Re l, take no kernel of their
        # own, leave the first two rays as they are alone, and agree with
        # their own call within 10x the roundoff floor of the FFT route. An
        # imaginary part of i times the class at 0.6 r gives every K-type
        # row weights of varying phase; smooth-ktype1 has odd m
        grid = SphereGrid(144, 8)
        f = GridFunction(grid, certify_class(name, r, grid).values
                         + 1j * certify_class(name, 0.6 * r, grid).values)
        provider = ExtendProvider(f)
        origins, steps, n = np.array([-0.5 + 0.5j, -0.5]), np.array([0.5j, -1.25 + 0.3j]), 33
        both, calls = count_kernels(provider, lambda p: p.eval_rays(
            np.r_[origins, origins.conj()], np.r_[steps, steps.conj()], n))
        first, first_calls = count_kernels(provider, lambda p: p.eval_rays(origins, steps, n))
        assert calls == first_calls
        assert np.array_equal(both[:first.shape[0]], first)
        alone = np.concatenate([provider.eval_rays(o, s, n)
                                for o, s in zip(origins.conj(), steps.conj())])
        points = ray_points(origins.conj(), steps.conj(), n).ravel()
        for j, m in enumerate(sorted(provider.ktypes)):
            _, floor = extend_reference(f, points, m)
            assert np.all(np.abs(both[first.shape[0]:, j] - alone[:, j]) <= 10.0 * floor), m

    def test_rays_conjugate_up_to_roundoff_are_computed(self):
        # a ray whose origin or step is one ulp off the conjugate of an
        # earlier ray's is no twin: it is computed, bit for bit as in its
        # own call
        provider = ExtendProvider(certify_class("smooth-ktype1", 1.0, SphereGrid(144, 8)))
        origin, step = -0.5 + 2.0j, 1.1 + 0.7j
        near = (complex(origin.real, np.nextafter(-origin.imag, 0.0)), np.conj(step))
        for o, s in (near, (np.conj(origin), np.conj(step) + 2e-16j)):
            got = provider.eval_rays([origin, o], [step, s], 17)
            assert np.array_equal(got[17:], provider.eval_rays(o, s, 17)), (o, s)

    def test_blocks_restart_after_a_value_that_is_not_finite(self):
        # up the tempered line in steps of 30 the kernel overflows first at
        # j = 19, inside the second block; the values after it restart
        provider = ExtendProvider(make_bump(BumpSpec(1.3), SphereGrid(144, 8)))
        with np.errstate(over="ignore", invalid="ignore"):
            got, calls = count_kernels(provider, lambda p: p.eval_rays(-0.5, 30j, 40))
            want, want_calls = count_kernels(provider, lambda p: per_point_rays(p, -0.5, 30j, 40))
        finite = np.isfinite(want).all(axis=1)
        assert finite[:19].all() and not finite[19]
        assert np.array_equal(got, want, equal_nan=True)
        assert calls == want_calls

    def test_runs_restart_after_overflow(self):
        # the exact power at the middle point is finite in both rays; the
        # first starts with an overflowed kernel and a finite Q^step, the
        # second with an underflowed kernel and an overflowed Q^step, and
        # stepping through either would give inf or nan there. The second
        # starts off the integers, where degree 800 would alias
        provider = ExtendProvider(make_bump(BumpSpec(1.3), SphereGrid(144, 8)))
        for origin, step in ((-0.5 - 600.0j, 300.0j), (800.5, -800.0)):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                rays = provider.eval_rays([origin], [step], 3)
                points = provider.eval_rays([origin, origin + step, origin + 2 * step], 0.0, 1)
            assert np.all(np.isfinite(rays[1]))
            assert np.array_equal(rays, points, equal_nan=True), origin

    def test_route_memory_is_bounded_by_the_ray(self):
        # routes are decided one ray at a time, so the disc's 32 rays of 16
        # points hold route arrays of 16 x 257 samples, not 512 x 257
        provider = ExtendProvider(make_bump(BumpSpec(1.0), SphereGrid(144, 8)))
        origins, steps = _disc_rays(20.0, 16, 32)
        tracemalloc.start()
        try:
            provider.eval_rays(origins, steps, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_extend_raises_when_the_kernel_overflows(self):
        f = make_bump(BumpSpec(0.8), SphereGrid(48, 8))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"ell=0\+10000j, m=0"):
                extend(f, 1e4j, 0)


class TestRebuild:
    """synthesize of an ExtendProvider, the rebuild of the certify benchmark."""

    @pytest.mark.parametrize("r", [0.35, 0.7, 1.0, 1.3])
    @pytest.mark.parametrize("name", CERTIFY_CLASSES)
    def test_matches_the_closed_form_reference(self, name, r):
        # against synthesize of the analyze table of the same bump on a
        # grid that resolves L = 128, restricted to the provider's K-types
        out = SphereGrid(144, 16)
        provider = ExtendProvider(certify_class(name, r, SphereGrid(144, 8)))
        got = synthesize(provider, out, 128).values
        t = analyze(certify_class(name, r, SphereGrid(144, 258)), 128)
        _, ms = lm_grid(128)
        own = CoefficientTable(np.where(np.isin(ms, sorted(provider.ktypes)), t.values, 0.0))
        ref = synthesize(TableProvider(own), out, 128).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_kernel_powers_are_nonnegative(self):
        # the rebuild reads the integer ray, where |Q^l| <= 1: every kernel
        # power, the step included, is a nonnegative real
        provider = ExtendProvider(certify_class("two-type", 1.3, SphereGrid(144, 8)))
        powers = []
        kernel = provider._kernel
        provider._kernel = lambda power: powers.append(complex(power)) or kernel(power)
        synthesize(provider, SphereGrid(144, 16), 128)
        assert powers and all(p.imag == 0.0 and p.real >= 0.0 for p in powers)


class TestSynthesizeProviderErrors:
    @staticmethod
    def raising(exc):
        def fn(ell, m):
            raise exc
        return FakeProvider(fn, ktypes=(0,))

    def test_other_exceptions_propagate(self):
        with pytest.raises(TypeError, match="not a coefficient"):
            synthesize(self.raising(TypeError("not a coefficient")), SphereGrid(8, 8), 2)
