"""Tests for the boundary generator models and ladder machinery.

The generator coefficients are pinned three independent ways: frozen
hand-computed small cases, the bracket relation [X, Y] acting as -Z on
random inputs, and the exchange identity against the geometric rotation
derivative through the transform (intertwine_check), whose cap-fitted
rule has its own exactness tests.
"""

import math

import numpy as np
import pytest

from crown_harmonics.errors import CrownDomainError, SchemaError
from crown_harmonics.intertwining import intertwiner_rational
from crown_harmonics.reduction import (
    LadderFunction,
    PrincipalSeriesFunction,
    cap_quadrature,
    intertwine_check,
    kostant_ratio,
    ladder_components,
    reduction_synthesize,
    sigma_action,
)
from crown_harmonics.sphere import (
    GridFunction,
    SphereGrid,
    boundary_log_pairing,
    kernel_mode_profiles,
)
from crown_harmonics.testbed import BumpSpec, make_bump
from crown_harmonics.transform import ExtendProvider, analyze
from crown_harmonics.verify import _ladder_scalar

GENERIC_TS = [0.3 + 0.4j, -1.2 + 0.9j, 2.1 - 0.6j, 0.05 + 1.5j]


def psi_of(components, nu):
    return PrincipalSeriesFunction(dict(components), lam=nu - 0.5)


def ladder_scalar(m, t):
    """Closed-form scalar the ladder ratios are expected to match.

    m=0: 1,  m=1: i / (1/2 - t),  m=2: -1 / ((1/2 - t)(3/2 - t)).
    """
    t = complex(t)
    return {0: 1.0 + 0.0j, 1: 1j / (0.5 - t), 2: -1.0 / ((0.5 - t) * (1.5 - t))}[abs(m)]


class TestSigmaAction:
    def test_frozen_zonal_seed(self):
        nu = 0.7 - 0.3j
        psi = psi_of({0: 1.0}, nu)
        x = sigma_action(psi, "X").components
        y = sigma_action(psi, "Y").components
        z = sigma_action(psi, "Z").components
        assert x == {1: -0.5j * nu, -1: -0.5j * nu}
        assert y == {1: -0.5 * nu, -1: 0.5 * nu}
        assert z == {0: 0.0}

    def test_frozen_type_one_seed(self):
        nu = 1.1 + 0.2j
        psi = psi_of({1: 1.0}, nu)
        z = sigma_action(psi, "Z").components
        x = sigma_action(psi, "X").components
        assert z == {1: 1j}
        assert x == {2: -0.5j * (nu + 1.0), 0: -0.5j * (nu - 1.0)}

    def test_vacuous_point(self):
        # at nu = 0 the zonal seed is annihilated by X and Y
        psi = psi_of({0: 2.0}, 0.0)
        for gen in ("X", "Y"):
            acted = sigma_action(psi, gen)
            assert all(v == 0.0 for v in acted.components.values())

    def test_bracket_is_minus_z(self):
        rng = np.random.default_rng(17)
        nu = 0.8 + 0.45j
        comps = {
            m: complex(rng.standard_normal(), rng.standard_normal())
            for m in range(-3, 4)
        }
        psi = psi_of(comps, nu)
        xy = sigma_action(sigma_action(psi, "Y"), "X").components
        yx = sigma_action(sigma_action(psi, "X"), "Y").components
        mz = {m: -v for m, v in sigma_action(psi, "Z").components.items()}
        keys = set(xy) | set(yx) | set(mz)
        worst = max(
            abs(xy.get(m, 0.0) - yx.get(m, 0.0) - mz.get(m, 0.0)) for m in keys
        )
        assert worst < 1e-13

    def test_unknown_generator(self):
        with pytest.raises(SchemaError):
            sigma_action(psi_of({0: 1.0}, 0.5), "W")


class TestPrincipalSeriesFunction:
    def test_nu_property(self):
        psi = PrincipalSeriesFunction({0: 1.0}, lam=-1.5)
        assert psi.nu == -1.0
        assert psi.components == {0: 1.0}

    def test_rejects_non_finite(self):
        with pytest.raises(SchemaError):
            PrincipalSeriesFunction({0: float("nan")}, lam=0.0)
        with pytest.raises(SchemaError):
            PrincipalSeriesFunction({1: complex(1.0, float("inf"))}, lam=0.0)


class TestCapQuadrature:
    def test_weight_normalization(self):
        for r in (0.3, 0.9, 1.4):
            theta, w = cap_quadrature(r, 32)
            assert np.all((theta > 0) & (theta < r))
            assert abs(w.sum() - (1.0 - math.cos(r)) / 2.0) < 1e-15

    def test_polynomial_exactness(self):
        # integral over the cap of cos(theta), normalized measure:
        # int_0^r cos sin / 2 dtheta = sin(r)^2 / 4
        r = 0.8
        theta, w = cap_quadrature(r, 16)
        got = float(w @ np.cos(theta))
        assert abs(got - math.sin(r) ** 2 / 4.0) < 1e-15

    def test_domain_validation(self):
        with pytest.raises(CrownDomainError):
            cap_quadrature(0.0, 8)
        with pytest.raises(CrownDomainError):
            cap_quadrature(math.pi + 0.1, 8)
        cap_quadrature(math.pi, 8)  # full sphere is a legal cap


class TestIntertwineCheck:
    def test_exchange_identity_holds(self):
        grid = SphereGrid(64, 16)
        bump = make_bump(BumpSpec(radius=0.6, ktype=1), grid)
        for gen in ("Z", "X", "Y"):
            for ell in (0.4 + 0.6j, 2.2 - 0.8j):
                assert intertwine_check(bump, gen, ell) < 1e-10

    def test_one_cap_call_is_worst_single_pair(self, monkeypatch):
        # one call over every generator and parameter builds the cap's
        # log table once and returns the worst of the single-pair residuals
        import crown_harmonics.reduction as reduction

        grid = SphereGrid(64, 16)
        bump = make_bump(BumpSpec(radius=0.6, ktype=1), grid)
        ells = (0.4 + 0.6j, 2.2 - 0.8j)
        singles = [intertwine_check(bump, gen, ell) for gen in "ZXY" for ell in ells]
        builds = []

        def spy(theta):
            builds.append(len(theta))
            return boundary_log_pairing(theta)

        monkeypatch.setattr(reduction, "boundary_log_pairing", spy)
        worst = intertwine_check(bump, "ZXY", ells)
        assert len(builds) == 1
        assert abs(worst - max(singles)) <= 1e-15
        assert 0.0 < worst < 1e-10

    def test_rejects_unknown_generator_label(self):
        grid = SphereGrid(64, 16)
        bump = make_bump(BumpSpec(radius=0.6, ktype=1), grid)
        with pytest.raises(SchemaError):
            intertwine_check(bump, "XW", 1.0)

    def test_mismatched_sides_fail(self):
        # negative control: compare X on the geometric side against Y
        # on the boundary side by hand; the residual must be visible
        grid = SphereGrid(64, 16)
        bump = make_bump(BumpSpec(radius=0.6, ktype=1), grid)
        ell = 0.4 + 0.6j
        theta, weights = cap_quadrature(0.6, 96)
        ms = (0, 1, 2)
        kernel = weights[:, None] * kernel_mode_profiles(ell, boundary_log_pairing(theta), ms)
        lhs = {
            m: complex(np.sum(prof(theta) * kernel[:, ms.index(m)]))
            for m, prof in ladder_components(bump, "X").items()
        }
        seed = complex(np.sum(bump.profile(theta) * kernel[:, 1]))
        rhs = sigma_action(
            PrincipalSeriesFunction({1: seed}, lam=-ell - 0.5), "Y"
        ).components
        scale = max(abs(v) for v in list(lhs.values()) + list(rhs.values()))
        worst = max(
            abs(lhs.get(m, 0.0) - rhs.get(m, 0.0)) for m in set(lhs) | set(rhs)
        )
        assert worst / scale > 1e-2

    def test_requires_handle(self):
        grid = SphereGrid(16, 8)
        f = GridFunction(grid, np.ones((16, 8), dtype=complex))
        with pytest.raises(SchemaError):
            intertwine_check(f, "X", 1.0)


class TestLadderScalars:
    def test_reflection_relation_constant_one(self):
        # p_m(-t) b_m(-t) = p_m(t), exactly, for both ladder orders
        for m in (1, 2):
            for t in GENERIC_TS:
                lhs = ladder_scalar(m, -t) * intertwiner_rational(m, -t)
                rhs = ladder_scalar(m, t)
                assert abs(lhs - rhs) < 1e-14 * abs(rhs)

    def test_kostant_ratio_matches_closed_form(self):
        probes = (0.4, 0.8, 1.2)
        for m in (1, 2):
            for t in GENERIC_TS:
                ratios, spread = kostant_ratio(m, t, probes)
                assert spread < 1e-10
                mean = ratios.mean()
                expect = ladder_scalar(m, t)
                assert abs(mean - expect) < 1e-10 * abs(expect)

    def test_verify_closed_form_matches_ladder_scalar(self):
        # the general-order closed form in verify, i^m / ((l+1)...(l+m))
        # at l = -t - 1/2, against the hand-written low orders here
        for m in (0, 1, 2):
            for t in GENERIC_TS:
                expect = ladder_scalar(m, t)
                assert abs(_ladder_scalar(m, t) - expect) < 1e-15 * abs(expect)

    def test_kostant_zonal_is_trivial(self):
        ratios, spread = kostant_ratio(0, 0.3 + 0.4j, (0.5, 1.0))
        assert spread == 0.0
        assert np.all(ratios == 1.0)

    def test_kostant_probe_domain(self):
        with pytest.raises(CrownDomainError):
            kostant_ratio(1, 0.3, (1.6,))


class TestReductionSynthesize:
    def test_type_one_profile_is_minus_derivative(self):
        grid = SphereGrid(48, 12)
        seed = make_bump(BumpSpec(radius=0.7), grid)
        f = reduction_synthesize(1, seed)
        expect = np.outer(-seed.g1(grid.theta),
                          np.exp(1j * grid.phi_nodes)).astype(complex)
        assert np.max(np.abs(f.values - expect)) == 0.0
        assert f.ktype == 1
        assert f.handle_ok

    def test_support_stays_in_seed_cap(self):
        grid = SphereGrid(96, 12)
        seed = make_bump(BumpSpec(radius=0.5), grid)
        for m in (0, 1, 2, -1, -2):
            f = reduction_synthesize(m, seed)
            outside = grid.theta > 0.5
            assert np.max(np.abs(f.values[outside])) == 0.0

    def test_ladder_order_cap(self):
        seed = make_bump(BumpSpec(radius=0.5), SphereGrid(32, 12))
        with pytest.raises(SchemaError):
            reduction_synthesize(3, seed)

    def test_rejects_non_zonal_seed(self):
        seed = make_bump(BumpSpec(radius=0.5, ktype=1), SphereGrid(32, 12))
        with pytest.raises(SchemaError):
            reduction_synthesize(1, seed)

    def test_second_order_profile_derivative_unavailable(self):
        seed = make_bump(BumpSpec(radius=0.5), SphereGrid(32, 12))
        f2 = reduction_synthesize(2, seed)
        assert not f2.handle_ok
        with pytest.raises(SchemaError):
            f2.profile_d1(0.3)
        f1 = reduction_synthesize(1, seed)
        assert np.all(np.isfinite(f1.profile_d1(np.array([0.2, 0.4]))))


class TestSigmaTransformedProvider:
    """sigma_action applied to the values of an ExtendProvider at an integer degree."""

    def test_ktype_arithmetic(self):
        grid = SphereGrid(64, 16)
        bump = make_bump(BumpSpec(radius=0.6, ktype=1), grid)
        base = ExtendProvider(bump)
        psi = PrincipalSeriesFunction(
            {m: base.eval(2.0, m) for m in base.ktypes}, lam=-2.5)
        assert set(sigma_action(psi, "Z").components) == {1}
        assert set(sigma_action(psi, "X").components) == {0, 2}
        assert set(sigma_action(psi, "Y").components) == {0, 2}

    def test_closes_with_geometric_derivative(self):
        # analyze o (rotation derivative) must equal the boundary model
        # at lam = -l - 1/2 applied to the extension of f, degree by
        # degree; the derivative bump is rougher than the seed, so the
        # grid is kept generous
        grid = SphereGrid(768, 16)
        bump = make_bump(BumpSpec(radius=0.6, ktype=1), grid)
        base = ExtendProvider(bump)
        lmax = 5
        for gen in ("Z", "X", "Y"):
            # the rotation derivative sampled from its azimuthal components
            values = sum(np.outer(profile(grid.theta), np.exp(1j * m * grid.phi_nodes))
                         for m, profile in ladder_components(bump, gen).items())
            derived = analyze(GridFunction(grid, values), lmax)
            scale = max(np.max(np.abs(derived.values)), 1e-300)
            worst = 0.0
            for l in range(lmax + 1):
                psi = PrincipalSeriesFunction(
                    {m: base.eval(float(l), m) for m in base.ktypes}, lam=-l - 0.5)
                acted = sigma_action(psi, gen).components
                assert set(acted) == ({1} if gen == "Z" else {0, 2})
                for m, got in acted.items():
                    if abs(m) <= l:
                        worst = max(worst, abs(got - derived.values[l, m + derived.lmax]))
            assert worst / scale < 1e-9
