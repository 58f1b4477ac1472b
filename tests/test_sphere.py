"""Grid, pairing, kernel-mode, and quadrature tests.

Includes the pointwise reflection identity for kernel modes, plus a
scipy.quad cross-check for a flat-profile cap integral.
"""

import hashlib
import math

import numpy as np
import pytest

from crown_harmonics.errors import GridResolutionError, SchemaError
from crown_harmonics.intertwining import intertwiner_rational
from crown_harmonics.numerics import assoc_legendre, gauss_legendre
from crown_harmonics.sphere import (
    DEFAULT_BOUNDARY_SAMPLES,
    GridFunction,
    SphereGrid,
    boundary_log_pairing,
    ell_value,
    kernel_mode_profiles,
    kernel_mode_sweep,
    require_resolution,
    support_radius,
)
from crown_harmonics.testbed import BumpSpec, make_bump
from crown_harmonics.transform import analyze
from oracles import (
    fft_kernel_modes,
    full_boundary_log_pairing,
    recurrence_kernel_modes,
    sphere_integral,
)

ONE_SEVENTH = 0.14285714285714285714
TWO_OVER_101 = 0.01980198019801980198


def single_mode(ell, m, theta):
    """Mode m of Q^ell along an array of colatitudes, one order at a time."""
    return kernel_mode_profiles(ell, boundary_log_pairing(theta), [m])[:, 0]


class TestRootDatum:
    def test_spectral_param_requires_finite(self):
        assert ell_value(2) == 2.0 + 0.0j
        for ell in (float("nan"), complex(1.0, float("inf"))):
            with pytest.raises(SchemaError):
                ell_value(ell)
            with pytest.raises(SchemaError):
                single_mode(ell, 0, 0.3)


class TestSphereGrid:
    def test_nodes_and_weights(self):
        grid = SphereGrid(20, 16)
        assert np.all(np.diff(grid.theta) > 0)
        assert grid.theta[0] > 0 and grid.theta[-1] < math.pi
        assert abs(grid.theta_weights.sum() - 1.0) < 1e-14
        assert np.max(np.abs(np.diff(grid.phi_nodes) - 2 * math.pi / 16)) < 1e-14

    def test_integrate_constants_and_moments(self):
        grid = SphereGrid(16, 8)
        th = grid.theta[:, None]
        one = GridFunction(grid, np.ones((16, 8)))
        assert abs(sphere_integral(one) - 1.0) < 5e-15
        cos1 = GridFunction(grid, np.broadcast_to(np.cos(th), (16, 8)))
        assert abs(sphere_integral(cos1)) < 5e-15
        cos2 = GridFunction(grid, np.broadcast_to(np.cos(th) ** 2, (16, 8)))
        assert abs(sphere_integral(cos2) - 1.0 / 3.0) < 5e-15

    def test_integrate_legendre_square_frozen(self):
        # mean of P_3(cos)^2 over the sphere is 1/(2*3+1)
        grid = SphereGrid(12, 6)
        p3 = assoc_legendre(3, 0, np.cos(grid.theta[:, None]))[3]
        f = GridFunction(grid, np.broadcast_to(p3 ** 2, (12, 6)))
        assert abs(sphere_integral(f) - ONE_SEVENTH) < 5e-15

    def test_raw_rule_integrates_p50_square_frozen(self):
        rule = gauss_legendre(64)
        got = float(rule.weights @ assoc_legendre(50, 0, rule.nodes)[50] ** 2)
        assert abs(got - TWO_OVER_101) < 1e-14

    def test_integrate_smooth_bump_against_scipy_quad(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        r = 0.8
        grid = SphereGrid(192, 4)
        bump = make_bump(BumpSpec(r, "smooth"), grid)
        ours = sphere_integral(bump)

        def radial(theta):
            t2 = theta * theta
            return math.exp(-t2 / (r * r - t2)) * math.sin(theta) / 2.0

        reference, err = scipy_integrate.quad(radial, 0.0, r, limit=200)
        assert abs(ours - reference) < 1e-7

    def test_resolution_requirements(self):
        grid = SphereGrid(10, 18)
        require_resolution(grid, 8)
        with pytest.raises(GridResolutionError):
            require_resolution(grid, 9)  # n_theta 10 < 9 + 2
        with pytest.raises(GridResolutionError):
            require_resolution(SphereGrid(30, 14), 8)  # n_phi 14 < 18


class TestPairing:
    # boundary_log_pairing tabulates the principal log of
    # Q((theta, 0), c_k) = cos(theta) + i sin(theta) cos(c_k) on the half
    # boundary c_k = 2 pi k / 512, k = 0..256

    def test_values_on_axis(self):
        log_q = boundary_log_pairing(np.array([1e-12]))
        assert log_q.shape == (1, DEFAULT_BOUNDARY_SAMPLES // 2 + 1)
        assert np.max(np.abs(np.exp(log_q) - 1.0)) < 1e-9

    def test_magnitude_bounded_by_one(self):
        log_q = boundary_log_pairing(np.array([0.3, 1.0, 1.5]))
        assert log_q.shape == (3, 257)
        assert np.max(log_q.real) <= 1e-15

    def test_iwasawa_log_inverts_exp(self):
        theta = 1.1
        c = 2.0 * np.pi * np.arange(257) / DEFAULT_BOUNDARY_SAMPLES
        log_q = boundary_log_pairing(theta)[0]
        q = math.cos(theta) + 1j * math.sin(theta) * np.cos(c)
        assert np.max(np.abs(np.exp(log_q) - q)) < 1e-15
        # principal branch: on the crown the argument stays below theta
        assert np.max(np.abs(log_q.imag)) <= theta + 1e-15

    def test_real_arithmetic_log_matches_np_log_accuracy(self):
        # the log is built from real parts (hypot, arctan2); against a
        # 40-digit log of the same samples it must be as accurate as the
        # complex np.log, to one ulp of 1, on a fixed theta x c set: near
        # the pole, generic, within 1e-9 of pi/2, and past pi/2
        mpmath = pytest.importorskip("mpmath")
        thetas = np.array([1e-12, 1e-6, 0.3, 1.1, math.pi / 2 - 1e-9,
                           math.pi / 2 + 1e-9, 2.0, 2.9])
        ks = np.array([0, 1, 37, 100, 127, 128, 129, 200, 255, 256])
        cos_c = np.cos(2.0 * np.pi * ks / DEFAULT_BOUNDARY_SAMPLES)
        log_q = boundary_log_pairing(thetas)[:, ks]
        np_log = np.log(np.cos(thetas)[:, None] + 1j * np.sin(thetas)[:, None] * cos_c)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for i, theta in enumerate(thetas):
                x, y = mpmath.cos(theta), mpmath.sin(theta)
                exact = [mpmath.log(mpmath.mpc(x, y * cc)) for cc in cos_c]
                ours = max(float(abs(v - e)) for v, e in zip(log_q[i], exact))
                ref = max(float(abs(v - e)) for v, e in zip(np_log[i], exact))
                assert ours <= ref + eps, (theta, ours, ref)
        # at k = 128 cos(c) is about 6e-17, not 0: the arg keeps np.log's
        # sign on every row, near +pi past pi/2
        col = list(ks).index(128)
        assert 0.0 < cos_c[col] < 1e-16
        assert np.array_equal(np.sign(log_q[:, col].imag), np.sign(np_log[:, col].imag))
        assert np.all(log_q[thetas > math.pi / 2, col].imag > 3.0)

    def test_signed_zeros_give_np_log_arg(self):
        # at theta = +-0 the imaginary part sin(theta) cos(c) is -0 where
        # cos(c) < 0; the complex Q of np.log carries +0 there
        c = 2.0 * np.pi * np.arange(257) / DEFAULT_BOUNDARY_SAMPLES
        thetas = np.array([0.0, -0.0, math.pi])
        log_q = boundary_log_pairing(thetas)
        np_log = np.log(np.cos(thetas)[:, None] + 1j * np.sin(thetas)[:, None] * np.cos(c))
        assert np.array_equal(np.signbit(log_q.imag), np.signbit(np_log.imag))
        assert np.array_equal(log_q.imag, np_log.imag)

    @pytest.mark.parametrize("radius", [0.3, 0.7, 1.0, 1.3, 1.55])
    def test_last_row_holds_both_route_maxima(self, radius):
        # the table lies in the log image of the segment |z| <= 1,
        # Re z >= cos(theta_last): Re(ell log Q) and the reflected
        # -Re(ell log Q) - Re log Q peak on the samples of its last row, so
        # ExtendProvider decides its routes from that row alone. Both
        # whole-table maxima equal the last row's bit for bit
        rng = np.random.default_rng(20)
        ells = rng.uniform(-400.0, 400.0, 200) + 1j * rng.uniform(-200.0, 200.0, 200)
        ells = np.concatenate([ells, ells.real, 1j * ells.imag])
        for n_theta in (64, 96, 144):
            theta = SphereGrid(n_theta, 8).theta
            direct = reflected = np.full(ells.size, -np.inf)
            for row in boundary_log_pairing(theta[theta <= radius]):
                a = ells.real[:, None] * row.real - ells.imag[:, None] * row.imag
                direct = np.maximum(direct, a.max(axis=1))
                reflected = np.maximum(reflected, (-a - row.real).max(axis=1))
            # a and row now hold the last row
            assert np.array_equal(direct, a.max(axis=1))
            assert np.array_equal(reflected, (-a - row.real).max(axis=1))


class TestKernelModes:
    def test_zonal_mode_is_legendre(self):
        for theta in (0.25, 0.9, 1.3):
            column = assoc_legendre(17, 0, math.cos(theta))
            for l in (0, 1, 4, 17):
                got = single_mode(float(l), 0, theta)
                assert abs(got - column[l]) < 1e-13

    def test_mode_symmetry_in_m(self):
        ell = 1.7 - 0.4j
        for theta in (0.4, 1.1):
            for m in (1, 2, 5):
                a = single_mode(ell, m, theta)
                b = single_mode(ell, -m, theta)
                assert abs(a - b) < 1e-14 * max(1.0, abs(a))

    def test_pointwise_reflection_identity(self):
        # G_m(-ell-1; theta) = b_m(-ell-1/2) G_m(ell; theta)
        ell = 0.8 + 0.6j
        t = -ell - 0.5
        for m in (0, 1, 2, 3):
            b = intertwiner_rational(m, t)
            for theta in (0.3, 0.8, 1.2):
                lhs = single_mode(-ell - 1.0, m, theta)
                rhs = b * single_mode(ell, m, theta)
                assert abs(lhs - rhs) < 2e-13 * max(1.0, abs(rhs))

    def test_profiles_match_scalar_interface(self):
        thetas = np.array([0.2, 0.7, 1.3])
        ms = (0, 1, -3)
        table = kernel_mode_profiles(2.0 + 1.0j, boundary_log_pairing(thetas), ms)
        assert table.shape == (3, 3)
        for i, theta in enumerate(thetas):
            for j, m in enumerate(ms):
                scalar = single_mode(2.0 + 1.0j, m, theta)
                assert abs(table[i, j] - scalar) < 1e-14

    def test_integer_power_rows_beyond_crown(self):
        # integer powers are branch-free, so profile rows past pi/2 are fine
        thetas = np.array([0.5, 1.6, 2.8])
        column = kernel_mode_profiles(3.0, boundary_log_pairing(thetas), [0])[:, 0]
        p3 = assoc_legendre(3, 0, np.cos(thetas))[3]
        assert np.max(np.abs(column - p3)) < 1e-13


class TestFoldedRuleAgainstFFT:
    """The folded half-boundary rule against the full-circle FFT oracle.

    Both are the same 512-sample trapezoid rule, so they differ by
    roundoff only, for every order the rule resolves. A sample E_k of
    Q^ell carries the error of log Q times |ell|, and the sum adds a few
    ulps of the largest sample, so the floor of a row is
    eps (1 + |ell|) max_k |E_k|.
    """

    ORDERS = np.arange(-255, 256)

    def worst_over_floor(self, ell, thetas):
        log_q = boundary_log_pairing(thetas)
        folded = kernel_mode_profiles(ell, log_q, self.ORDERS)
        oracle = fft_kernel_modes(ell, full_boundary_log_pairing(thetas))
        oracle = oracle[:, self.ORDERS % DEFAULT_BOUNDARY_SAMPLES]
        peak = np.exp(np.max(np.real(complex(ell) * log_q), axis=1))
        floor = np.finfo(float).eps * (1.0 + abs(ell)) * peak
        return np.max(np.abs(folded - oracle) / floor[:, None])

    def test_complex_degree_on_the_crown(self):
        thetas = np.array([0.05, 0.3, 0.7, 1.0, 1.3, 1.5])
        line = [-0.5 + 1j * t for t in (0.5, 10.0, 40.0, 80.0, 160.0)]
        disc = [-0.5 + r * np.exp(1j * a) for r in (5.0, 20.0)
                for a in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]
        reflected = [-n - 1.0 for n in (0, 3, 17, 64, 128)]
        for ell in line + disc + reflected:
            assert self.worst_over_floor(ell, thetas) < 4.0, ell

    def test_integer_degree_past_the_crown(self):
        thetas = np.array([0.2, 1.6, 2.4, 3.1])
        for l in range(41):
            assert self.worst_over_floor(float(l), thetas) < 4.0, l


class TestIntegerKernelModes:
    # whole sphere, both poles' neighbourhoods included: integer powers
    # are branch-free. The closed form is read from kernel_mode_sweep,
    # whose row k of step l is G_k(l) / i^k
    THETAS = np.array([1e-3, 0.2, 0.7, 1.3, 1.6, 2.4, 3.1])

    def test_matches_boundary_fft_absolutely(self):
        # the closed form, the folded rule and the full-circle FFT oracle
        # agree while l + |m| < 512
        log_q = boundary_log_pairing(self.THETAS)
        full_log_q = full_boundary_log_pairing(self.THETAS)
        ms = np.arange(-40, 41)
        worst = 0.0
        for l, g in kernel_mode_sweep(range(41), 40, self.THETAS):
            folded = kernel_mode_profiles(float(l), log_q, ms)
            fft_modes = fft_kernel_modes(float(l), full_log_q)
            for j, m in enumerate(ms):
                if abs(m) <= l:
                    mode = (1, 1j, -1, -1j)[abs(m) % 4] * g[abs(m)]
                    for expect in (folded[:, j], fft_modes[:, m % DEFAULT_BOUNDARY_SAMPLES]):
                        worst = max(worst, np.max(np.abs(mode - expect)))
        assert worst < 1e-13

    def test_matches_associated_legendre_relatively(self):
        # i^|m| l!/(l+|m|)! P_l^|m|: relative to each row's own scale,
        # which the absolute comparison cannot see once the row is tiny
        u = np.cos(self.THETAS)
        columns = [assoc_legendre(60, k, u) for k in range(61)]
        for l, g in kernel_mode_sweep(range(61), 60, self.THETAS):
            for k in range(l + 1):
                mode = (1, 1j, -1, -1j)[k % 4] * g[k]
                expect = (1j ** k * math.factorial(l) / math.factorial(l + k)
                          * columns[k][l])
                scale = np.max(np.abs(expect))
                assert np.max(np.abs(mode - expect)) < 1e-12 * scale, (l, k)

    def test_exact_zeros_below_the_order(self):
        # order 7 joins the sweep at l = 7 with a nonzero seed row; no step
        # below it yields the order, and an order past lmax yields no step
        steps = [(l, g.copy()) for l, g in kernel_mode_sweep([0, 7], 12, self.THETAS)]
        assert [g.shape for _, g in steps] == [(1 + (l >= 7), self.THETAS.size) for l in range(13)]
        assert np.all(steps[7][1][1] != 0.0)
        assert not list(kernel_mode_sweep([13], 12, self.THETAS))

    def test_finite_where_the_seed_underflows(self):
        # (sin(theta)/2)^255 underflows on the first rows of the L = 255
        # grid; those rows come out as zeros, never inf or nan
        grid = SphereGrid(257, 512)
        assert (0.5 * math.sin(grid.theta[0])) ** 255 == 0.0
        for l, g in kernel_mode_sweep(range(256), 255, grid.theta):
            assert np.all(np.isfinite(g)) and np.max(np.abs(g)) <= 1.0, l
        assert g[255, 0] == 0.0 and g[255, grid.n_theta // 2] != 0.0


class TestKernelModeSweep:
    @pytest.mark.parametrize("lmax", [40, 128, 255])
    def test_equals_the_per_order_recurrence_bit_for_bit(self, lmax):
        # every row of every step, hashed per order in degree order so
        # that the full L = 255 order set needs no table of all modes
        theta = SphereGrid(lmax + 2, 4).theta
        for orders in (range(lmax + 1), [0], [1], [0, 2], [3, 60]):
            orders = [k for k in orders if k <= lmax]
            digests = [hashlib.sha256() for _ in orders]
            degrees = []
            for l, g in kernel_mode_sweep(orders, lmax, theta):
                # step l yields exactly the orders k <= l, in ascending order
                assert g.shape == (sum(k <= l for k in orders), theta.size)
                for digest, row in zip(digests, g):
                    digest.update(row.tobytes())
                degrees.append(l)
            assert degrees == list(range(orders[0], lmax + 1))
            for k, digest in zip(orders, digests):
                expect = recurrence_kernel_modes(k, lmax, theta)
                assert digest.digest() == hashlib.sha256(expect.tobytes()).digest(), (orders[:3], k)


class TestRotate:
    """Rotation about the pole by whole azimuthal grid steps.

    The azimuthal nodes are uniform, so rotating by k steps is the
    cyclic shift np.roll(values, k, axis=1) of the samples.
    """

    def test_exact_phase_shift(self):
        grid = SphereGrid(8, 12)
        th, ph = grid.theta[:, None], grid.phi_nodes[None, :]
        f = GridFunction(grid, np.exp(1j * ph) * np.sin(th))
        shifted = np.roll(f.values, 3, axis=1)
        c = 2 * math.pi * 3 / 12
        rotated = GridFunction(grid, np.exp(1j * (ph - c)) * np.sin(th))
        assert np.max(np.abs(shifted - rotated.values)) < 1e-14
        expected = f.values * np.exp(-1j * c)
        assert np.max(np.abs(shifted - expected)) < 1e-14

    def test_integral_invariance(self):
        # the degree-0 coefficient of analyze is the sphere integral
        grid = SphereGrid(10, 14)
        rng = np.random.default_rng(5)
        f = GridFunction(grid, rng.standard_normal((10, 14)) + 0j)
        g = GridFunction(grid, np.roll(f.values, 6, axis=1))
        before = analyze(f, 0).values[0, 0]
        assert abs(analyze(g, 0).values[0, 0] - before) < 1e-15
        assert abs(before - sphere_integral(f)) < 1e-15


class TestSupportRadius:
    def test_conventions(self):
        grid = SphereGrid(24, 8)
        one = GridFunction(grid, np.ones((24, 8), dtype=complex))
        zero = GridFunction(grid, np.zeros((24, 8), dtype=complex))
        assert support_radius(one) == math.pi
        assert support_radius(zero) == 0.0

    def test_bump_support(self):
        grid = SphereGrid(96, 8)
        bump = make_bump(BumpSpec(0.5, "smooth"), grid)
        r = support_radius(bump)
        assert 0.4 < r <= 0.5


class TestGridFunction:
    def test_shape_validation(self):
        grid = SphereGrid(6, 4)
        with pytest.raises(SchemaError):
            GridFunction(grid, np.zeros((4, 6)))
