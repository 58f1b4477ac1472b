"""Tests for the support-radius certification machinery.

Synthetic providers with known growth drive the estimators: a provider
whose log-magnitude lies exactly in the fit basis pins the type fit,
a Casimir-symmetric rational decay provider must certify every radius,
and a constant provider on a nonzero azimuthal type must be rejected
for breaking the reflection symmetry.
"""

import math

import numpy as np
import pytest

from crown_harmonics.errors import CrownDomainError, NumericalError, SchemaError
from crown_harmonics.intertwining import singular_distance
from crown_harmonics.paley_wiener import (
    Calibration,
    _disc_rays,
    _weyl_rays,
    decay_constants,
    decay_profile,
    fit_type,
    pw_report,
    sample_line,
    type_estimate,
    weyl_residual,
)
from crown_harmonics.sphere import GridFunction, SphereGrid
from crown_harmonics.testbed import BumpSpec, make_bump
from crown_harmonics.transform import ExtendProvider, ray_points, synthesize
from oracles import FakeProvider


def symmetric_poly_provider():
    # phi depends on l only through the Casimir value l(l+1), which is
    # invariant under l -> -l-1, so the reflection identity holds with
    # the trivial m=0 scalar; the decay is kept gentle so the disc
    # maxima are resolved at the base lattice
    return FakeProvider(
        lambda ell, m: 1.0 / (25.0 + abs(ell * (ell + 1.0))),
        ktypes=(0,),
    )


class CountingProvider(FakeProvider):
    """FakeProvider that records the point count of every eval_rays call."""

    def __init__(self, fn, ktypes):
        super().__init__(fn, ktypes)
        self.batches = []

    def eval_rays(self, origins, steps, n):
        values = super().eval_rays(origins, steps, n)
        self.batches.append(len(values))
        return values


class TestTypeFit:
    def test_zero_provider(self):
        provider = FakeProvider(lambda ell, m: 0.0, ktypes=(0,))
        te = type_estimate(provider)
        assert (te.r_hat, te.lower, te.upper) == (0.0, 0.0, 0.0)

    def test_recovers_rate_in_basis(self):
        # log|phi| = r t - 1.5 log t - 2 + 3/t lies in the fit basis, so
        # the least-squares residual vanishes and r is reproduced
        r = 0.6180339887
        ts = np.linspace(0.5, 80.0, 160)
        vals = np.exp(r * ts - 1.5 * np.log(ts) - 2.0 + 3.0 / ts)
        te = fit_type(ts, vals)
        assert abs(te.r_hat - r) < 1e-6
        assert te.upper - te.lower < 1e-6

    def test_each_ktype_is_fitted_and_the_largest_upper_wins(self):
        # the larger-type row stays below the other on the whole line, so
        # a fit of the row-wise maximum would read the smaller rate
        ts = np.linspace(0.5, 80.0, 160)
        rows = np.array([np.exp(0.3 * ts + 5.0), np.exp(0.45 * ts - 8.0)])
        te = fit_type(ts, rows)
        assert abs(te.r_hat - 0.45) < 1e-6
        assert te == fit_type(ts, rows[1])
        assert te == fit_type(ts, rows[::-1])

    def test_polynomial_decay_reads_as_type_zero(self):
        te = type_estimate(symmetric_poly_provider())
        assert te.r_hat <= 0.02

    def test_too_few_tail_samples(self):
        ts = np.linspace(1.0, 10.0, 10)
        vals = np.exp(ts)
        with pytest.raises(NumericalError):
            fit_type(ts, vals, tail_fraction=0.2)

    def test_sample_line_shape(self):
        ts, vals = sample_line(symmetric_poly_provider(), t_max=10.0,
                               n_samples=20)
        # one row of magnitudes per K-type
        assert ts.shape == (20,) and vals.shape == (1, 20)
        assert ts[0] > 0.0 and abs(ts[-1] - 10.0) < 1e-12
        assert np.all(vals >= 0.0)

    def test_sample_line_rows_follow_sorted_ktypes(self):
        provider = FakeProvider(lambda ell, m: m, ktypes=(2, -1))
        _, vals = sample_line(provider, t_max=10.0, n_samples=8)
        assert np.array_equal(vals, [[1.0] * 8, [2.0] * 8])


class TestDecayConstants:
    def test_ratios_at_least_one(self):
        provider = symmetric_poly_provider()
        profile = decay_profile(provider, disc_radius=10.0)
        consts, ratios = decay_constants(profile, 0.5, kmax=3)
        for k in range(4):
            assert math.isfinite(consts[k]) and consts[k] > 0.0
            assert ratios[k] >= 1.0

    def test_zero_provider_ratios_default_to_one(self):
        provider = FakeProvider(lambda ell, m: 0.0, ktypes=(0,))
        consts, ratios = decay_constants(decay_profile(provider), 0.5, kmax=2)
        assert all(consts[k] == 0.0 for k in range(3))
        assert all(ratios[k] == 1.0 for k in range(3))

    def test_negative_radius_rejected(self):
        with pytest.raises(CrownDomainError):
            decay_constants(decay_profile(symmetric_poly_provider()), -0.1)


class TestWeylResidual:
    def test_symmetric_provider_near_zero(self):
        assert weyl_residual(symmetric_poly_provider()) < 1e-12

    def test_no_ktypes_raises_schema_error(self):
        provider = FakeProvider(lambda ell, m: 1.0, ktypes=())
        with pytest.raises(SchemaError, match="provider exposes no azimuthal types"):
            weyl_residual(provider)

    def test_constant_on_type_one_breaks_symmetry(self):
        provider = FakeProvider(lambda ell, m: 1.0, ktypes=(1,))
        assert weyl_residual(provider) > 0.1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_values_that_are_not_finite_raise(self, bad):
        # a reflected side that is not finite would otherwise read a
        # residual of 0 (nan) or nan (inf), which a tolerance test passes;
        # the error names the first reflected point, -0.3 - iy - 1 at
        # y = -0.9
        provider = FakeProvider(lambda ell, m: bad if ell.real < -1.0 else 1.0, ktypes=(1,))
        with pytest.raises(NumericalError, match=r"not finite at l=-1\.3\+0\.9j, m=1$"):
            weyl_residual(provider)

    def test_lattice_is_four_rays_per_side(self):
        # the reflected rays are -l-1 of the direct ones up to the roundoff
        # of their origins and steps, and every point lies at least 0.3
        # from each pole (-1/2 - j) and zero (1/2 + j) of b_m at t = -l-1/2
        points = ray_points(*_weyl_rays(), 4)
        direct, reflected = points[:4].ravel(), points[4:].ravel()
        assert direct.size == reflected.size == 16
        assert np.all(np.abs(reflected + direct + 1.0) <= 4 * np.finfo(float).eps * np.abs(reflected))
        t = -direct - 0.5
        ms = np.arange(65)[:, None]
        assert singular_distance(ms, t).min() >= 0.3
        assert singular_distance(ms, -t).min() >= 0.3

    @pytest.mark.parametrize("r", [0.35, 0.7, 1.0, 1.3])
    @pytest.mark.parametrize("cls", ["smooth-zonal", "smooth-ktype1", "two-type", "cospow-p8"])
    def test_symmetry_lattice_takes_the_direct_route(self, cls, r):
        # the residual multiplies provider values by the closed-form b_m;
        # if ExtendProvider reflected either side, it would apply the same
        # b_m and the check would hold by construction. Both sides must be
        # the direct-only recurrence along each ray, bit for bit: the
        # eight origins differ, so each takes its own exponential, and the
        # step 1/2 takes one, which the reflected side's step -1/2 takes
        # the reciprocal of
        grid = SphereGrid(144, 8)
        if cls == "two-type":
            f = GridFunction(grid, make_bump(BumpSpec(0.6 * r), grid).values
                             + make_bump(BumpSpec(r, ktype=2), grid).values)
        else:
            spec = {"smooth-zonal": BumpSpec(r), "smooth-ktype1": BumpSpec(r, ktype=1),
                    "cospow-p8": BumpSpec(r, "cospow", p=8)}[cls]
            f = make_bump(spec, grid)
        provider = ExtendProvider(f)
        origins, steps = _weyl_rays()
        powers, kernel_of = [], provider._kernel
        provider._kernel = lambda power: powers.append(power) or kernel_of(power)
        got, calls = provider.eval_rays(origins, steps, 4), len(powers)
        reference, held = [], (None, None)
        for origin, step in zip(origins, steps):
            kernel = provider._kernel(origin)
            if held[0] != step:
                held = (step, np.reciprocal(held[1]) if held[0] == -step
                        else provider._kernel(step))
            for j in range(4):
                if j:
                    kernel *= held[1]
                reference.append(provider._contract(kernel))
        assert np.array_equal(got, reference)
        assert calls == len(powers) - calls == 9


class TestCalibration:
    def test_replaced_unknown_key(self):
        with pytest.raises(SchemaError):
            Calibration().replaced(no_such_knob=1.0)

    def test_replaced_round_trip(self):
        calib = Calibration().replaced(weyl_tol=1e-4, decay_kmax=2)
        assert calib.weyl_tol == 1e-4
        assert calib.decay_kmax == 2
        assert calib.as_dict()["weyl_tol"] == 1e-4

    @pytest.mark.parametrize("key, value", [
        ("type_slack", float("inf")),
        ("type_slack", float("nan")),
        ("type_slack", -0.01),
        ("weyl_tol", 0.0),
        ("decay_ratio_max", -2.0),
        ("disc_radius", 0.0),
        ("t_max", -40.0),
        ("decay_kmax", -1),
        ("n_samples", 7),
        ("tail_fraction", 0.0),
        ("tail_fraction", 1.5),
        ("decay_kmax", 1.5),
        ("decay_kmax", True),
        ("n_samples", 80.5),
        ("n_samples", True),
    ])
    def test_rejects_out_of_range_values(self, key, value):
        with pytest.raises(SchemaError):
            Calibration(**{key: value})
        with pytest.raises(SchemaError):
            Calibration().replaced(**{key: value})

    def test_accepts_the_edges_of_each_range(self):
        calib = Calibration(type_slack=0.0, decay_kmax=0, n_samples=8, tail_fraction=1.0)
        assert calib.as_dict()["n_samples"] == 8


class TestReport:
    def test_symmetric_provider_passes_everywhere(self):
        report = pw_report(symmetric_poly_provider(), [0.2, 0.7, 1.3])
        for r in (0.2, 0.7, 1.3):
            assert report.passed(r), report.verdict_for(r).reasons

    def test_asymmetric_provider_fails_with_symmetry_reason(self):
        provider = FakeProvider(lambda ell, m: 1.0, ktypes=(1,))
        report = pw_report(provider, [0.5])
        verdict = report.verdict_for(0.5)
        assert not verdict.passed
        assert any("symmetry residual" in reason for reason in verdict.reasons)

    def test_radii_validation(self):
        provider = symmetric_poly_provider()
        with pytest.raises(SchemaError):
            pw_report(provider, [])
        with pytest.raises(CrownDomainError):
            pw_report(provider, [2.0])
        with pytest.raises(CrownDomainError):
            pw_report(provider, [0.0])

    def test_bump_certifies_true_radius_and_rejects_smaller(self):
        bump = make_bump(BumpSpec(radius=0.8), SphereGrid(144, 8))
        report = pw_report(ExtendProvider(bump), [0.4, 0.9])
        assert not report.passed(0.4)
        assert report.passed(0.9), report.verdict_for(0.9).reasons
        reason = " ".join(report.verdict_for(0.4).reasons)
        assert "type upper bound" in reason

    @pytest.mark.parametrize("spec", [BumpSpec(0.3, "cospow", p=8), BumpSpec(0.6, "cospow", p=8),
                                      BumpSpec(0.9, "cospow", p=8), BumpSpec(0.3, ktype=2),
                                      BumpSpec(0.6, ktype=2), BumpSpec(0.9, ktype=2)],
                             ids=lambda spec: f"{spec.profile}-m{spec.ktype}-r{spec.radius}")
    def test_certificate_classes(self, spec):
        # finitely smooth and K-type 2 bumps: the default calibration
        # rejects half the true radius and accepts 1.1 times it
        r = spec.radius
        report = pw_report(ExtendProvider(make_bump(spec, SphereGrid(144, 8))), [r / 2, 1.1 * r])
        assert not report.passed(r / 2)
        assert report.passed(1.1 * r), report.verdict_for(1.1 * r).reasons

    def test_decay_ratios_are_taken_at_r_hat(self):
        # the constants and ratios both come from the r_hat weight; on the
        # r = 1.0 bump those ratios differ from the ones at radius 0.5
        provider = ExtendProvider(make_bump(BumpSpec(radius=1.0), SphereGrid(144, 8)))
        report = pw_report(provider, [0.5, 1.1])
        calib = report.calibration
        profile = decay_profile(provider, calib.disc_radius)
        at_hat = decay_constants(profile, report.type_estimate.r_hat, calib.decay_kmax)
        assert report.decay_constants == at_hat[0]
        assert report.decay_ratios == at_hat[1]
        at_tight = decay_constants(profile, 0.5, calib.decay_kmax)
        assert report.decay_ratios != at_tight[1]

    def test_each_stage_is_one_batched_call(self):
        # line, disc and symmetry lattice (both sides of the identity):
        # one eval_rays call each, and the disc evaluates only the refined
        # lattice, since the base lattice is every other point of it; its
        # 32 rays start at the centre, 17 points each
        provider = CountingProvider(lambda ell, m: 1.0 / (25.0 + abs(ell * (ell + 1.0))),
                                    ktypes=(0, 1))
        pw_report(provider, [0.5])
        assert provider.batches == [160, 544, 32]
        provider.batches.clear()
        synthesize(provider, SphereGrid(8, 8), 6)
        assert provider.batches == [7]

    def test_base_disc_lattice_is_read_from_the_refined_one(self):
        # the refined lattice is evaluated along rays from the centre, which
        # is dropped, so its every other radius and angle is the base
        # lattice up to the roundoff of the ray steps; the angles of the
        # base lattice are the rays 4k and 4k + 1, a pair of opposite steps
        base_pts, base_mags, dense_pts, dense_mags = decay_profile(symmetric_poly_provider(), 20.0)
        assert np.array_equal(dense_pts, ray_points(*_disc_rays(20.0, 16, 32), 17)[:, 1:].T.ravel())
        base_angles = np.arange(32) % 4 < 2
        assert np.array_equal(base_pts, dense_pts.reshape(16, 32)[1::2, base_angles].ravel())
        shift = np.max(np.abs(base_pts - ray_points(*_disc_rays(20.0, 8, 16), 9)[:, 1:].T.ravel()))
        assert shift <= 8 * np.finfo(float).eps * 20.0
        for ell, mag in zip(base_pts, base_mags):
            assert mag == dense_mags[np.flatnonzero(dense_pts == ell)[0]]

    def test_kernel_exponentials_one_per_ray(self, monkeypatch):
        # every lattice of pw_report and the rebuild is made of rays, and
        # within one eval_rays call a kernel power takes one exponential:
        # the disc's 32 rays share the start -1/2 and come in 16 pairs of
        # opposite steps (1 + 16), the symmetry lattice has 8 starts and
        # the steps +-1/2 (8 + 1), the line and the rebuild 2 each. Per
        # point, these would be 865
        provider = ExtendProvider(make_bump(BumpSpec(radius=1.0), SphereGrid(144, 8)))
        exp, shapes = np.exp, []
        monkeypatch.setattr(np, "exp",
                            lambda x, *a, **k: shapes.append(np.shape(x)) or exp(x, *a, **k))
        pw_report(provider, [0.5, 1.1])
        synthesize(provider, SphereGrid(144, 16), 128)
        monkeypatch.undo()
        assert shapes.count(provider._log_q.shape) <= 30

    def test_line_overflow_names_the_first_bad_t(self):
        # t_max = 1000 drives the r = 1.3 bump past the float range; the
        # report names the first sample that is not finite and the last
        # clean one
        provider = ExtendProvider(make_bump(BumpSpec(radius=1.3), SphereGrid(144, 8)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError,
                               match=r"at t=568\.75; achieved ceiling t=562\.5$"):
                sample_line(provider, 1000.0, 160)

    def test_two_type_class_certifies_at_line_tmax_160(self):
        # a zonal bump of radius 0.45 plus a K-type 2 bump of radius 0.75:
        # with each K-type summed over its own support rows, roundoff left
        # in the zonal column beyond 0.45 no longer grows like e^{t theta}
        # and takes over the zonal fit at t = 160
        r, grid = 0.75, SphereGrid(144, 8)
        f = GridFunction(grid, make_bump(BumpSpec(0.6 * r), grid).values
                         + make_bump(BumpSpec(r, ktype=2), grid).values)
        report = pw_report(ExtendProvider(f), [r / 2, 1.1 * r],
                           Calibration(t_max=160.0, n_samples=320))
        assert not report.passed(r / 2)
        assert report.passed(1.1 * r), report.verdict_for(1.1 * r).reasons

    def test_report_carries_inputs(self):
        report = pw_report(symmetric_poly_provider(), [0.5])
        ts, vals = report.line_samples
        assert len(ts) == report.calibration.n_samples
        assert len(vals) == len(ts)
        assert "symmetry lattice" in report.samples_used
        assert report.ktypes == (0,)
        with pytest.raises(KeyError):
            report.verdict_for(0.25)
