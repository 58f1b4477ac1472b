"""Support-radius certification from spectral data.

Given a coefficient provider, this module estimates the exponential
type along the tempered line, checks the reflection symmetry against
the closed-form intertwining scalars, and combines the two into a
per-radius verdict: the spectral data is consistent with support in a
cap of that radius or it is not. Polynomially-weighted decay constants
on a disc of spectral parameters are reported beside the verdicts as
evidence of the growth condition.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CrownDomainError, NumericalError, SchemaError
from .intertwining import intertwiner_ladder
from .transform import ray_points

_WEYL_IM = (-0.9, -0.3, 0.4, 1.1)
_WEYL_POINTS = 4

_DISC_RADII = 16
_DISC_ANGLES = 32


@dataclass(frozen=True)
class Calibration:
    """Tunable thresholds for the certification verdict.

    weyl_tol bounds the reflection-symmetry residual, type_slack is the
    multiplicative allowance on the candidate radius when compared with
    the type interval's upper end. decay_kmax is the highest order of the
    reported decay constants. The line and disc sampling parameters are
    exposed so the report is fully reproducible from its calibration
    alone. A non-finite or out-of-range value, a decay_kmax or n_samples
    that is not an int (a bool counts as not), an n_samples and
    tail_fraction that leave fit_type fewer than 8 tail samples, or a
    decay_kmax whose weight (1.5 + disc_radius)^decay_kmax at the disc's
    rim is not below the largest float raises SchemaError.
    """

    weyl_tol: float = 1e-6
    type_slack: float = 0.10
    decay_kmax: int = 3
    t_max: float = 80.0
    n_samples: int = 160
    tail_fraction: float = 0.5
    disc_radius: float = 20.0

    def __post_init__(self):
        broken = [f"finite {k}" for k, v in self.as_dict().items() if not math.isfinite(v)]
        broken += [f"integer {k}" for k in ("decay_kmax", "n_samples")
                   if isinstance(getattr(self, k), bool)
                   or not isinstance(getattr(self, k), numbers.Integral)]
        broken += [rule for rule, holds in (
            ("weyl_tol > 0", self.weyl_tol > 0), ("type_slack >= 0", self.type_slack >= 0),
            ("t_max > 0", self.t_max > 0), ("decay_kmax >= 0", self.decay_kmax >= 0),
            ("n_samples >= 8", self.n_samples >= 8),
            ("0 < tail_fraction <= 1", 0 < self.tail_fraction <= 1),
            ("disc_radius > 0", self.disc_radius > 0)) if not holds]
        if not broken and self.n_samples - _tail_start(self.n_samples, self.tail_fraction) < 8:
            broken.append("n_samples - round(n_samples * (1 - tail_fraction)) >= 8, "
                          "the tail samples of the type fit")
        if not broken and (self.decay_kmax * math.log(1.5 + self.disc_radius)
                           >= math.log(sys.float_info.max)):
            broken.append("decay_kmax * log(1.5 + disc_radius) < log(largest float), "
                          "the decay weight at the disc's rim")
        if broken:
            raise SchemaError("calibration needs " + ", ".join(broken))

    def replaced(self, **overrides) -> "Calibration":
        try:
            return dataclasses.replace(self, **overrides)
        except TypeError as exc:
            raise SchemaError(f"unknown calibration key: {exc}") from exc

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TypeEstimate:
    """Estimated exponential type along Re l = -1/2 with an interval."""

    r_hat: float
    lower: float
    upper: float
    t_max: float
    n_samples: int


def sample_line(provider, t_max: float = 40.0, n_samples: int = 160):
    """Sample |phi(-1/2 + it, m)| for t in (0, t_max], K-type by K-type.

    The samples are the ray -1/2 + i t_max/n_samples (j + 1), j = 0..
    n_samples - 1, from one eval_rays call. Returns (ts, magnitudes),
    where ts are the evaluated t and magnitudes has shape (number of
    K-types, n_samples), one row per K-type in ascending order.
    Overflow in the provider is reported with the largest t that was
    still evaluated cleanly.
    """
    if t_max <= 0 or n_samples < 8:
        raise SchemaError("need t_max > 0 and at least 8 line samples")
    if not provider.ktypes:
        raise SchemaError("provider exposes no azimuthal types")
    step = 1j * (t_max / n_samples)
    ts = ray_points(-0.5 + step, step, n_samples)[0].imag
    values = provider.eval_rays(-0.5 + step, step, n_samples)
    clean = np.all(np.isfinite(values), axis=1)
    if not clean.all():
        i = int(np.argmin(clean))
        achieved = ts[i - 1] if i else 0.0
        raise NumericalError(
            f"provider overflowed on the line at t={ts[i]:.6g}; "
            f"achieved ceiling t={achieved:.6g}"
        )
    return ts, np.abs(values).T


def type_estimate(provider, t_max: float = 40.0, n_samples: int = 160,
                  tail_fraction: float = 0.5) -> TypeEstimate:
    """Exponential type of the provider along the tempered line.

    Each K-type is fitted on its own line samples (see fit_type); the
    type of a K-finite function is the largest type among its K-type
    components, so the fit with the largest upper end is returned. The
    arguments are checked by Calibration's rules before the provider is
    called: a tail_fraction outside (0, 1], or one that leaves fit_type
    fewer than 8 tail samples, raises SchemaError.
    """
    Calibration(t_max=t_max, n_samples=n_samples, tail_fraction=tail_fraction)
    ts, vals = sample_line(provider, t_max, n_samples)
    return fit_type(ts, vals, tail_fraction)


def _tail_start(n_samples: int, tail_fraction: float) -> int:
    """Index of the first line sample in the tail that fit_type fits."""
    return int(round(n_samples * (1.0 - tail_fraction)))


def fit_type(ts, vals, tail_fraction: float = 0.5) -> TypeEstimate:
    """Type fit on an existing line scan.

    vals holds one magnitude series, or one row per K-type, in which
    case every row is fitted and the fit with the largest upper end is
    returned. The tail of a series is fitted against the basis
    {t, log(t), 1, 1/t}, the asymptotic form of log |phi| on the line;
    the coefficient of t is the type. The interval is r_hat +/- 2
    standard errors, clamped at 0.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise SchemaError("tail_fraction must lie in (0, 1]")
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 2:
        fits = [fit_type(ts, row, tail_fraction) for row in vals]
        return max(fits, key=lambda te: te.upper)
    n_samples = ts.size
    t_max = float(ts[-1])
    if np.max(vals) == 0.0:
        return TypeEstimate(0.0, 0.0, 0.0, t_max, n_samples)
    start = _tail_start(n_samples, tail_fraction)
    tt = ts[start:]
    vv = vals[start:]
    keep = vv > 0.0
    tt, vv = tt[keep], vv[keep]
    if tt.size < 8:
        raise NumericalError("too few nonzero tail samples for the type fit")
    y = np.log(vv)
    design = np.column_stack([tt, np.log(tt), np.ones_like(tt), 1.0 / tt])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(tt.size - design.shape[1], 1)
    sigma2 = float(resid @ resid) / dof
    gram_inv = np.linalg.inv(design.T @ design)
    se = math.sqrt(max(sigma2 * gram_inv[0, 0], 0.0))
    r_hat = max(float(coef[0]), 0.0)
    return TypeEstimate(
        r_hat=r_hat,
        lower=max(r_hat - 2.0 * se, 0.0),
        upper=r_hat + 2.0 * se,
        t_max=t_max,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# decay constants on a spectral disc


def _require_finite(values, points, ktypes):
    """Raise NumericalError naming the first point and K-type whose value is not finite."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise NumericalError(f"provider not finite at l={points[i]:.4g}, m={ktypes[j]}")


def _disc_rays(disc_radius: float, n_radii: int, n_angles: int):
    """(origins, steps) of the disc lattice: n_angles rays from the centre
    -1/2, read at n_radii + 1 points, with steps (disc_radius / n_radii)
    e^{i angle} at the angles 2 pi k / n_angles, n_angles a multiple of 4.
    The steps come in exact pairs +step, -step, each pair adjacent: the
    angles k < n_angles / 2, each followed by its opposite. The steps of
    the first quadrant, k <= n_angles / 4, are computed, the one at pi/2
    exactly imaginary, and each step of the second quadrant is the exact
    -conj of one of them. So every ray past the first n_angles / 2 + 1
    is the exact conjugate of an earlier one."""
    quarter = n_angles // 4
    angles = 2.0 * math.pi * np.arange(quarter) / n_angles
    first = np.append(disc_radius / n_radii * np.exp(1j * angles), 1j * (disc_radius / n_radii))
    half = np.concatenate([first, -first[quarter - 1:0:-1].conj()])
    return np.full(n_angles, -0.5 + 0.0j), np.stack([half, -half], axis=1).ravel()


def decay_profile(provider, disc_radius: float = 20.0):
    """Evaluate max_m |phi| on a lattice over |l + 1/2| <= R.

    The 16 radii x 32 angles are one eval_rays call over 32 rays from
    the centre -1/2 (see _disc_rays), read at 17 points each; the centre
    is dropped. Rays 17..31 are the exact conjugates of earlier rays, so
    an ExtendProvider computes 17 rays (289 points), from the start and
    nine step kernels, and reads the other 15 from their kernels.
    Returns (points, magnitudes), radius-major with the points as
    evaluated; evaluate once, reuse for every radius.
    """
    ktypes = sorted(provider.ktypes)
    if not ktypes:
        raise SchemaError("provider exposes no azimuthal types")
    origins, steps = _disc_rays(disc_radius, _DISC_RADII, _DISC_ANGLES)
    # radius-major: row k of the lattice is radius (k + 1) R / _DISC_RADII
    points = ray_points(origins, steps, _DISC_RADII + 1)[:, 1:].T.ravel()
    # ray-major (angle, radius) to the radius-major layout of points
    values = provider.eval_rays(origins, steps, _DISC_RADII + 1)
    values = values.reshape(_DISC_ANGLES, _DISC_RADII + 1, -1)[:, 1:]
    values = values.transpose(1, 0, 2).reshape(points.size, -1)
    _require_finite(values, points, ktypes)
    return points, np.abs(values).max(axis=1)


def decay_constants(profile, r: float, kmax: int = 3):
    """Weighted sup constants C_k = max |phi| (1+|l|)^k e^{-r |Im l|}.

    profile is the output of decay_profile, so one disc scan serves
    every radius. Returns {k: C_k} for k = 0..kmax. A constant whose
    weighted magnitude overflows reads inf.
    """
    if r < 0.0:
        raise CrownDomainError("decay weight radius must be nonnegative")
    points, mags = profile
    constants = {}
    with np.errstate(over="ignore"):
        for k in range(kmax + 1):
            weighted = mags * (1.0 + np.abs(points)) ** k * np.exp(-r * np.abs(points.imag))
            constants[k] = float(np.max(weighted))
    return constants


# ---------------------------------------------------------------------------
# reflection symmetry


def _weyl_rays():
    """(origins, steps) of the symmetry lattice: four rays of four points
    along Re l, from 0.3 + iy with step 1/2, then their reflections -l-1,
    from -0.3 - iy - 1 with step -1/2."""
    origins = 0.3 + 1j * np.array(_WEYL_IM)
    return (np.concatenate([origins, -origins - 1.0]),
            np.repeat([0.5, -0.5], origins.size))


def weyl_residual(provider) -> float:
    """Worst relative defect of phi(-l-1, m) = b_m(-l-1/2) phi(l, m).

    Both sides are read in one eval_rays call over the eight rays of
    _weyl_rays, and b_m is the closed form of intertwining, one
    intertwiner_ladder call read at column |m| per K-type, so the
    residual is the theorem's symmetry condition for any provider.
    Every point has |Im l| >= 0.3, so it lies at least 0.3 from each
    zero and pole of b_m. For an ExtendProvider both sides come from
    the direct route, which never uses b_m. A provider value that is
    not finite raises NumericalError naming the first such point.
    """
    ktypes = sorted(provider.ktypes)
    if not ktypes:
        raise SchemaError("provider exposes no azimuthal types")
    origins, steps = _weyl_rays()
    points = ray_points(origins, steps, _WEYL_POINTS).ravel()
    values = provider.eval_rays(origins, steps, _WEYL_POINTS)
    _require_finite(values, points, ktypes)
    direct, reflected = np.split(values, 2)
    ks = np.abs(ktypes)
    rhs = intertwiner_ladder(ks.max(), -points[:points.size // 2] - 0.5)[:, ks] * direct
    scale = np.maximum(np.abs(reflected), np.abs(rhs))
    nonzero = scale > 0.0
    return float(np.max(np.abs(reflected - rhs)[nonzero] / scale[nonzero], initial=0.0))


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class RadiusVerdict:
    radius: float
    passed: bool
    reasons: tuple


@dataclass(frozen=True)
class PWReport:
    """Bundle of spectral evidence plus per-radius verdicts.

    decay_constants are taken at the type estimate r_hat: evidence of
    the growth condition, reported beside the verdicts and part of none.
    line_samples holds the line scan as (ts, max over K-types of |phi|).
    """

    ktypes: tuple
    type_estimate: TypeEstimate
    decay_constants: dict
    weyl_residual: float
    verdicts: tuple
    samples_used: str
    calibration: Calibration
    line_samples: tuple = dataclasses.field(default=(), repr=False)

    def verdict_for(self, radius: float) -> RadiusVerdict:
        for v in self.verdicts:
            if v.radius == radius:
                return v
        raise KeyError(radius)

    def passed(self, radius: float) -> bool:
        return self.verdict_for(radius).passed


def pw_report(provider, candidate_radii, calibration: Calibration | None = None) -> PWReport:
    """Judge whether spectral data is consistent with each support radius.

    A radius passes when the type interval's upper end does not exceed
    the radius (with multiplicative slack) and the reflection-symmetry
    residual is below tolerance. The expensive pieces (line scan, disc
    scan, symmetry lattice) are computed once and shared across all
    candidate radii, each from one eval_rays call. A decay constant at
    r_hat that is not finite raises NumericalError naming its order.
    """
    calib = calibration or Calibration()
    radii = sorted(float(r) for r in candidate_radii)
    if not radii:
        raise SchemaError("need at least one candidate radius")
    for r in radii:
        if not 0.0 < r < math.pi / 2.0:
            raise CrownDomainError(
                f"candidate radius {r} outside the crown range (0, pi/2)"
            )

    ts, line_vals = sample_line(provider, calib.t_max, calib.n_samples)
    te = fit_type(ts, line_vals, calib.tail_fraction)
    line_vals = line_vals.max(axis=0)
    profile = decay_profile(provider, calib.disc_radius)
    wr = weyl_residual(provider)
    hat_constants = decay_constants(profile, te.r_hat, calib.decay_kmax)
    overflowed = [k for k, c in hat_constants.items() if not math.isfinite(c)]
    if overflowed:
        raise NumericalError(f"decay constant C_{overflowed[0]} at r_hat={te.r_hat:.6g} "
                             f"overflowed on the disc |l+1/2| <= {calib.disc_radius:g}")

    verdicts = []
    for r in radii:
        reasons = []
        if te.upper > r * (1.0 + calib.type_slack):
            reasons.append(f"type upper bound {te.upper:.6g} exceeds radius {r:.6g} "
                           f"(slack {calib.type_slack:g})")
        if wr > calib.weyl_tol:
            reasons.append(f"symmetry residual {wr:.6g} exceeds tolerance {calib.weyl_tol:g}")
        verdicts.append(RadiusVerdict(r, not reasons, tuple(reasons)))

    samples_used = (
        f"line Re l = -1/2: {calib.n_samples} samples to t_max={calib.t_max:g}; "
        f"disc |l+1/2| <= {calib.disc_radius:g}: {_DISC_RADII * _DISC_ANGLES} points, "
        f"{_DISC_RADII} radii x {_DISC_ANGLES} angles; symmetry lattice: "
        f"{len(_WEYL_IM)} rays of {_WEYL_POINTS} points per side"
    )
    return PWReport(ktypes=tuple(sorted(provider.ktypes)), type_estimate=te,
                    decay_constants=hat_constants, weyl_residual=wr, verdicts=tuple(verdicts),
                    samples_used=samples_used, calibration=calib, line_samples=(ts, line_vals))
