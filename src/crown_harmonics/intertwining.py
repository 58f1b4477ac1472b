"""Normalized intertwining scalars on each K-type.

Each K-type of the spectral transform obeys the reflection identity
phi(-l-1, m) = b_m(-l-1/2) phi(l, m) with the rational scalar

    b_m(t) = prod_{j=0}^{|m|-1} (1/2 - t + j) / (1/2 + t + j),

which intertwiner_ladder evaluates for every K-type up to a bound at
once, by one cumulative product, and intertwiner_rational for one; the
ladder is the library's only route to b_m. The zonal scalar b_0 is
identically 1.

The acceptance checks measure the same scalar independently. For
K-type m and spectral parameter t the probe integral

    F_m(t; theta) = (1/2*pi) * integral of Q((theta,0), c)^(-t-1/2)
                    * exp(-i m c) dc

is one mode of sphere.kernel_mode_profiles, and the ratio
F_m(-t; theta) / F_m(t; theta) equals b_m(t) at every probe colatitude
theta. probe_integral and intertwiner_scalar compute that ratio for
verify only; probe_integral takes an array of parameters, so a check
that needs F_m at many t on one colatitude builds one log table and
takes one exponential over all of them.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularParameterError
from .sphere import boundary_log_pairing, kernel_mode_profiles

#: probe colatitudes inside the crown (0, pi/2), tried in order until
#: one does not degenerate
_PROBE_LADDER = (0.5, 0.2, 1.0, 0.35, 0.8, 1.2)

#: a probe counts as degenerate when the denominator is this small
#: relative to the pair of integrals at that probe
_DEGENERATE_REL = 1e-12

#: a parameter this close to the pole set of b_m counts as a pole
POLE_TOL = 1e-14


def probe_integral(m: int, t, theta: float):
    """F_m(t; theta), the boundary mode of the pairing power -t-1/2.

    t is a scalar, which gives a complex, or an array, which gives an
    array of its shape from one kernel_mode_profiles call.
    """
    power = -np.asarray(t, dtype=complex) - 0.5
    modes = kernel_mode_profiles(power, boundary_log_pairing(theta), [int(m)])[..., 0, 0]
    return complex(modes) if modes.ndim == 0 else modes


def intertwiner_scalar(m: int, t) -> complex:
    """b_m(t) as the probe-integral ratio F_m(-t)/F_m(t).

    The ratio is taken at the first probe colatitude of the ladder; when
    the denominator integral degenerates there it is retried at the
    next. If every probe degenerates the parameter is singular (the
    scalar is only meromorphic in t) and a SingularParameterError is
    raised.
    """
    t = complex(t)
    for theta in _PROBE_LADDER:
        num = probe_integral(m, -t, theta)
        den = probe_integral(m, t, theta)
        scale = max(abs(num), abs(den), 1.0)
        if abs(den) >= _DEGENERATE_REL * scale:
            return num / den
    raise SingularParameterError(
        f"intertwining scalar b_{m} is singular at t = {t} (all probes degenerate)"
    )


def intertwiner_ladder(kmax: int, t):
    """b_0(t), ..., b_kmax(t) along a new trailing axis, by one cumulative product.

    t is a scalar or an array, and the ladder has its dtype (real t gives
    a real product, exact at the reflected integers t = -n-1/2). A factor
    with denominator exactly 0 (t = -1/2 - j) is masked to 0 before the
    division, so the columns past an exact pole read 0, with no warning.
    """
    t = np.asarray(t)[..., None]
    js = np.arange(int(kmax))
    den = 0.5 + t + js
    ladder = np.ones(den.shape[:-1] + (js.size + 1,), dtype=den.dtype)
    ratio = np.divide(0.5 - t + js, den, out=np.zeros_like(den), where=den != 0)
    np.cumprod(ratio, axis=-1, out=ladder[..., 1:])
    return ladder


def intertwiner_rational(m: int, t):
    """b_m(t) = prod_{j=0}^{|m|-1} (1/2 - t + j) / (1/2 + t + j).

    Equivalent to the gamma ratio
    [Gamma(t+1/2)/Gamma(t+1/2+|m|)] * [Gamma(1/2-t+|m|)/Gamma(1/2-t)].
    It is column |m| of intertwiner_ladder, so the result has the shape
    and the dtype of t. A t within POLE_TOL of a pole (see
    singular_distance) raises SingularParameterError.
    """
    t = np.asarray(t)
    if np.any(singular_distance(m, t) < POLE_TOL):
        raise SingularParameterError(f"closed-form b_{m} has a pole at t = {t}")
    return np.take(intertwiner_ladder(abs(int(m)), t), -1, axis=-1)


def singular_distance(m, t):
    """Distance from t to the nearest pole of b_m (inf for the zonal type).

    The pole set is {-1/2 - j : j = 0..|m|-1}. An order or an array of
    orders m broadcasts against a scalar or an array t: one running
    minimum of |t + 1/2 + j| over j, behind an inf column for m = 0,
    serves every order. A t within POLE_TOL of it is a pole.
    """
    t, ks = np.broadcast_arrays(np.asarray(t), np.abs(np.asarray(m, dtype=int)))
    js = np.arange(ks.max(initial=0))
    running = np.minimum.accumulate(np.abs(t[..., None] + 0.5 + js), axis=-1)
    distance = np.concatenate([np.full(t.shape + (1,), np.inf), running], axis=-1)
    return np.take_along_axis(distance, ks[..., None], axis=-1)[..., 0]
