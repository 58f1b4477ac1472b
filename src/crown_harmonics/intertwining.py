"""Normalized intertwining scalars on each K-type.

Each K-type of the spectral transform obeys the reflection identity
phi(-l-1, m) = b_m(-l-1/2) phi(l, m) with the rational scalar

    b_m(t) = prod_{j=0}^{|m|-1} (1/2 - t + j) / (1/2 + t + j),

which intertwiner_rational evaluates and which is the library's only
route to b_m. The zonal scalar b_0 is identically 1.

The acceptance checks measure the same scalar independently. For
K-type m and spectral parameter t the probe integral

    F_m(t; theta) = (1/2*pi) * integral of Q((theta,0), c)^(-t-1/2)
                    * exp(-i m c) dc

is one mode of sphere.kernel_mode_profiles, and the ratio
F_m(-t; theta) / F_m(t; theta) equals b_m(t) at every probe colatitude
theta. probe_integral and intertwiner_scalar compute that ratio for
verify only.
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


def probe_integral(m: int, t, theta: float) -> complex:
    """F_m(t; theta), the boundary mode of the pairing power -t-1/2."""
    power = -complex(t) - 0.5
    return complex(kernel_mode_profiles(power, boundary_log_pairing(theta), [int(m)])[0, 0])


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


def intertwiner_rational(m: int, t):
    """b_m(t) = prod_{j=0}^{|m|-1} (1/2 - t + j) / (1/2 + t + j).

    Equivalent to the gamma ratio
    [Gamma(t+1/2)/Gamma(t+1/2+|m|)] * [Gamma(1/2-t+|m|)/Gamma(1/2-t)].
    t is a scalar or an array, and the product is taken with numpy
    over a trailing axis, so the result has the shape and the dtype of
    t (real t gives a real product, exact at the reflected integers
    t = -n-1/2). A t within POLE_TOL of a pole (see singular_distance)
    raises SingularParameterError.
    """
    t = np.asarray(t)
    if np.any(singular_distance(m, t) < POLE_TOL):
        raise SingularParameterError(f"closed-form b_{m} has a pole at t = {t}")
    t = t[..., None]
    js = np.arange(abs(int(m)))
    return np.prod((0.5 - t + js) / (0.5 + t + js), axis=-1)


def singular_distance(m: int, t):
    """Distance from t to the nearest pole of b_m (inf for the zonal type).

    The pole set is {-1/2 - j : j = 0..|m|-1}; t is a scalar or an
    array. Symmetry checks skip samples that come within a small
    distance of it.
    """
    js = np.arange(abs(int(m)))
    return np.min(np.abs(np.asarray(t)[..., None] + 0.5 + js), axis=-1, initial=np.inf)
