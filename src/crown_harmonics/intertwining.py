"""Normalized intertwining scalars on each K-type.

For K-type m and spectral parameter t define the probe integral

    F_m(t; theta) = (1/2*pi) * integral of Q((theta,0), c)^(-t-1/2)
                    * exp(-i m c) dc.

The normalized intertwining scalar is the ratio

    b_m(t) = F_m(-t; theta) / F_m(t; theta),

and the operative fact (tested, not assumed) is that the ratio does not
depend on the probe colatitude theta. The zonal scalar b_0 is
identically 1. A closed-form rational candidate is provided separately
and is validated against the quadrature ratio by the test suite before
any other module is allowed to lean on it.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularParameterError
from .sphere import DEFAULT_BOUNDARY_SAMPLES, boundary_log_pairing, kernel_mode_profiles

#: probe colatitudes inside the crown (0, pi/2), tried in order until
#: one does not degenerate
_PROBE_LADDER = (0.5, 0.2, 1.0, 0.35, 0.8, 1.2)

#: a probe counts as degenerate when the denominator is this small
#: relative to the pair of integrals at that probe
_DEGENERATE_REL = 1e-12


def probe_integral(m: int, t, theta: float) -> complex:
    """F_m(t; theta), the boundary mode of the pairing power -t-1/2."""
    t = complex(t)
    lq = boundary_log_pairing(np.array([theta]))
    profiles = kernel_mode_profiles(-t - 0.5, lq)
    return complex(profiles[0, int(m) % DEFAULT_BOUNDARY_SAMPLES])


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


def intertwiner_rational(m: int, t) -> complex:
    """Closed-form rational candidate for b_m(t).

    b_m(t) = prod_{j=0}^{|m|-1} (1/2 - t + j) / (1/2 + t + j),

    equivalent to the gamma ratio
    [Gamma(t+1/2)/Gamma(t+1/2+|m|)] * [Gamma(1/2-t+|m|)/Gamma(1/2-t)].
    The test suite confirms this against intertwiner_scalar before the
    transform layer uses it for reflected evaluation. Poles at
    t = -1/2 - j for j < |m| raise SingularParameterError.
    """
    t = complex(t)
    value = complex(1.0)
    for j in range(abs(int(m))):
        den = 0.5 + t + j
        if abs(den) < 1e-14:
            raise SingularParameterError(
                f"closed-form b_{m} has a pole at t = {t}"
            )
        value *= (0.5 - t + j) / den
    return value


def singular_distance(m: int, t) -> float:
    """Distance from t to the nearest pole of b_m (inf for the zonal type).

    The pole set {-1/2 - j : j = 0..|m|-1} is the one exhibited by the
    validated closed form; symmetry checks skip samples that come
    within a small distance of it.
    """
    m = abs(int(m))
    if m == 0:
        return float("inf")
    t = complex(t)
    return min(abs(t + 0.5 + j) for j in range(m))


def sample_intertwiner(m: int, ts) -> dict:
    """Evaluate b_m over an iterable of parameters as {t: b_m(t)}.

    Singular parameters are skipped.
    """
    out = {}
    for t in ts:
        try:
            out[complex(t)] = complex(intertwiner_scalar(m, t))
        except SingularParameterError:
            continue
    return out
