"""Controlled test functions and independent cross-check transforms.

This module generates cap-supported bumps with closed-form radial
derivatives, random band-limited functions from seeded coefficient
tables, and a classical projection transform (oracle_sht) that shares
no inner loops with the kernel route in transform.analyze. The bridge
between the two coefficient conventions is measured from test functions
(bridge_factors) and held to its closed form (bridge_factor_candidate)
by verify's classical-bridge check; library code never assumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .numerics import assoc_legendre, complex_abs
from .sphere import GridFunction, SphereGrid, require_resolution
from .transform import CoefficientTable, TableProvider, analyze, lm_grid, synthesize

PROFILE_SMOOTH = "smooth"
PROFILE_COSPOW = "cospow"


@dataclass(frozen=True)
class BumpSpec:
    """Recipe for a cap-supported bump.

    radius is the geodesic support radius (must stay inside the crown),
    profile selects the radial shape, p is the cosine-power exponent,
    ktype the azimuthal type (0 for a zonal bump), center the cap
    center as (theta, phi) with the pole as default.
    """

    radius: float
    profile: str = PROFILE_SMOOTH
    p: int = 8
    ktype: int = 0
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.radius < math.pi / 2.0:
            raise SchemaError(f"bump radius must lie in (0, pi/2), got {self.radius}")
        if self.profile not in (PROFILE_SMOOTH, PROFILE_COSPOW):
            raise SchemaError(f"unknown profile {self.profile!r}")
        if self.profile == PROFILE_COSPOW and self.p < 8:
            raise SchemaError("cosine-power profile needs exponent p >= 8")
        if self.ktype != 0 and tuple(self.center) != (0.0, 0.0):
            raise SchemaError("K-type bumps must be centered at the pole")


def _on_cap(radius, fn):
    """theta -> fn(theta) where |theta| < radius, exact zeros elsewhere.

    fn sees only the samples inside the cap.
    """

    def on_cap(theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        inside = np.abs(theta) < radius
        out[inside] = fn(theta[inside])
        return out

    return on_cap


def _smooth_g(radius):
    r2 = radius * radius

    def g(t):
        t2 = t ** 2
        return np.exp(-t2 / (r2 - t2))

    def g1(t):
        d = r2 - t * t
        return np.exp(-t * t / d) * (-2.0 * t * r2 / d**2)

    def g2(t):
        t2 = t * t
        d = r2 - t2
        w1 = -2.0 * t * r2 / d**2
        w2 = -2.0 * r2 * (r2 + 3.0 * t2) / d**3
        return np.exp(-t2 / d) * (w1 * w1 + w2)

    return _on_cap(radius, g), _on_cap(radius, g1), _on_cap(radius, g2)


def _cospow_g(radius, p):
    a = math.pi / (2.0 * radius)

    def g(t):
        return np.cos(a * t) ** p

    def g1(t):
        c, s = np.cos(a * t), np.sin(a * t)
        return -p * a * c ** (p - 1) * s

    def g2(t):
        c, s = np.cos(a * t), np.sin(a * t)
        return p * a * a * ((p - 1) * c ** (p - 2) * s * s - c**p)

    return _on_cap(radius, g), _on_cap(radius, g1), _on_cap(radius, g2)


class Bump(GridFunction):
    """Cap-supported test function with closed-form radial derivatives.

    Behaves as a GridFunction (grid + sampled values) and additionally
    exposes the handle protocol used by rotation derivatives and the
    intertwining checks: .ktype, .profile(theta) for the full radial
    factor h with f = exp(i*ktype*phi) h(theta), and .profile_d1 for
    its derivative. The bare cap shape g and its first two derivatives
    are available as .g/.g1/.g2.
    """

    def __init__(self, spec: BumpSpec, grid: SphereGrid):
        self.spec = spec
        self.ktype = int(spec.ktype)
        self.handle_ok = tuple(spec.center) == (0.0, 0.0)
        if spec.profile == PROFILE_SMOOTH:
            self.g, self.g1, self.g2 = _smooth_g(spec.radius)
        else:
            self.g, self.g1, self.g2 = _cospow_g(spec.radius, spec.p)
        theta_c, phi_c = spec.center
        if (theta_c, phi_c) == (0.0, 0.0):
            h = self.profile(grid.theta)
            values = np.outer(h, np.exp(1j * self.ktype * grid.phi_nodes))
        else:
            # off-pole cap: zonal profile of the geodesic distance
            cos_d = (
                math.cos(theta_c) * np.cos(grid.theta)[:, None]
                + math.sin(theta_c)
                * np.sin(grid.theta)[:, None]
                * np.cos(grid.phi_nodes[None, :] - phi_c)
            )
            values = self.g(np.arccos(np.clip(cos_d, -1.0, 1.0))).astype(complex)
        super().__init__(grid, values)

    def _require_pole_centered(self):
        if tuple(self.spec.center) != (0.0, 0.0):
            raise SchemaError("closed-form partials are available for "
                              "pole-centered bumps only")

    def profile(self, theta):
        """Radial factor h(theta) = sin(theta)^{|ktype|} g(theta)."""
        self._require_pole_centered()
        theta = np.asarray(theta, dtype=float)
        k = abs(self.ktype)
        return np.sin(theta) ** k * self.g(theta) if k else self.g(theta) + 0.0j

    def profile_d1(self, theta):
        """Derivative of the radial factor."""
        self._require_pole_centered()
        theta = np.asarray(theta, dtype=float)
        k = abs(self.ktype)
        if k == 0:
            return self.g1(theta) + 0.0j
        s = np.sin(theta)
        return s**k * self.g1(theta) + k * s ** (k - 1) * np.cos(theta) * self.g(theta)


def make_bump(spec: BumpSpec, grid: SphereGrid) -> Bump:
    """Sample a bump on a grid, keeping its closed-form handle attached."""
    return Bump(spec, grid)


# ---------------------------------------------------------------------------
# random band-limited functions


def random_table(lmax: int, mmax: int, seed: int = 0) -> CoefficientTable:
    """Seeded random coefficient table, zero for l < |m| as required."""
    if mmax > lmax:
        raise SchemaError("mmax cannot exceed lmax")
    rng = np.random.default_rng(seed)
    ls, ms = lm_grid(lmax)
    drawn = np.abs(ms) <= np.minimum(ls, mmax)
    values = np.zeros(drawn.shape, dtype=complex)
    # (re, im) pairs drawn in row-major order: ascending l, then ascending m
    values[drawn] = rng.standard_normal((int(drawn.sum()), 2)).view(complex)[:, 0]
    return CoefficientTable(values)


def random_bandlimited(grid: SphereGrid, lmax: int, mmax: int, seed: int = 0):
    """Random band-limited grid function; returns (function, its table)."""
    table = random_table(lmax, mmax, seed)
    f = synthesize(TableProvider(table), grid, lmax)
    return f, table


# ---------------------------------------------------------------------------
# classical projection transform (independent route)


def _unit_harmonic_norm(l: int, m: int) -> float:
    # unit L2 norm under the *normalized* sphere measure
    k = abs(m)
    ratio = 1.0
    for j in range(l - k + 1, l + k + 1):
        ratio *= j
    return math.sqrt((2 * l + 1) / ratio)


def oracle_sht(f: GridFunction, lmax: int) -> CoefficientTable:
    """Classical coefficients by brute-force projection onto harmonics.

    Deliberately naive and structurally disjoint from transform.analyze:
    associated Legendre recurrences per (l, m) and explicit phase sums,
    no pairing powers, no FFT. Serves as the independent oracle route.
    """
    require_resolution(f.grid, lmax)
    grid = f.grid
    u = np.cos(grid.theta)
    w = grid.theta_weights / grid.n_phi
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for m in range(-lmax, lmax + 1):
        phase = np.exp(-1j * m * grid.phi_nodes)
        azimuthal = f.values @ phase  # sum_j f(theta_i, phi_j) e^{-im phi_j}
        for l in range(abs(m), lmax + 1):
            radial = _unit_harmonic_norm(l, m) * assoc_legendre(l, abs(m), u)
            values[l, m + lmax] = np.sum(w * radial * azimuthal)
    return CoefficientTable(values)


# ---------------------------------------------------------------------------
# bridge between the kernel and classical conventions


def bridge_factor_candidate(l: int, m: int) -> complex:
    """Analytic candidate for the kernel/classical coefficient ratio.

    rho_{l,m} = i^{|m|} l! / sqrt((2l+1) (l+|m|)! (l-|m|)!). The
    measured bridge_factors are held to it, never assumed by library code.
    """
    k = abs(m)
    log_mag = math.lgamma(l + 1) - 0.5 * (math.lgamma(l + k + 1) + math.lgamma(l - k + 1))
    return (1j) ** k * (math.exp(log_mag) / math.sqrt(2 * l + 1))


def bridge_factors(f: GridFunction, lmax: int):
    """Measured conversion factors rho with analyze = rho * oracle_sht.

    Returns (ratios, resolved) in the dense table layout: resolved marks
    the entries l >= |m| whose classical coefficient exceeds 1e-6 of its
    peak, and ratios is NaN elsewhere. Python complex division rounds
    once; NumPy's multiplies by a reciprocal.
    """
    kern = analyze(f, lmax).values
    clas = oracle_sht(f, lmax).values
    ls, ms = lm_grid(lmax)
    resolved = (ls >= np.abs(ms)) & (complex_abs(clas) > 1e-6 * complex_abs(clas).max())
    ratios = np.full(kern.shape, np.nan, dtype=complex)
    ratios[resolved] = [a / b for a, b in zip(kern[resolved].tolist(), clas[resolved].tolist())]
    return ratios, resolved
