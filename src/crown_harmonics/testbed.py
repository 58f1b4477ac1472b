"""Controlled test functions and independent cross-check transforms.

This module generates cap-supported bumps with closed-form radial
derivatives, random band-limited functions from seeded coefficient
tables, and a classical projection transform (oracle_sht) that shares
no inner loops with the kernel route in transform.analyze: one
associated Legendre column per order, every degree from a single
recurrence, projected by explicit phase sums. oracle_sht takes one
function or a sequence of functions on one grid, and builds the
Legendre columns and harmonic norms once for the whole sequence. The
bridge between the two coefficient conventions is measured entry by
entry from the two tables of a test function (bridge_factors) and held
to its closed form (bridge_factor_candidate) by verify's
classical-bridge check; library code never assumes it. The dense-table
helpers lm_grid and complex_abs serve this module and verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .numerics import assoc_legendre
from .sphere import GridFunction, SphereGrid, require_resolution
from .transform import CoefficientTable, TableProvider, synthesize

PROFILE_SMOOTH = "smooth"
PROFILE_COSPOW = "cospow"


def lm_grid(lmax: int):
    """Broadcastable degree and order arrays (l[:, None], m[None, :]) of the
    dense (lmax + 1, 2 lmax + 1) table layout."""
    return np.arange(lmax + 1)[:, None], np.arange(-lmax, lmax + 1)[None, :]


def complex_abs(z) -> np.ndarray:
    """Elementwise |z|, rounded exactly as Python's abs(complex).

    Both go through libm hypot on the real and imaginary parts; np.abs on
    a complex array takes a vectorized route whose last bit can differ.
    """
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True)
class BumpSpec:
    """Recipe for a cap-supported bump.

    Every cap is centered at the pole, so a bump is a pure K-type.
    radius is the geodesic support radius (must stay inside the crown),
    profile selects the radial shape, p is the cosine-power exponent,
    ktype the azimuthal type (0 for a zonal bump).
    """

    radius: float
    profile: str = PROFILE_SMOOTH
    p: int = 8
    ktype: int = 0

    def __post_init__(self):
        if not 0.0 < self.radius < math.pi / 2.0:
            raise SchemaError(f"bump radius must lie in (0, pi/2), got {self.radius}")
        if self.profile not in (PROFILE_SMOOTH, PROFILE_COSPOW):
            raise SchemaError(f"unknown profile {self.profile!r}")
        if self.profile == PROFILE_COSPOW and self.p < 8:
            raise SchemaError("cosine-power profile needs exponent p >= 8")


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
    its derivative, and .radius, its support radius. The bare cap shape
    g and its first two derivatives are available as .g/.g1/.g2.
    """

    handle_ok = True

    def __init__(self, spec: BumpSpec, grid: SphereGrid):
        self.spec = spec
        self.radius = spec.radius
        self.ktype = int(spec.ktype)
        if spec.profile == PROFILE_SMOOTH:
            self.g, self.g1, self.g2 = _smooth_g(spec.radius)
        else:
            self.g, self.g1, self.g2 = _cospow_g(spec.radius, spec.p)
        values = np.outer(self.profile(grid.theta), np.exp(1j * self.ktype * grid.phi_nodes))
        super().__init__(grid, values)

    def profile(self, theta):
        """Radial factor h(theta) = sin(theta)^{|ktype|} g(theta)."""
        theta = np.asarray(theta, dtype=float)
        k = abs(self.ktype)
        return np.sin(theta) ** k * self.g(theta) if k else self.g(theta) + 0.0j

    def profile_d1(self, theta):
        """Derivative of the radial factor."""
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


def oracle_sht(f, lmax: int):
    """Classical coefficients by brute-force projection onto harmonics.

    Deliberately naive and structurally disjoint from transform.analyze:
    one associated Legendre recurrence per order |m|, explicit phase
    sums, no pairing powers, no FFT. Serves as the independent oracle
    route.

    f is one GridFunction, giving one CoefficientTable, or a sequence of
    GridFunctions on one grid, giving a list of tables in the same order.
    The Legendre column and the norm vector of each order |m| are built
    once for the whole sequence, and every table equals the one a call
    on its function alone gives, bit for bit. Functions on different
    grids raise SchemaError.
    """
    single = isinstance(f, GridFunction)
    fs = [f] if single else list(f)
    if not fs:
        raise SchemaError("oracle_sht needs at least one grid function")
    grid = fs[0].grid
    if any(g.grid != grid for g in fs):
        raise SchemaError("oracle_sht needs every function on one grid")
    require_resolution(grid, lmax)
    stack = np.stack([g.values for g in fs])
    u = np.cos(grid.theta)
    w = grid.theta_weights / grid.n_phi
    values = np.zeros((len(fs), lmax + 1, 2 * lmax + 1), dtype=complex)
    for k in range(lmax + 1):
        norms = np.array([_unit_harmonic_norm(l, k) for l in range(k, lmax + 1)])
        weighted = w * (norms[:, None] * assoc_legendre(lmax, k, u)[k:])
        for m in ((k, -k) if k else (0,)):
            phase = np.exp(-1j * m * grid.phi_nodes)
            azimuthal = stack @ phase  # sum_j f(theta_i, phi_j) e^{-im phi_j}
            values[:, k:, m + lmax] = np.sum(weighted * azimuthal[:, None, :], axis=2)
    tables = [CoefficientTable(v) for v in values]
    return tables[0] if single else tables


# ---------------------------------------------------------------------------
# bridge between the kernel and classical conventions


def bridge_factor_candidate(l, m):
    """Analytic candidate for the kernel/classical coefficient ratio.

    rho_{l,m} = i^{|m|} l! / sqrt((2l+1) (l+|m|)! (l-|m|)!). The
    measured bridge_factors are held to it, never assumed by library code.

    Integers l and m give a complex. Integer arrays broadcast (every
    entry with |m| <= l) and give an array that equals the scalar form
    entry by entry, bit for bit: the log-factorials come from one table
    of math.lgamma values, and each magnitude from math.exp, since np.exp
    may round the last bit differently.
    """
    if np.ndim(l) == 0 and np.ndim(m) == 0:
        k = abs(m)
        log_mag = math.lgamma(l + 1) - 0.5 * (math.lgamma(l + k + 1) + math.lgamma(l - k + 1))
        return (1j) ** k * (math.exp(log_mag) / math.sqrt(2 * l + 1))
    l, k = np.broadcast_arrays(np.asarray(l, dtype=int), np.abs(np.asarray(m, dtype=int)))
    log_fact = np.array([math.lgamma(n + 1) for n in range(int(np.max(l + k, initial=0)) + 1)])
    log_mag = log_fact[l] - 0.5 * (log_fact[l + k] + log_fact[l - k])
    mag = np.fromiter(map(math.exp, log_mag.flat), float, count=log_mag.size).reshape(l.shape)
    phase = np.array([(1j) ** j for j in range(int(np.max(k, initial=0)) + 1)])
    return phase[k] * (mag / np.sqrt(2 * l + 1))


def bridge_factors(kernel, classical):
    """Measured conversion factors rho with kernel = rho * classical.

    kernel and classical are the dense (lmax + 1, 2 lmax + 1) value
    arrays of one function's analyze and oracle_sht tables. Returns
    (ratios, resolved) in that layout: resolved marks the entries
    l >= |m| whose classical coefficient exceeds 1e-6 of its peak, and
    ratios is NaN elsewhere. Python complex division rounds once;
    NumPy's multiplies by a reciprocal.
    """
    kernel, classical = np.asarray(kernel, dtype=complex), np.asarray(classical, dtype=complex)
    if kernel.shape != classical.shape:
        raise SchemaError(f"table shapes differ: {kernel.shape} and {classical.shape}")
    ls, ms = lm_grid(CoefficientTable(classical).lmax)
    magnitude = complex_abs(classical)
    resolved = (ls >= np.abs(ms)) & (magnitude > 1e-6 * magnitude.max())
    ratios = np.full(kernel.shape, np.nan, dtype=complex)
    ratios[resolved] = [a / b for a, b in zip(kernel[resolved].tolist(),
                                              classical[resolved].tolist())]
    return ratios, resolved
