"""Geometry of the two-sphere, its boundary circle, and the crown cap.

The sphere is parametrized by colatitude theta in [0, pi] and azimuth
phi in [0, 2*pi). The boundary circle (the orbit of the equatorial
direction under rotations about the pole) carries the angle phi_b. The
central object is the complexified pairing

    Q(x, b) = cos(theta) + i sin(theta) cos(phi_x - phi_b),

whose integer powers are the transform kernels and whose complex powers
are well defined exactly on the crown cap theta < pi/2, where
Re Q = cos(theta) > 0 keeps the principal logarithm holomorphic.

At integer degree the boundary modes of Q^l have a closed form
(kernel_mode_sweep, for many orders at once, one degree l per step). At
complex degree they come from one rule: the 512-sample trapezoid rule
on the boundary circle, folded onto its half by the symmetry
Q(c) = Q(2 pi - c) (boundary_log_pairing, boundary_fold,
kernel_mode_profiles). This module is the only one that forms boundary
samples or takes the log of the pairing, which it builds in real
arithmetic from the real and imaginary parts of Q; kernel_mode_profiles
takes an array of parameters and any list of orders on one log table,
with one exponential over the whole array.

Grids are Gauss-Legendre in cos(theta) crossed with uniform azimuths,
with total weight normalized to 1 so that the constant function
integrates to 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridResolutionError, SchemaError
from .numerics import gauss_legendre

#: samples of the boundary trapezoid rule behind every complex-degree
#: kernel mode (only the half boundary is formed). Mode m of Q^l is
#: alias-free while l + |m| < DEFAULT_BOUNDARY_SAMPLES.
DEFAULT_BOUNDARY_SAMPLES = 512

#: a grid row counts toward the support when its peak magnitude exceeds
#: this fraction of the overall peak
SUPPORT_REL_THRESHOLD = 1e-12


# ---------------------------------------------------------------------------
# grids


class SphereGrid:
    """Gauss-Legendre x uniform product grid with unit total weight.

    theta nodes ascend from the pole; each grid point carries weight
    theta_weights[i] / n_phi so the constant function integrates to 1.
    """

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 1 or n_phi < 1:
            raise SchemaError("grid dimensions must be positive")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.theta_rule = gauss_legendre(self.n_theta)
        # nodes ascend in cos(theta); reverse so theta ascends instead
        self.theta = np.arccos(self.theta_rule.nodes[::-1]).copy()
        self.theta_weights = (self.theta_rule.weights[::-1] / 2.0).copy()
        self.phi_nodes = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.theta.flags.writeable = False
        self.theta_weights.flags.writeable = False
        self.phi_nodes.flags.writeable = False

    def __repr__(self):
        return f"SphereGrid(n_theta={self.n_theta}, n_phi={self.n_phi})"

    def __eq__(self, other):
        return (
            isinstance(other, SphereGrid)
            and other.n_theta == self.n_theta
            and other.n_phi == self.n_phi
        )

    def __hash__(self):
        return hash((self.n_theta, self.n_phi))

    def resolves(self, lmax: int) -> bool:
        """Whether analyze/synthesize at band limit lmax is alias-free."""
        return self.n_theta >= lmax + 2 and self.n_phi >= 2 * lmax + 2


class GridFunction:
    """Complex samples on a SphereGrid, indexed (theta index, phi index)."""

    def __init__(self, grid: SphereGrid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_theta, grid.n_phi):
            raise SchemaError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_theta}, {grid.n_phi})"
            )
        self.grid = grid
        self.values = values


def support_radius(f: GridFunction) -> float:
    """Colatitude of the last grid row carrying significant mass.

    Returns the smallest grid colatitude r such that every sample with
    theta > r has magnitude <= SUPPORT_REL_THRESHOLD * max|f|. By
    convention an identically-zero function reports 0 and a function
    significant all the way to the antipode reports pi.
    """
    mags = np.abs(f.values)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    significant = mags.max(axis=1) > SUPPORT_REL_THRESHOLD * peak
    idx = np.nonzero(significant)[0]
    if idx.size == 0:
        return 0.0
    last = idx[-1]
    if last == f.grid.n_theta - 1:
        return math.pi
    return float(f.grid.theta[last])


# ---------------------------------------------------------------------------
# kernel mode profiles


def boundary_log_pairing(theta) -> np.ndarray:
    """Principal log of Q((theta, 0), c_k) on the half boundary.

    Returns shape (len(theta), 257) at c_k = 2 pi k / 512, k = 0..256;
    since Q((theta, 0), c) = Q((theta, 0), 2 pi - c) these carry the
    whole 512-sample boundary. The principal branch is holomorphic in
    theta on the crown; rows with theta >= pi/2 may be exponentiated at
    integer powers only (integer powers are branch-free).

    The log is formed from the real and imaginary parts of Q (Kahan,
    "Branch cuts for complex elementary functions", 1987):

        log|Q| = log(hypot(cos theta, sin theta cos c)),
        arg Q  = arctan2(sin theta cos c, cos theta),

    a few real passes instead of one complex log per sample. It agrees
    with np.log to an ulp or two and is as accurate against a 40-digit
    log. The imaginary part carries +0 where sin theta cos c is -0, as
    the complex Q of np.log does, so the arg of every row, theta >= pi/2
    included, is the one np.log gives.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nb = DEFAULT_BOUNDARY_SAMPLES
    c = 2.0 * np.pi * np.arange(nb // 2 + 1) / nb
    x = np.cos(theta)[:, None]
    y = np.sin(theta)[:, None] * np.cos(c)[None, :] + 0.0
    log_q = np.empty(y.shape, dtype=complex)
    np.log(np.hypot(x, y), out=log_q.real)
    np.arctan2(y, x, out=log_q.imag)
    return log_q


def boundary_fold(ms) -> np.ndarray:
    """Folded trapezoid weights of modes ms on the half boundary, (len(ms), 257).

    Row j applied to E_k = E(c_k), k = 0..256, of an integrand with
    E(c) = E(2 pi - c) gives its 512-sample trapezoid mode ms[j]:

        (1/512) [E_0 + (-1)^m E_256 + 2 sum_{k=1}^{255} E_k cos(m c_k)].

    m k is reduced mod 512 before the cosine, so its argument is exact.
    """
    nb = DEFAULT_BOUNDARY_SAMPLES
    k = np.arange(nb // 2 + 1)
    fold = np.where((k == 0) | (k == nb // 2), 1.0, 2.0) / nb
    return fold * np.cos(2.0 * np.pi * (np.outer(ms, k) % nb) / nb)


def kernel_mode_profiles(ell, log_pairing: np.ndarray, ms) -> np.ndarray:
    """Boundary Fourier modes ms of the pairing powers Q^ell.

    ell is a scalar or an array of shape S, and the result has shape
    S + (rows, len(ms)); column j of a (rows, len(ms)) slice holds

        (1/2*pi) * integral of Q((theta,0), c)^ell * exp(-i m c) dc

    at m = ms[j], by the 512-sample trapezoid rule folded onto the half
    boundary: one exponential of ell log Q over every parameter and
    sample, then one product with the boundary_fold weights. It is exact
    at integer degree l, up to roundoff, while l + |m| < 512, and
    holomorphic in ell. A parameter that is not finite anywhere in ell
    raises SchemaError before any exponential.
    """
    ell = np.asarray(ell, dtype=complex)
    if not np.all(np.isfinite(ell)):
        raise SchemaError("spectral parameter must be finite")
    power = ell[..., None, None] * log_pairing
    np.exp(power, out=power)
    return power @ boundary_fold(ms).T


def kernel_mode_sweep(orders, lmax: int, theta):
    """Closed-form kernel modes of several orders at once, one degree per step.

    The boundary mode m of Q^l is

        G_m(l; theta) = i^|m| l! / (l + |m|)! * P_l^|m|(cos theta),

    Laplace's integral for the associated Legendre function (DLMF 14.12),
    so it equals mode m of kernel_mode_profiles at ell = l with no
    boundary grid and no aliasing limit; it vanishes for l < |m|.

    orders is a nonempty list that ascends strictly within 0..lmax. Step
    l = orders[0]..lmax yields (l, g): row i of g holds G_k(l; theta) / i^k
    at k = orders[i], for the orders with k <= l, a prefix that grows
    with l. Order k joins at l = k with the seed (sin(theta) / 2)^k and a
    zero predecessor, and runs the three-term recurrence

        g_{l+1} = ((2l+1) cos(theta) g_l - l g_{l-1}) (l+1) / ((l+1-k)(l+1+k));

    every |g_l| <= 1, so nothing overflows. Where the seed underflows
    (high order near a pole) the rows are zero, below anything a degree
    <= lmax can resolve. g is a view into working buffers, valid until
    the generator advances. Each order's arithmetic is the one-order
    recurrence unchanged, so a row does not depend on which other orders
    share the sweep; a transform over all orders takes lmax + 1
    Python-level steps instead of one per mode.
    """
    ks = np.asarray(orders, dtype=int)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x = np.cos(theta)
    seed = 0.5 * np.sin(theta)
    ls = np.arange(ks[0], lmax + 1)[:, None]
    # per step l and order k < l: the scale l / ((l - k)(l + k)) that carries
    # row l - 1 to l; the orders that join at l or later read 0, never used
    den = (ls - ks) * (ls + ks)
    scale = np.divide(ls, den, out=np.zeros(den.shape), where=den > 0)[:, :, None]
    live = np.searchsorted(ks, ls.ravel(), side="right").tolist()
    # three zeroed buffers rotate; the rows past the live prefix are never
    # written, and the views are sliced again only when the prefix grows
    g, g_prev, work = (np.zeros((ks.size, theta.size))[:0] for _ in range(3))
    for step, (l, n) in enumerate(zip(ls.ravel().tolist(), live)):
        if step:
            # g_l = ((2l-1) x g_{l-1} - (l-1) g_{l-2}) l / ((l-k)(l+k))
            np.multiply((2 * l - 1) * x, g, work)
            g_prev *= l - 1
            work -= g_prev
            work *= scale_live[step]
            g, g_prev, work = work, g, g_prev
        if n > len(g):
            for i, k in enumerate(ks[len(g):n].tolist(), start=len(g)):
                g.base[i] = seed ** k
            g, g_prev, work = g.base[:n], g_prev.base[:n], work.base[:n]
            scale_live = scale[:, :n]
        yield l, g


def require_resolution(grid: SphereGrid, lmax: int):
    """Raise unless the grid is fine enough for band limit lmax."""
    if lmax < 0:
        raise SchemaError("lmax must be nonnegative")
    if not grid.resolves(lmax):
        raise GridResolutionError(
            f"grid {grid!r} cannot resolve lmax={lmax}; "
            f"need n_theta >= {lmax + 2} and n_phi >= {2 * lmax + 2}"
        )
