"""Small reference helpers shared by the test modules.

They stand in for library code the tests need as an oracle or a fake
but the library itself never calls.
"""

import numpy as np

from crown_harmonics.errors import SingularParameterError
from crown_harmonics.intertwining import intertwiner_rational
from crown_harmonics.sphere import DEFAULT_BOUNDARY_SAMPLES, SUPPORT_REL_THRESHOLD
from crown_harmonics.transform import (
    _LOG_AMP_ADVANTAGE_MIN,
    _LOG_AMP_DIRECT_MAX,
    CoefficientProvider,
    CoefficientTable,
    ray_points,
)


def sphere_integral(f) -> complex:
    """Quadrature value of the normalized sphere integral of a GridFunction."""
    return complex(np.sum(f.grid.theta_weights * f.values.mean(axis=1)))


def quadrature_analyze(f, lmax: int) -> CoefficientTable:
    """Coefficient table by direct double quadrature, the reference for analyze.

    The pairing is tabulated on (theta, phi, boundary) nodes, raised
    through successive integer powers, integrated against f, and the
    boundary dependence is resolved by an FFT. The boundary grid has
    2 lmax + 2 nodes, alias-free because the b-profile of the degree-l
    term is a trigonometric polynomial of degree at most l. O(lmax^4)
    time and O(lmax^3) memory.
    """
    grid = f.grid
    nb = 2 * lmax + 2
    th = grid.theta
    ph = grid.phi_nodes
    b = 2.0 * np.pi * np.arange(nb) / nb
    pairing = (
        np.cos(th)[:, None, None]
        + 1j * np.sin(th)[:, None, None] * np.cos(ph[None, :, None] - b[None, None, :])
    )
    weighted = f.values * (grid.theta_weights[:, None] / grid.n_phi)
    power = np.ones_like(pairing)
    values = np.empty((lmax + 1, 2 * lmax + 1), dtype=complex)
    columns = np.arange(-lmax, lmax + 1) % nb
    for l in range(lmax + 1):
        profile = np.einsum("tp,tpb->b", weighted, power)
        values[l] = (np.fft.fft(profile) / nb)[columns]
        power *= pairing
    return CoefficientTable(values)


def recurrence_kernel_modes(k: int, lmax: int, theta) -> np.ndarray:
    """G_k(l; theta) / i^k for l = k..lmax by the three-term recurrence, one order at a time.

    The per-order loop that sphere.kernel_mode_sweep runs for all orders
    at once, with the same arithmetic in the same order: the sweep must
    equal it bit for bit. Returns shape (lmax + 1 - k, len(theta)).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x = np.cos(theta)
    rows = np.empty((lmax + 1 - k, theta.size))
    rows[0] = g = (0.5 * np.sin(theta)) ** k
    g_prev = np.zeros_like(g)
    for l in range(k, lmax):
        scale = (l + 1) / ((l + 1 - k) * (l + 1 + k))
        g_prev, g = g, ((2 * l + 1) * x * g - l * g_prev) * scale
        rows[l + 1 - k] = g
    return rows


def per_order_analyze(f, lmax: int) -> CoefficientTable:
    """analyze as one mode-matrix product per order, on recurrence_kernel_modes."""
    grid = f.grid
    weighted = np.fft.fft(f.values, axis=1) * (grid.theta_weights[:, None] / grid.n_phi)
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for k in range(lmax + 1):
        ms = [-k, k] if k else [0]
        modes = (1, 1j, -1, -1j)[k % 4] * recurrence_kernel_modes(k, lmax, grid.theta)
        values[k:, [lmax + m for m in ms]] = modes @ weighted[:, [m % grid.n_phi for m in ms]]
    return CoefficientTable(values)


def per_order_synthesize(provider, grid, lmax: int) -> np.ndarray:
    """Grid values of synthesize as one profile product per K-type, on recurrence_kernel_modes.

    The reflected coefficient phi(-l-1, m) = b_m(-l-1/2) phi(l, m) takes
    b_m from one intertwiner_rational call per K-type, over l >= |m|.
    """
    ms = sorted(provider.ktypes)
    spectrum = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    orders = sorted({abs(m) for m in ms if abs(m) <= lmax})
    if orders:
        ls = np.arange(orders[0], lmax + 1)
        values = provider.eval_rays(float(ls[0]), 1.0, ls.size) * (2 * ls + 1)[:, None]
        for k in orders:
            modes = (1, 1j, -1, -1j)[k % 4] * recurrence_kernel_modes(k, lmax, grid.theta)
            for m in sorted({-k, k} & set(ms)):
                b = intertwiner_rational(m, -ls[k - orders[0]:] - 0.5)
                spectrum[:, m % grid.n_phi] = (b * values[k - orders[0]:, ms.index(m)]) @ modes
    return np.fft.ifft(spectrum, axis=1) * grid.n_phi


def full_boundary_log_pairing(theta):
    """Principal log of Q((theta, 0), c) on the whole 512-sample boundary circle."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    c = 2.0 * np.pi * np.arange(DEFAULT_BOUNDARY_SAMPLES) / DEFAULT_BOUNDARY_SAMPLES
    return np.log(np.cos(theta)[:, None] + 1j * np.sin(theta)[:, None] * np.cos(c)[None, :])


def fft_kernel_modes(ell, log_q):
    """Every boundary mode of Q^ell by a 512-point FFT on the full circle.

    Column m % 512 of the (rows, 512) result is mode m; log_q comes from
    full_boundary_log_pairing. The reference for the folded rule of
    sphere.kernel_mode_profiles, which must equal it up to roundoff.
    """
    return np.fft.fft(np.exp(complex(ell) * log_q), axis=-1) / log_q.shape[-1]


def table(lmax: int, entries: dict) -> CoefficientTable:
    """Dense coefficient table of degree lmax from a sparse {(l, m): value} dict."""
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for (l, m), v in entries.items():
        values[l, m + lmax] = v
    return CoefficientTable(values)


class FakeProvider(CoefficientProvider):
    """Coefficient provider from a function (ell, m) -> complex.

    eval_rays calls the function at every point of the rays and every
    declared K-type; eval_many and eval are the base class's.
    """

    def __init__(self, fn, ktypes):
        self._fn = fn
        self.ktypes = frozenset(int(m) for m in ktypes)

    def eval_rays(self, origins, steps, n: int) -> np.ndarray:
        ms = sorted(self.ktypes)
        ells = ray_points(origins, steps, n).ravel()
        values = [[complex(self._fn(complex(ell), m)) for m in ms] for ell in ells]
        return np.array(values, dtype=complex).reshape(ells.size, len(ms))


def extend_reference(f, ells, m: int, own_rows: bool = False):
    """phi(ell, m) of a cap-supported f by the full-boundary FFT route.

    Every grid row whose peak exceeds SUPPORT_REL_THRESHOLD of the
    overall peak contributes its weighted azimuthal mode times the
    column m of fft_kernel_modes (a 512-point FFT of Q^ell), with
    the direct-or-reflected rule of ExtendProvider (direct where the
    reflection scalar has a pole). own_rows keeps only the rows where
    the K-type's own mode exceeds SUPPORT_REL_THRESHOLD of its own peak,
    as ExtendProvider does; without it every significant row counts.
    Returns (values, floors) over ells, where floor = eps * e^{log amp}
    * sum |w f_m| (times |b_m| on the reflected route) is the roundoff
    scale of the sum.
    """
    mags = np.abs(f.values)
    rows = mags.max(axis=1) > SUPPORT_REL_THRESHOLD * mags.max()
    weighted = f.grid.theta_weights[rows] * (
        np.fft.fft(f.values[rows], axis=1)[:, m % f.grid.n_phi] / f.grid.n_phi)
    if own_rows:
        magnitude = np.abs(weighted / f.grid.theta_weights[rows])
        weighted[magnitude <= SUPPORT_REL_THRESHOLD * magnitude.max()] = 0.0
    log_q = full_boundary_log_pairing(f.grid.theta[rows])

    def direct(power):
        column = fft_kernel_modes(power, log_q)[:, m % DEFAULT_BOUNDARY_SAMPLES]
        log_amp = np.max(np.real(power * log_q))
        floor = np.finfo(float).eps * np.exp(log_amp) * np.sum(np.abs(weighted))
        return complex(np.sum(weighted * column)), floor

    def one(ell):
        log_amp = np.max(np.real(ell * log_q))
        if (log_amp > _LOG_AMP_DIRECT_MAX
                and np.max(np.real((-ell - 1.0) * log_q)) < log_amp - _LOG_AMP_ADVANTAGE_MIN):
            try:
                b = intertwiner_rational(m, ell + 0.5)
            except SingularParameterError:
                return direct(ell)
            value, floor = direct(-ell - 1.0)
            return b * value, abs(b) * floor
        return direct(ell)

    values, floors = zip(*(one(complex(ell)) for ell in ells))
    return np.array(values), np.array(floors)
