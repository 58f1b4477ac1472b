"""Small reference helpers shared by the test modules.

They stand in for library code the tests need as an oracle or a fake
but the library itself never calls.
"""

import numpy as np

from crown_harmonics.errors import SingularParameterError
from crown_harmonics.intertwining import intertwiner_rational
from crown_harmonics.sphere import (
    DEFAULT_BOUNDARY_SAMPLES,
    SUPPORT_REL_THRESHOLD,
    boundary_log_pairing,
    kernel_mode_profiles,
)
from crown_harmonics.transform import (
    _LOG_AMP_ADVANTAGE_MIN,
    _LOG_AMP_DIRECT_MAX,
    CoefficientProvider,
    CoefficientTable,
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


def table(lmax: int, entries: dict) -> CoefficientTable:
    """Dense coefficient table of degree lmax from a sparse {(l, m): value} dict."""
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for (l, m), v in entries.items():
        values[l, m + lmax] = v
    return CoefficientTable(values)


class FakeProvider(CoefficientProvider):
    """Coefficient provider from a function (ell, m) -> complex.

    Follows the provider contract: evaluation outside the declared
    K-types returns exactly 0, and eval_many is the base-class loop.
    """

    def __init__(self, fn, ktypes):
        self._fn = fn
        self.ktypes = frozenset(int(m) for m in ktypes)

    def eval(self, ell, m: int) -> complex:
        if int(m) not in self.ktypes:
            return 0.0 + 0.0j
        return complex(self._fn(complex(ell), int(m)))


def extend_reference(f, ells, m: int, own_rows: bool = False):
    """phi(ell, m) of a cap-supported f by the full-boundary FFT route.

    Every grid row whose peak exceeds SUPPORT_REL_THRESHOLD of the
    overall peak contributes its weighted azimuthal mode times the
    column m of kernel_mode_profiles (a 512-point FFT of Q^ell), with
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
    log_q = boundary_log_pairing(f.grid.theta[rows])

    def direct(power):
        column = kernel_mode_profiles(power, log_q)[:, m % DEFAULT_BOUNDARY_SAMPLES]
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
