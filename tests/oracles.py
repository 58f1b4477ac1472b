"""Small reference helpers shared by the test modules.

They stand in for library code the tests need as an oracle or a fake
but the library itself never calls.
"""

import numpy as np

from crown_harmonics.transform import CoefficientTable


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


class FakeProvider:
    """Coefficient provider from a function (ell, m) -> complex.

    Follows the provider contract: evaluation outside the declared
    K-types returns exactly 0.
    """

    def __init__(self, fn, ktypes):
        self._fn = fn
        self.ktypes = frozenset(int(m) for m in ktypes)

    def eval(self, ell, m: int) -> complex:
        if int(m) not in self.ktypes:
            return 0.0 + 0.0j
        return complex(self._fn(complex(ell), int(m)))
