"""Small reference helpers shared by the test modules.

They stand in for library code the tests need as an oracle or a fake
but the library itself never calls.
"""

import numpy as np

from crown_harmonics.transform import CoefficientTable


def sphere_integral(f) -> complex:
    """Quadrature value of the normalized sphere integral of a GridFunction."""
    return complex(np.sum(f.grid.theta_weights * f.values.mean(axis=1)))


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
