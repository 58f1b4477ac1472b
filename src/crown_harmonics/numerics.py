"""Quadrature rules and special functions used across the library.

Everything here is dependency-free plumbing: Gauss-Legendre rules found
by Newton iteration, and associated Legendre functions (P_l = P_l^0
among them) by three-term recurrences.

All functions are pure; the quadrature cache is populated once per
order and then only read, so concurrent callers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CrownDomainError, NumericalError, SchemaError

_NEWTON_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureRule1D:
    """Gauss-Legendre rule on [-1, 1].

    nodes are strictly increasing, weights positive and summing to 2.
    A rule of order n integrates polynomials of degree <= 2n-1 exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule1D:
    """Gauss-Legendre nodes and weights of order n.

    Roots of P_n are refined by Newton iteration from the Chebyshev
    initial guesses cos(pi*(4k+3)/(4n+2)) to tolerance 1e-15, which is
    deterministic and reproducible for any fixed n. Raises
    NumericalError when 100 Newton steps do not reach the tolerance.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise SchemaError(f"quadrature order must be a positive integer, got {n!r}")
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    dp = np.ones_like(x)
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        # p1 = P_n(x), p0 = P_{n-1}(x); derivative from the same pair
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise NumericalError(
            f"Gauss-Legendre order {n}: Newton step {np.max(np.abs(dx)):.3g} "
            f"still above {_NEWTON_TOL:g} after 100 iterations")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    nodes = x[order]
    weights = w[order]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule1D(nodes=nodes, weights=weights, order=n)


def complex_abs(z) -> np.ndarray:
    """Elementwise |z|, rounded exactly as Python's abs(complex).

    Both go through libm hypot on the real and imaginary parts; np.abs on
    a complex array takes a vectorized route whose last bit can differ.
    """
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def _check_unit_interval(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-14):
        raise CrownDomainError("argument outside [-1, 1]")
    return np.clip(arr, -1.0, 1.0)


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre P_l^m(x) without the Condon-Shortley phase.

    Convention anchor: P_1^1(x) = sqrt(1 - x^2), so all values with
    m >= 0 are nonnegative at x = 0. Negative orders are defined by
    P_l^{-m} = (l-m)!/(l+m)! * P_l^m, which keeps the same phase
    convention. Upward recurrence in l from the diagonal seed
    P_m^m = (2m-1)!! (1-x^2)^{m/2}.
    """
    if abs(m) > l:
        raise SchemaError(f"order |m|={abs(m)} exceeds degree l={l}")
    if m < 0:
        scale = math.factorial(l - abs(m)) / math.factorial(l + abs(m))
        value = assoc_legendre(l, abs(m), x)
        return scale * value
    arr = _check_unit_interval(x)
    # diagonal seed: P_m^m = (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(arr)
    if m > 0:
        s = np.sqrt((1.0 - arr) * (1.0 + arr))
        fact = 1.0
        for _ in range(m):
            pmm = pmm * fact * s
            fact += 2.0
    if l == m:
        out = pmm
    else:
        pm1 = arr * (2 * m + 1) * pmm
        if l == m + 1:
            out = pm1
        else:
            for j in range(m + 2, l + 1):
                pmm, pm1 = pm1, ((2 * j - 1) * arr * pm1 - (j + m - 1) * pmm) / (j - m)
            out = pm1
    return float(out) if np.isscalar(x) else out
