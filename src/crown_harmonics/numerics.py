"""Quadrature rules and special functions used across the library.

Everything here is dependency-free plumbing: Gauss-Legendre rules found
by Newton iteration, and associated Legendre functions (P_l = P_l^0
among them) by one three-term recurrence per order, which yields the
whole column of degrees l = 0..lmax at once.

All functions are pure; the quadrature cache is populated once per
order and then only read, so concurrent callers are safe.
"""

from __future__ import annotations

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
    deterministic and reproducible for any fixed n. Each step runs
    assoc_legendre's order-0 recurrence, same expression and order,
    holding two rows, so memory stays O(n). Raises NumericalError when
    100 Newton steps do not reach the tolerance.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise SchemaError(f"quadrature order must be a positive integer, got {n!r}")
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    dp = np.ones_like(x)
    for _ in range(100):
        p0, p1 = np.zeros_like(x), np.ones_like(x)
        for j in range(1, n + 1):
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


def _check_unit_interval(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-14):
        raise CrownDomainError("argument outside [-1, 1]")
    return np.clip(arr, -1.0, 1.0)


def assoc_legendre(lmax: int, m: int, x) -> np.ndarray:
    """Associated Legendre column P_l^m(x), l = 0..lmax, no Condon-Shortley phase.

    Returns one column of degrees of the order 0 <= m <= lmax, shaped
    (lmax + 1, *x.shape); rows l < m are exact zeros. Convention anchor:
    P_1^1(x) = sqrt(1 - x^2), so the diagonal P_m^m is nonnegative.
    One upward recurrence in l from the diagonal seed
    P_m^m = (2m-1)!! (1-x^2)^{m/2}, with P_{m-1}^m = 0.
    """
    if not 0 <= m <= lmax:
        raise SchemaError(f"order m={m} outside 0..lmax={lmax}")
    arr = _check_unit_interval(x)
    out = np.zeros((lmax + 1,) + arr.shape)
    below, here = np.zeros_like(arr), np.ones_like(arr)
    s = np.sqrt((1.0 - arr) * (1.0 + arr))
    for j in range(m):
        here = here * (2.0 * j + 1.0) * s
    out[m] = here
    for j in range(m + 1, lmax + 1):
        below, here = here, ((2 * j - 1) * arr * here - (j + m - 1) * below) / (j - m)
        out[j] = here
    return out
