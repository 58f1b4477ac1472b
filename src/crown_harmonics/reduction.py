"""Boundary models of the rotation generators and ladder identities.

The coefficient transform turns a rotation derivative on the sphere
into a first-order difference operator on azimuthal components at a
reflected parameter. This module implements both sides (sigma_action
and ladder_components), verifies the resulting intertwining identity
with cap-fitted quadrature, and exposes the ladder machinery connecting
zonal data to higher K-types: pure-type synthesis and measurements of
the ladder ratios.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CrownDomainError, NumericalError, SchemaError
from .numerics import gauss_legendre
from .sphere import (GridFunction, SphereGrid, boundary_fold, boundary_log_pairing,
                     kernel_mode_profiles)

_GENERATORS = ("Z", "X", "Y")

#: order of the cap-fitted Gauss-Legendre rule in intertwine_check
_CAP_NODES = 96


def _generator(label) -> str:
    gen = str(label).upper()
    if gen not in _GENERATORS:
        raise SchemaError(f"unknown generator label {label!r}; expected Z, X, or Y")
    return gen


def sigma_action(c, nu, generator: str) -> np.ndarray:
    """Boundary model of a rotation generator on azimuthal components.

    c is a principal-series vector: a complex array whose last axis is
    the order window |m| <= M, amplitude c_m at index m + M. nu is the
    shifted spectral parameter (lam + 1/2, lam the coefficient of the
    positive root) and broadcasts over the leading axes of c. The result
    is the window |m| <= M + 1, entry m at index m + M + 1:

        Z:  out[m]   = i m c_m
        X:  out[m+1] += -(i/2)(nu + m) c_m
            out[m-1] += -(i/2)(nu - m) c_m
        Y:  out[m+1] += -(1/2)(nu + m) c_m
            out[m-1] += +(1/2)(nu - m) c_m

    Each generator moves m by at most one, so an order that no input
    reaches under the selection rule holds an exact zero.
    """
    gen = _generator(generator)
    c = np.asarray(c, dtype=complex)
    nu = np.asarray(nu, dtype=complex)[..., None]
    m = np.arange(c.shape[-1]) - (c.shape[-1] - 1) // 2
    shape = np.broadcast_shapes(c.shape[:-1], nu.shape[:-1]) + (c.shape[-1] + 2,)
    out = np.zeros(shape, dtype=complex)
    if gen == "Z":
        out[..., 1:-1] = 1j * m * c
        return out
    up, down = (-0.5j, -0.5j) if gen == "X" else (-0.5, 0.5)
    out[..., 2:] += up * (nu + m) * c
    out[..., :-2] += down * (nu - m) * c
    return out


def ladder_components(handle, generator: str, theta) -> np.ndarray:
    """Azimuthal components of a rotation derivative of a pure-type handle.

    The handle carries a single K-type m0 with radial profile h, i.e.
    f = exp(i m0 phi) h(theta). Rows 0, 1, 2 of the (3, len(theta))
    result are the radial profiles of the orders m0 - 1, m0, m0 + 1:

        Z:  m0      -> i m0 h
        X:  m0 +- 1 -> -h'/2 +- (m0/2) cot(theta) h
        Y:  m0 + 1  ->  (i/2)(h' - m0 cot(theta) h)
            m0 - 1  -> -(i/2)(h' + m0 cot(theta) h)

    and the rows the selection rule does not reach are exact zeros.
    These are the vector fields -cos(phi) d_theta + cot(theta) sin(phi)
    d_phi (X), -sin(phi) d_theta - cot(theta) cos(phi) d_phi (Y), and
    d_phi (Z), split into azimuthal frequencies. The cot terms drop out
    for zonal input, and for |m0| >= 1 the profile h carries a
    sin(theta)^{|m0|} factor that keeps them bounded at the pole.
    """
    gen = _generator(generator)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    m0 = int(handle.ktype)
    out = np.zeros((3, theta.size), dtype=complex)
    h = handle.profile(theta)
    if gen == "Z":
        out[1] = 1j * m0 * h
        return out
    hp = handle.profile_d1(theta)
    cot = m0 * (np.cos(theta) / np.sin(theta)) * h if m0 else np.zeros(theta.size)
    lower, upper = (-0.5, -0.5) if gen == "X" else (-0.5j, 0.5j)
    out[0], out[2] = lower * (hp + cot), upper * (hp - cot)
    return out


# ---------------------------------------------------------------------------
# intertwining residual with support-fitted quadrature


def cap_quadrature(radius: float, n_theta: int):
    """Gauss-Legendre rule in cos(theta) fitted to the cap theta <= radius.

    Returns (theta, weights) with theta ascending and weights already
    carrying the normalized-measure factor, i.e. sum(w * h(theta))
    approximates the full normalized sphere integral of a zonal h
    supported inside the cap. Fitting the rule to the support instead
    of masking a whole-sphere grid is what keeps cap integrands of
    smooth bumps accurate to near machine precision at modest n.
    """
    if not 0.0 < radius <= math.pi:
        raise CrownDomainError("cap radius must lie in (0, pi]")
    rule = gauss_legendre(n_theta)
    a = math.cos(radius)
    u = 0.5 * (1.0 - a) * rule.nodes + 0.5 * (1.0 + a)
    w = rule.weights * (1.0 - a) / 4.0
    theta = np.arccos(u)[::-1].copy()
    weights = w[::-1].copy()
    return theta, weights


def intertwine_check(f, generators, ells) -> float:
    """Worst relative residual of the derivative-transform exchange identity.

    f must be a pure-type handle (a pole-centered bump): f carries one
    azimuthal frequency m0 with closed-form radial profile and
    derivative. For each generator label in generators (a string such
    as "ZXY" iterates as labels) and each parameter ell in ells (a
    scalar counts as one), the left side transforms the rotation
    derivative of f at ell and the right side applies the boundary model
    at nu = -ell to the transform of f; the residual of the pair is the
    largest difference over the orders m0 - 1, m0, m0 + 1, relative to
    the largest value on both sides, and the worst pair is returned. A
    pair whose sides are both zero has no residual.

    Both sides integrate with a quadrature rule fitted to the support
    cap, so no accuracy is lost to the support edge. The cap's rule and
    log table are built once per call, and one kernel_mode_profiles call
    over every parameter and the three orders serves every generator;
    each generator's two sides are (parameters x 3) arrays. A side that
    is not finite raises NumericalError.
    """
    if not getattr(f, "handle_ok", False):
        raise SchemaError("intertwine_check needs a pole-centered bump handle")
    gens = [_generator(g) for g in generators]
    theta, weights = cap_quadrature(f.radius, _CAP_NODES)
    m0 = f.ktype
    ells = np.atleast_1d(np.asarray(ells, dtype=complex))
    # kernel[p, :, j]: weighted kernel mode m0 - 1 + j at ells[p]
    kernel = weights[:, None] * kernel_mode_profiles(
        ells, boundary_log_pairing(theta), (m0 - 1, m0, m0 + 1))
    # the transform of f as a principal-series vector on |m| <= |m0|: m0
    # sits at index at, and so do the orders m0 - 1..m0 + 1 of the action
    at = m0 + abs(m0)
    window = np.zeros((ells.size, 2 * abs(m0) + 1), dtype=complex)
    window[:, at] = kernel[:, :, 1] @ f.profile(theta)
    residuals = []
    for gen in gens:
        lhs = np.einsum("jr,prj->pj", ladder_components(f, gen, theta), kernel)
        rhs = sigma_action(window, -ells, gen)[:, at:at + 3]
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise NumericalError(f"intertwine_check: a side of generator {gen} is not finite")
        scale = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
        gap = np.abs(lhs - rhs).max(axis=1)
        residuals.append(np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0))
    return float(np.max(residuals, initial=0.0))


# ---------------------------------------------------------------------------
# ladder ratios


def kostant_ratio(m: int, t, theta_samples):
    """Probe-independence measurement for the ladder scalar.

    For each probe angle theta, computes the ratio of the m-th kernel
    mode at parameter s = -t - 1/2 to the m-fold ladder operator applied
    to the zonal kernel mode g at the same parameter:

        D_1 g = -g'          D_2 g = g'' - cot(theta) g'

    The theta derivatives are taken inside the boundary average with
    d_theta Q = (Q cos(theta) - 1) / sin(theta), i.e.

        g'  = s <Q^s L>,   g'' = s (s-1) <Q^s L^2> - s <Q^s>,
        L = d_theta Q / Q = (cos(theta) - 1/Q) / sin(theta),

    where <.> is the zonal mode. Each average, and the mode m above, takes
    the sphere.boundary_fold weights over samples of one shared log
    table, so the ratio is exact up to quadrature roundoff. Returns
    (ratios, spread) where spread is the maximal relative deviation from
    the mean; a spread at roundoff level certifies the ratio depends on
    t alone.
    """
    m = abs(int(m))
    thetas = np.atleast_1d(np.asarray(theta_samples, dtype=float))
    if not np.all((thetas > 0.0) & (thetas < math.pi / 2.0)):
        raise CrownDomainError("probe angles must lie inside the crown")
    if m == 0:
        return np.ones(thetas.size, dtype=complex), 0.0
    if m not in (1, 2):
        raise SchemaError("ladder ratios implemented for |m| <= 2")

    t = complex(t)
    s = -t - 0.5
    log_q = boundary_log_pairing(thetas)
    cos, sin = np.cos(thetas), np.sin(thetas)
    dlog = (cos[:, None] - np.exp(-log_q)) / sin[:, None]
    base = np.exp(s * log_q)
    zonal, mode = boundary_fold((0, m))
    d1 = s * ((base * dlog) @ zonal)
    if m == 1:
        den = -d1
    else:
        d2 = s * (s - 1.0) * ((base * dlog**2) @ zonal) - s * (base @ zonal)
        den = d2 - d1 * cos / sin
    keep = np.abs(den) >= 1e-280
    if not keep.any():
        raise NumericalError(
            f"all ladder denominators underflowed for m={m}, t={t}"
        )
    ratios = (base[keep] @ mode) / den[keep]
    mean = ratios.mean()
    spread = float(np.max(np.abs(ratios - mean)) / max(abs(mean), 1e-300))
    return ratios, spread


# ---------------------------------------------------------------------------
# pure K-type synthesis from a zonal seed


class LadderFunction(GridFunction):
    """Pure-type grid function produced by ladder moves on a zonal bump."""

    def __init__(self, grid: SphereGrid, values, ktype: int, profile_fn,
                 profile_d1_fn=None, radius: float | None = None):
        super().__init__(grid, values)
        self.ktype = int(ktype)
        self._profile_fn = profile_fn
        self._profile_d1_fn = profile_d1_fn
        self.radius = radius
        self.handle_ok = profile_d1_fn is not None

    def profile(self, theta):
        return self._profile_fn(np.asarray(theta, dtype=float))

    def profile_d1(self, theta):
        if self._profile_d1_fn is None:
            raise SchemaError(
                "no closed-form profile derivative at this ladder order"
            )
        return self._profile_d1_fn(np.asarray(theta, dtype=float))


def reduction_synthesize(m: int, bump) -> LadderFunction:
    """Pure K-type m function supported in the cap of a zonal seed bump.

    Applies the explicit ladder profiles to the seed's radial shape g:

        |m| = 0: g
        |m| = 1: -g'
        |m| = 2: g'' - cot(theta) g'

    The result is exp(i m phi) times that profile, supported in the
    same cap as the seed (the ladder moves differentiate the profile;
    they never widen the support). Seeds must be zonal, pole-centered
    bumps carrying closed-form derivatives.
    """
    m = int(m)
    if abs(m) > 2:
        raise SchemaError("ladder profiles are available through |m| <= 2")
    if getattr(bump, "ktype", None) != 0 or not getattr(bump, "handle_ok", False):
        raise SchemaError("seed must be a zonal pole-centered bump")
    grid = bump.grid
    g, g1, g2 = bump.g, bump.g1, bump.g2

    if m == 0:
        prof_fn, prof_d1_fn = (lambda th: g(th) + 0.0j), (lambda th: g1(th) + 0.0j)
    elif abs(m) == 1:
        prof_fn, prof_d1_fn = (lambda th: -g1(th) + 0.0j), (lambda th: -g2(th) + 0.0j)
    else:
        def prof_fn(th):
            th = np.asarray(th, dtype=float)
            s = np.sin(th)
            safe = np.where(s == 0.0, 1.0, s)
            cot_part = np.where(s == 0.0, 0.0, np.cos(th) / safe * g1(th))
            return g2(th) - cot_part + 0.0j

        prof_d1_fn = None  # third derivative not carried in closed form

    values = np.outer(prof_fn(grid.theta), np.exp(1j * m * grid.phi_nodes))
    return LadderFunction(grid, values, m, prof_fn, prof_d1_fn,
                          radius=bump.radius)
