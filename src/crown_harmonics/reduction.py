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
from dataclasses import dataclass

import numpy as np

from .errors import CrownDomainError, NumericalError, SchemaError
from .numerics import gauss_legendre
from .sphere import (GridFunction, SphereGrid, boundary_fold, boundary_log_pairing,
                     kernel_mode_profiles)

_GENERATORS = ("Z", "X", "Y")

#: order of the cap-fitted Gauss-Legendre rule in intertwine_check
_CAP_NODES = 96


@dataclass(frozen=True)
class PrincipalSeriesFunction:
    """Finite collection of azimuthal components at one spectral parameter.

    components maps the azimuthal frequency m to a complex amplitude;
    lam is the spectral coordinate (the coefficient of the positive
    root), so the shifted parameter entering the boundary action is
    nu = lam + 1/2.
    """

    components: dict
    lam: complex

    def __post_init__(self):
        comps = {int(m): complex(v) for m, v in dict(self.components).items()}
        for m, v in comps.items():
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise SchemaError(f"non-finite component at m={m}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "lam", complex(self.lam))

    @property
    def nu(self) -> complex:
        return self.lam + 0.5


def sigma_action(psi: PrincipalSeriesFunction, generator: str) -> PrincipalSeriesFunction:
    """Boundary model of a rotation generator on azimuthal components.

    With nu = lam + 1/2 and input amplitudes c_m:

        Z:  out[m]   = i m c_m
        X:  out[m+1] += -(i/2)(nu + m) c_m
            out[m-1] += -(i/2)(nu - m) c_m
        Y:  out[m+1] += -(1/2)(nu + m) c_m
            out[m-1] += +(1/2)(nu - m) c_m

    Only the frequencies allowed by the selection rule are ever
    written, so vanishing of the others is structural, not numerical.
    The action is first order: each generator moves m by at most one.
    """
    gen = str(generator).upper()
    if gen not in _GENERATORS:
        raise SchemaError(f"unknown generator label {generator!r}; expected Z, X, or Y")
    nu = psi.nu
    out: dict = {}

    def add(m, v):
        out[m] = out.get(m, 0.0 + 0.0j) + v

    for m, c in psi.components.items():
        if gen == "Z":
            add(m, 1j * m * c)
        elif gen == "X":
            add(m + 1, -0.5j * (nu + m) * c)
            add(m - 1, -0.5j * (nu - m) * c)
        else:
            add(m + 1, -0.5 * (nu + m) * c)
            add(m - 1, 0.5 * (nu - m) * c)
    return PrincipalSeriesFunction(out, psi.lam)


def ladder_components(handle, generator: str) -> dict:
    """Azimuthal components of a rotation derivative of a pure-type handle.

    The handle carries a single K-type m0 with radial profile h, i.e.
    f = exp(i m0 phi) h(theta). Output maps each resulting K-type m to
    a callable theta -> radial profile of that component:

        Z:  m0      -> i m0 h
        X:  m0 +- 1 -> -h'/2 +- (m0/2) cot(theta) h
        Y:  m0 + 1  ->  (i/2)(h' - m0 cot(theta) h)
            m0 - 1  -> -(i/2)(h' + m0 cot(theta) h)

    These are the vector fields -cos(phi) d_theta + cot(theta) sin(phi)
    d_phi (X), -sin(phi) d_theta - cot(theta) cos(phi) d_phi (Y), and
    d_phi (Z), split into azimuthal frequencies. The cot terms drop out
    for zonal input, and for |m0| >= 1 the profile h carries a
    sin(theta)^{|m0|} factor that keeps them bounded at the pole.
    """
    gen = str(generator).upper()
    m0 = int(handle.ktype)
    h = handle.profile
    hp = handle.profile_d1

    if gen == "Z":
        return {m0: (lambda th: 1j * m0 * h(th))}

    def cot_term(th):
        if m0 == 0:
            return np.zeros_like(np.asarray(th, dtype=float))
        return m0 * (np.cos(th) / np.sin(th)) * h(th)

    if gen == "X":
        return {
            m0 + 1: (lambda th: -0.5 * hp(th) + 0.5 * cot_term(th)),
            m0 - 1: (lambda th: -0.5 * hp(th) - 0.5 * cot_term(th)),
        }
    if gen == "Y":
        return {
            m0 + 1: (lambda th: 0.5j * (hp(th) - cot_term(th))),
            m0 - 1: (lambda th: -0.5j * (hp(th) + cot_term(th))),
        }
    raise SchemaError(f"unknown generator label {generator!r}; expected Z, X, or Y")


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
    largest difference over the K-types either side reaches, relative to
    the largest value on both sides, and the worst pair is returned.

    Both sides integrate with a quadrature rule fitted to the support
    cap, so no accuracy is lost to the support edge. The cap's rule and
    log table are built once per call, and each parameter takes one
    kernel_mode_profiles call over the orders m0 - 1, m0, m0 + 1, which
    every generator shares.
    """
    if not getattr(f, "handle_ok", False):
        raise SchemaError("intertwine_check needs a pole-centered bump handle")
    gens = [str(g).upper() for g in generators]
    for gen in gens:
        if gen not in _GENERATORS:
            raise SchemaError(f"unknown generator label {gen!r}")
    theta, weights = cap_quadrature(f.radius, _CAP_NODES)
    log_q = boundary_log_pairing(theta)
    m0 = f.ktype
    ms = (m0 - 1, m0, m0 + 1)
    seed_profile = f.profile(theta)
    profiles = {gen: {m: prof(theta) for m, prof in ladder_components(f, gen).items()}
                for gen in gens}

    worst = 0.0
    for ell in np.atleast_1d(np.asarray(ells, dtype=complex)).tolist():
        weighted = weights[:, None] * kernel_mode_profiles(ell, log_q, ms)
        kernel = dict(zip(ms, weighted.T))
        seed = complex(np.sum(seed_profile * kernel[m0]))
        psi = PrincipalSeriesFunction({m0: seed}, lam=-ell - 0.5)
        for gen, components in profiles.items():
            lhs = {m: complex(np.sum(prof * kernel[m])) for m, prof in components.items()}
            rhs = sigma_action(psi, gen).components
            scale = max(abs(v) for v in [*lhs.values(), *rhs.values()])
            if scale > 0.0:
                gap = max(abs(lhs.get(m, 0.0) - rhs.get(m, 0.0)) for m in set(lhs) | set(rhs))
                worst = max(worst, gap / scale)
    return worst


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
