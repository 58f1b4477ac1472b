"""Boundary models of the rotation generators and ladder identities.

The coefficient transform turns a rotation derivative on the sphere
into a first-order difference operator on azimuthal components at a
reflected parameter. This module implements that boundary action,
verifies the resulting intertwining identity with cap-fitted
quadrature, and exposes the ladder machinery connecting zonal data to
higher K-types: pure-type synthesis and measurements of the ladder
ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrownDomainError, NumericalError, SchemaError
from .sphere import (DEFAULT_BOUNDARY_SAMPLES, GridFunction, SphereGrid,
                     boundary_log_pairing, cap_quadrature, kernel_mode_profiles)
from .transform import ladder_components

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

    def amplitude(self, m: int) -> complex:
        return self.components.get(int(m), 0.0 + 0.0j)


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


# ---------------------------------------------------------------------------
# intertwining residual with support-fitted quadrature


def _cap_coefficient(weights, profile_values, kernel, m: int) -> complex:
    return complex(np.sum(weights * profile_values * kernel[:, m % kernel.shape[1]]))


def intertwine_check(f, generator: str, ell, m_range=None) -> float:
    """Relative residual of the derivative-transform exchange identity.

    f must be a pure-type handle (a pole-centered bump): f carries one
    azimuthal frequency with closed-form radial profile and derivative.
    The left side transforms the rotation derivative of f at parameter
    ell; the right side applies the boundary model at nu = -ell to the
    transform of f. Both sides integrate with a quadrature rule fitted
    to the support cap, so no accuracy is lost to the support edge.
    """
    if not getattr(f, "handle_ok", False):
        raise SchemaError("intertwine_check needs a pole-centered bump handle")
    gen = str(generator).upper()
    if gen not in _GENERATORS:
        raise SchemaError(f"unknown generator label {generator!r}")
    ell = complex(ell)
    radius = f.spec.radius if hasattr(f, "spec") else getattr(f, "radius", None)
    if radius is None:
        raise SchemaError("handle does not declare its support radius")
    theta, weights = cap_quadrature(radius, _CAP_NODES)
    kernel = kernel_mode_profiles(ell, boundary_log_pairing(theta))

    lhs = {
        m: _cap_coefficient(weights, prof(theta), kernel, m)
        for m, prof in ladder_components(f, gen).items()
    }
    seed = _cap_coefficient(weights, f.profile(theta), kernel, f.ktype)
    psi = PrincipalSeriesFunction({f.ktype: seed}, lam=-ell - 0.5)
    rhs = sigma_action(psi, gen).components

    keys = set(lhs) | set(rhs)
    if m_range is not None:
        keys &= {int(m) for m in m_range}
    if not keys:
        return 0.0
    scale = max(
        [abs(v) for v in lhs.values()] + [abs(v) for v in rhs.values()] + [0.0]
    )
    if scale == 0.0:
        return 0.0
    return max(
        abs(lhs.get(m, 0.0) - rhs.get(m, 0.0)) for m in keys
    ) / scale


# ---------------------------------------------------------------------------
# ladder ratios


def kostant_ratio(m: int, t, theta_samples):
    """Probe-independence measurement for the ladder scalar.

    For each probe angle theta, computes the ratio of the m-th kernel
    mode at parameter t to the m-fold ladder operator applied to the
    zonal kernel mode at the same parameter:

        D_1 g = -g'          D_2 g = g'' - cot(theta) g'

    The first and second parameter derivatives of the zonal mode are
    taken analytically inside the boundary average, so the ratio is
    exact up to quadrature roundoff. Returns (ratios, spread) where
    spread is the maximal relative deviation from the mean; a spread at
    roundoff level certifies the ratio depends on t alone.
    """
    m = abs(int(m))
    thetas = [float(th) for th in np.atleast_1d(theta_samples)]
    for th in thetas:
        if not 0.0 < th < math.pi / 2.0:
            raise CrownDomainError("probe angles must lie inside the crown")
    if m == 0:
        return np.ones(len(thetas), dtype=complex), 0.0
    if m not in (1, 2):
        raise SchemaError("ladder ratios implemented for |m| <= 2")

    t = complex(t)
    s = -t - 0.5
    nb = DEFAULT_BOUNDARY_SAMPLES
    c = 2.0 * math.pi * np.arange(nb) / nb
    phase = np.exp(-1j * m * c)
    ratios = []
    for th in thetas:
        q = math.cos(th) + 1j * math.sin(th) * np.cos(c)
        logq = np.log(q)
        q_th = -math.sin(th) + 1j * math.cos(th) * np.cos(c)
        base = np.exp(s * logq)
        num = np.mean(base * phase)
        dphi1 = s * np.mean(np.exp((s - 1.0) * logq) * q_th)
        if m == 1:
            den = -dphi1
        else:
            dphi2 = s * (s - 1.0) * np.mean(np.exp((s - 2.0) * logq) * q_th**2) \
                - s * np.mean(base)
            den = dphi2 - dphi1 * math.cos(th) / math.sin(th)
        if abs(den) < 1e-280:
            continue
        ratios.append(num / den)
    if not ratios:
        raise NumericalError(
            f"all ladder denominators underflowed for m={m}, t={t}"
        )
    ratios = np.asarray(ratios, dtype=complex)
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


def reduction_synthesize(m: int, bump, grid: SphereGrid | None = None) -> LadderFunction:
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
    grid = grid if grid is not None else bump.grid
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
                          radius=bump.spec.radius)
