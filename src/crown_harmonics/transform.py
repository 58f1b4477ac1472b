"""Kernel Fourier transform on the sphere and its holomorphic extension.

The primitive coefficients are taken against powers of the complexified
pairing:

    c(ell, m) = (1/2*pi) * integral over b of exp(-i m b)
                * integral over the sphere of f(x) Q(x, b)^ell dx db.

At integer degree the boundary modes of Q^ell have the closed form
sphere.integer_kernel_modes, and analyze pairs them with the azimuthal
FFT of f. extend evaluates a single coefficient at any complex ell for
cap-supported f against boundary modes computed by an FFT of Q^ell on
the 512-sample boundary grid, a route that shares no inner loop with
analyze; agreement of the two routes at integer ell is one of the
library's primary cross-checks. synthesize runs the inversion series

    f(x) = sum over ell of (2*ell+1) * (1/2*pi)
           * integral of phi_hat(-ell-1, b) Q(x, b)^ell db,

pulling provider values at the reflected parameter -ell-1 and
contracting them with the closed-form modes.

Coefficient providers (table-backed and extension-backed) live here
too, since synthesize consumes them and extend produces the canonical
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrownDomainError,
    CrownHarmonicsError,
    GridResolutionError,
    ProviderError,
    SchemaError,
)
from .intertwining import intertwiner_rational
from .sphere import (
    DEFAULT_BOUNDARY_SAMPLES,
    SUPPORT_REL_THRESHOLD,
    GridFunction,
    SphereGrid,
    boundary_log_pairing,
    ell_value,
    integer_kernel_modes,
    kernel_mode_profiles,
    require_resolution,
    support_radius,
)

#: direct evaluation is abandoned once the kernel magnitude spread
#: exceeds e^LOG_AMP_DIRECT_MAX, *and* the reflected parameter is at
#: least e^LOG_AMP_ADVANTAGE_MIN tamer. Both conditions are needed: the
#: growth along imaginary directions is genuine signal (no
#: cancellation), while growth from large negative real parts cancels
#: catastrophically and must be rerouted through the reflection.
_LOG_AMP_DIRECT_MAX = math.log(1e12)
_LOG_AMP_ADVANTAGE_MIN = math.log(1e3)


# ---------------------------------------------------------------------------
# coefficient tables


class CoefficientTable:
    """Integer-spectrum coefficients as one dense complex array.

    values has shape (lmax + 1, 2 lmax + 1); the coefficient (l, m) sits
    at values[l, m + lmax]. The K-types are the orders m whose column
    holds a nonzero entry, the same set a JSON round trip keeps.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] != 2 * values.shape[0] - 1:
            raise SchemaError(
                f"table values need shape (lmax + 1, 2 lmax + 1), got {values.shape}")
        self.values = values
        self.lmax = values.shape[0] - 1

    def get(self, l: int, m: int) -> complex:
        """Coefficient (l, m), and 0 outside the stored range."""
        l, m = int(l), int(m)
        if 0 <= l <= self.lmax and abs(m) <= self.lmax:
            return complex(self.values[l, m + self.lmax])
        return 0.0 + 0.0j

    def ktypes(self) -> frozenset:
        columns = np.flatnonzero(np.any(self.values != 0.0, axis=0))
        return frozenset((columns - self.lmax).tolist())


def lm_grid(lmax: int):
    """Broadcastable degree and order arrays (l[:, None], m[None, :]) of the
    dense (lmax + 1, 2 lmax + 1) table layout."""
    return np.arange(lmax + 1)[:, None], np.arange(-lmax, lmax + 1)[None, :]


# ---------------------------------------------------------------------------
# analyze: azimuthal FFT, then the closed-form kernel modes per order


def analyze(f: GridFunction, lmax: int) -> CoefficientTable:
    """Full integer coefficient table of f up to degree lmax.

    The boundary integral of Q^l against exp(-i m b) is exp(-i m phi)
    G_m(l; theta), so c(l, m) pairs the azimuthal mode m of f with the
    closed-form kernel modes: one FFT along phi, then per order one
    product of the (lmax + 1 - |m|, n_theta) mode matrix with the
    weighted column. This costs O(lmax^3) time and O(lmax * n_theta)
    working memory beyond the FFT of f. It equals the double quadrature
    over an explicit 2 lmax + 2 boundary grid in exact arithmetic; the
    entries with l < |m|, which vanish there in exact arithmetic, are
    exact zeros here.
    """
    require_resolution(f.grid, lmax)
    grid = f.grid
    # column m % n_phi: the weighted azimuthal mode (1/n_phi) sum f e^{-i m phi}
    weighted = np.fft.fft(f.values, axis=1) * (grid.theta_weights[:, None] / grid.n_phi)
    values = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for k in range(lmax + 1):
        ms = [-k, k] if k else [0]
        modes = integer_kernel_modes(k, lmax, grid.theta)[k:]
        values[k:, [lmax + m for m in ms]] = modes @ weighted[:, [m % grid.n_phi for m in ms]]
    return CoefficientTable(values)


# ---------------------------------------------------------------------------
# coefficient providers, and extend: holomorphic evaluation at complex ell
# for cap-supported f


class CoefficientProvider:
    """Evaluation contract (ell, m) -> complex with a declared K-type set.

    Subclasses fill in eval(); ktypes is the finite set of K-types on
    which the provider may be nonzero. Evaluation outside the declared
    set returns exactly 0.
    """

    ktypes: frozenset = frozenset()

    def eval(self, ell, m: int) -> complex:  # pragma: no cover - interface
        raise NotImplementedError


class ExtendProvider(CoefficientProvider):
    """Provider wrapping the holomorphic extension of a grid function.

    Precomputes the azimuthal Fourier rows of f, the significant-row
    mask, and the boundary log-pairing on those rows; eval(ell, m) then
    costs one kernel exponential sweep. Instances are immutable after
    construction and safe to share across threads.

    The K-type set is detected from the azimuthal Fourier rows of f
    unless declared explicitly: a K-type counts as present when its row
    modes carry more than rel 1e-12 of the overall peak. A detected or
    declared K-type with 2|m| >= n_phi is aliased on the grid and raises
    GridResolutionError here, before any evaluation.
    """

    def __init__(self, f: GridFunction, ktypes=None):
        self.grid = f.grid
        self.radius = support_radius(f)
        peak = np.abs(f.values).max()
        self.is_zero = peak == 0.0
        if not self.is_zero:
            if self.radius >= math.pi / 2.0:
                raise CrownDomainError(
                    f"support radius {self.radius:.6g} reaches the crown boundary pi/2; "
                    "holomorphic extension requires cap support"
                )
            row_mag = np.abs(f.values).max(axis=1)
            mask = row_mag > SUPPORT_REL_THRESHOLD * peak
            self.weights = f.grid.theta_weights[mask]
            # azimuthal modes: row_modes[:, m % n_phi] = (1/2pi) int f e^{-im phi}
            self.row_modes = np.fft.fft(f.values[mask], axis=1) / f.grid.n_phi
            self.log_pairing = boundary_log_pairing(f.grid.theta[mask])
        if ktypes is not None:
            self.ktypes = frozenset(int(m) for m in ktypes)
        elif self.is_zero:
            self.ktypes = frozenset()
        else:
            modes = self.row_modes
            peak = np.abs(modes).max()
            half = f.grid.n_phi // 2
            present = []
            for m in range(-half + 1, half + 1):
                if np.abs(modes[:, m % f.grid.n_phi]).max() > 1e-12 * peak:
                    present.append(m)
            self.ktypes = frozenset(present)
        aliased = sorted(m for m in self.ktypes if 2 * abs(m) >= f.grid.n_phi)
        if aliased:
            raise GridResolutionError(
                f"grid {f.grid.n_theta}x{f.grid.n_phi} cannot resolve K-type "
                f"m={aliased[-1]}: need n_phi > 2|m|")

    def _log_amplitude(self, ell: complex) -> float:
        return float(np.max(np.real(ell * self.log_pairing)))

    def _direct(self, ell: complex, m: int) -> complex:
        kernel = kernel_mode_profiles(ell, self.log_pairing)
        col = kernel[:, m % DEFAULT_BOUNDARY_SAMPLES]
        fm = self.row_modes[:, m % self.grid.n_phi]
        return complex(np.sum(self.weights * fm * col))

    def eval(self, ell, m: int) -> complex:
        m = int(m)
        if m not in self.ktypes:
            return 0.0 + 0.0j
        ell = ell_value(ell)
        if self.is_zero:
            return 0.0 + 0.0j
        log_amp = self._log_amplitude(ell)
        reflected = -ell - 1.0
        log_amp_reflected = self._log_amplitude(reflected)
        if (
            log_amp > _LOG_AMP_DIRECT_MAX
            and log_amp_reflected < log_amp - _LOG_AMP_ADVANTAGE_MIN
        ):
            # direct power would cancel catastrophically; route through
            # the reflection functional equation phi(ell) =
            # b_m(ell + 1/2) * phi(-ell - 1), whose closed form is
            # validated against the quadrature ratio by the test suite.
            return intertwiner_rational(m, ell + 0.5) * self._direct(reflected, m)
        return self._direct(ell, m)


def extend(f: GridFunction, ell, m: int) -> complex:
    """One coefficient of f at a complex spectral parameter.

    Requires the support of f to stay inside the crown cap (checked via
    support_radius). At integer ell this agrees with the analyze table;
    off the integers it is the holomorphic interpolation of it.
    """
    return ExtendProvider(f, ktypes=(m,)).eval(ell, m)


class TableProvider(CoefficientProvider):
    """Provider backed by an integer coefficient table.

    Evaluates on the integer spectrum directly and on its reflection
    -l-1 through the functional equation with the closed-form scalar;
    any other parameter is outside the table's reach and raises.
    """

    def __init__(self, table: CoefficientTable):
        self.table = table
        self.ktypes = table.ktypes()

    def eval(self, ell, m: int) -> complex:
        ell = ell_value(ell)
        m = int(m)
        if m not in self.ktypes:
            return 0.0 + 0.0j
        if abs(ell.imag) > 1e-9:
            raise ProviderError(
                f"table provider is defined on integers and reflected integers, "
                f"got ell = {ell}", ell=ell, m=m)
        x = ell.real
        if abs(x - round(x)) > 1e-9:
            raise ProviderError(
                f"table provider is defined on integers and reflected integers, "
                f"got ell = {ell}", ell=ell, m=m)
        l = round(x)
        if l >= 0:
            return self.table.get(l, m)
        # reflected integer: phi(-n-1) = b_m(-n-1/2) phi(n) with n = -l-1
        n = -l - 1
        if n > self.table.lmax:
            raise ProviderError(f"table lmax={self.table.lmax} cannot reach ell={l}",
                                ell=ell, m=m)
        if abs(m) > n:
            return 0.0 + 0.0j
        return intertwiner_rational(m, ell + 0.5) * self.table.get(n, m)


# ---------------------------------------------------------------------------
# synthesize: the inversion series


def synthesize(provider: CoefficientProvider, grid: SphereGrid, lmax: int) -> GridFunction:
    """Partial inversion sum of a coefficient provider on a grid.

    For each K-type m with |m| <= lmax (ascending |m|, then ascending m)
    the provider is evaluated at the reflected parameters -l-1 for
    l = |m|..lmax, in ascending l, and those values, weighted by 2l + 1,
    are contracted with the closed-form kernel modes G_m(l; theta) into
    one radial profile; terms with |m| > l vanish identically. An
    inverse azimuthal FFT then assembles the grid. The work is
    O(lmax^2 n_theta) per K-type plus the provider evaluations, and
    results are bit-reproducible for a fixed numpy build.

    Provider values at non-integer parameters, such as those of an
    ExtendProvider, come from the 512-sample boundary FFT, where mode m
    of degree l aliases unless l + |m| < DEFAULT_BOUNDARY_SAMPLES; a sum
    that would include such a term raises GridResolutionError up front.
    A library error or an ArithmeticError raised by the provider becomes
    a ProviderError naming the parameter; any other exception
    propagates.
    """
    require_resolution(grid, 0)
    ms = sorted(provider.ktypes)
    mmax = min(max((abs(m) for m in ms), default=0), lmax)
    if lmax + mmax >= DEFAULT_BOUNDARY_SAMPLES:
        raise GridResolutionError(
            f"lmax={lmax} with K-type |m|={mmax} aliases on the "
            f"{DEFAULT_BOUNDARY_SAMPLES}-sample boundary grid; "
            f"need lmax + |m| < {DEFAULT_BOUNDARY_SAMPLES}")
    for m in ms:
        if 2 * abs(m) >= grid.n_phi:
            raise GridResolutionError(
                f"azimuthal grid {grid.n_phi} cannot represent K-type m={m}")
    # column m % n_phi: the radial profile of the e^{i m phi} component
    spectrum = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    for k in sorted({abs(m) for m in ms if abs(m) <= lmax}):
        modes = integer_kernel_modes(k, lmax, grid.theta)[k:]
        for m in sorted({-k, k} & set(ms)):
            values = np.empty(lmax + 1 - k, dtype=complex)
            for l in range(k, lmax + 1):
                try:
                    values[l - k] = (2 * l + 1) * complex(provider.eval(-l - 1.0, m))
                except (CrownHarmonicsError, ArithmeticError) as exc:
                    raise ProviderError(
                        f"provider failed at (ell={-l - 1}, m={m}): {exc}",
                        ell=-l - 1.0, m=m) from exc
            spectrum[:, m % grid.n_phi] = values @ modes
    return GridFunction(grid, np.fft.ifft(spectrum, axis=1) * grid.n_phi)


# ---------------------------------------------------------------------------
# rotation derivatives


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


def rotation_derivative(f, generator: str, band_limit: int | None = None) -> GridFunction:
    """Rotation vector field applied to a test function.

    Preferred input is a closed-form handle (a testbed bump) carrying
    analytic radial derivatives; the result is sampled exactly and the
    support radius cannot grow. A plain GridFunction is accepted only
    with a declared band limit, in which case the derivative is taken
    spectrally (analyze, apply the boundary model of the generator at
    parameter -ell, synthesize back).
    """
    has_handle = (
        all(hasattr(f, name) for name in ("ktype", "profile", "profile_d1"))
        and getattr(f, "handle_ok", True)
    )
    if isinstance(f, GridFunction) and not has_handle:
        if band_limit is None:
            raise SchemaError(
                "grid data has no closed-form partials; declare band_limit "
                "for the spectral fallback")
        from .reduction import PrincipalSeriesFunction, sigma_action

        table = analyze(f, band_limit)
        out = np.zeros_like(table.values)
        for l, row in enumerate(table.values):
            psi = PrincipalSeriesFunction(
                components=dict(zip(range(-l, l + 1),
                                    row[band_limit - l:band_limit + l + 1].tolist())),
                lam=-l - 0.5)
            for m, v in sigma_action(psi, generator).components.items():
                if abs(m) <= band_limit:
                    out[l, m + band_limit] += v
        return synthesize(TableProvider(CoefficientTable(out)), f.grid, band_limit)

    components = ladder_components(f, generator)
    grid = f.grid
    out = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    for m, profile in sorted(components.items()):
        out += np.outer(profile(grid.theta), np.exp(1j * m * grid.phi_nodes))
    return GridFunction(grid, out)
