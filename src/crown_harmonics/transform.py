"""Kernel Fourier transform on the sphere and its holomorphic extension.

The primitive coefficients are taken against powers of the complexified
pairing:

    c(ell, m) = (1/2*pi) * integral over b of exp(-i m b)
                * integral over the sphere of f(x) Q(x, b)^ell dx db.

At integer degree the boundary modes of Q^ell have the closed form
sphere.integer_kernel_modes, and analyze pairs them with the azimuthal
FFT of f. extend evaluates a single coefficient at any complex ell for
cap-supported f against boundary modes of Q^ell by the folded
512-sample trapezoid rule of sphere.kernel_mode_profiles, a route that
shares no inner loop with analyze; agreement of the two routes at
integer ell is one of the library's primary cross-checks. synthesize
runs the inversion series

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
from .intertwining import POLE_TOL, intertwiner_rational, singular_distance
from .sphere import (
    DEFAULT_BOUNDARY_SAMPLES,
    SUPPORT_REL_THRESHOLD,
    GridFunction,
    SphereGrid,
    boundary_fold,
    boundary_log_pairing,
    ell_value,
    integer_kernel_modes,
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
    """Evaluation contract with a declared K-type set.

    ktypes is the finite set of K-types on which the provider may be
    nonzero. eval_many(ells) returns an array of shape (len(ells),
    len(ktypes)) whose column j holds the K-type sorted(ktypes)[j];
    eval(ell, m) is one entry of it, and exactly 0 for m outside the
    declared set. A scalar provider overrides eval only: the base
    eval_many loops over it and reports a library error or an
    ArithmeticError as a ProviderError naming (ell, m), with the
    original as its __cause__; any other exception propagates. A
    batched provider overrides eval_many and raises its own
    ProviderError.
    """

    ktypes: frozenset = frozenset()

    def eval(self, ell, m: int) -> complex:  # pragma: no cover - interface
        raise NotImplementedError

    def eval_many(self, ells) -> np.ndarray:
        ms = sorted(self.ktypes)
        out = np.empty((len(ells), len(ms)), dtype=complex)
        for i, ell in enumerate(ells):
            for j, m in enumerate(ms):
                try:
                    out[i, j] = complex(self.eval(ell, m))
                except (CrownHarmonicsError, ArithmeticError) as exc:
                    raise ProviderError(
                        f"provider failed at (ell={_format_ell(ell)}, m={m}): {exc}",
                        ell=ell, m=m) from exc
        return out


def _format_ell(ell) -> str:
    ell = complex(ell)
    return f"{ell.real:g}" if ell.imag == 0.0 else f"{ell:g}"


def _one_point(provider: CoefficientProvider, ell, m: int) -> complex:
    """eval(ell, m) of a batched provider: one entry of eval_many([ell])."""
    m = int(m)
    if m not in provider.ktypes:
        return 0.0 + 0.0j
    return complex(provider.eval_many([ell])[0, sorted(provider.ktypes).index(m)])


class ExtendProvider(CoefficientProvider):
    """Provider wrapping the holomorphic extension of a grid function.

    Precomputes, on the significant rows of f, the half-boundary log
    table of sphere.boundary_log_pairing, one weighted row vector per
    K-type and the sphere.boundary_fold weights of the K-types; eval_many
    then costs one kernel exponential per spectral parameter, shared by
    all K-types. It is the folded rule of sphere.kernel_mode_profiles
    with the sum over rows taken first, since the K-types are far fewer
    than the rows. A K-type's row vector keeps only the rows where its
    own azimuthal mode exceeds SUPPORT_REL_THRESHOLD of its own peak: on
    the other rows its column holds only roundoff left by other K-types,
    which the kernel would amplify like e^{t theta} on the tempered line.
    Instances are immutable after construction and safe to share across
    threads.

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
            mask = np.abs(f.values).max(axis=1) > SUPPORT_REL_THRESHOLD * peak
            # azimuthal modes: row_modes[:, m % n_phi] = (1/2pi) int f e^{-im phi}
            row_modes = np.fft.fft(f.values[mask], axis=1) / f.grid.n_phi
        if ktypes is not None:
            self.ktypes = frozenset(int(m) for m in ktypes)
        elif self.is_zero:
            self.ktypes = frozenset()
        else:
            peak = np.abs(row_modes).max()
            half = f.grid.n_phi // 2
            present = []
            for m in range(-half + 1, half + 1):
                if np.abs(row_modes[:, m % f.grid.n_phi]).max() > 1e-12 * peak:
                    present.append(m)
            self.ktypes = frozenset(present)
        aliased = sorted(m for m in self.ktypes if 2 * abs(m) >= f.grid.n_phi)
        if aliased:
            raise GridResolutionError(
                f"grid {f.grid.n_theta}x{f.grid.n_phi} cannot resolve K-type "
                f"m={aliased[-1]}: need n_phi > 2|m|")
        if self.is_zero:
            return
        ms = sorted(self.ktypes)
        self._log_q = boundary_log_pairing(f.grid.theta[mask])
        self._log_re = self._log_q.real.copy()
        self._log_im = self._log_q.imag.copy()
        self._cosines = boundary_fold(ms)
        columns = row_modes[:, [m % f.grid.n_phi for m in ms]]
        magnitude = np.abs(columns)
        own = magnitude > SUPPORT_REL_THRESHOLD * magnitude.max(axis=0)
        self._weighted = np.where(own, f.grid.theta_weights[mask][:, None] * columns, 0.0).T

    def _values(self, power: complex) -> np.ndarray:
        """sum over rows of w f_m G_m(power; theta) for every K-type m."""
        kernel = np.exp(power * self._log_q)
        return np.sum((self._weighted @ kernel) * self._cosines, axis=1)

    def eval_many(self, ells) -> np.ndarray:
        ms = sorted(self.ktypes)
        if not ms:
            return np.zeros((len(ells), 0), dtype=complex)
        ells = np.array([ell_value(ell) for ell in ells], dtype=complex)
        out = np.zeros((len(ells), len(ms)), dtype=complex)
        if self.is_zero:
            return out
        reflect = np.zeros(len(ells), dtype=bool)
        for i, ell in enumerate(ells):
            # Re(ell log Q); the reflected parameter -ell-1 has -a - Re log Q.
            # Where the direct power would cancel catastrophically, take the
            # values at -ell-1 and apply the reflection below
            a = ell.real * self._log_re - ell.imag * self._log_im
            log_amp = a.max()
            reflect[i] = (log_amp > _LOG_AMP_DIRECT_MAX
                          and (-a - self._log_re).max() < log_amp - _LOG_AMP_ADVANTAGE_MIN)
            out[i] = self._values(-ell - 1.0 if reflect[i] else ell)
        rows = np.flatnonzero(reflect)
        if not rows.size:
            return out
        # phi(ell) = b_m(ell + 1/2) phi(-ell - 1), one closed-form b_m per
        # K-type over the reflected points; at ell = -n-1 with n < |m| the
        # identity reads 0 * inf, so only the direct value exists
        t = ells[rows] + 0.5
        pole = np.array([singular_distance(m, t) < POLE_TOL for m in ms]).T
        for j, m in enumerate(ms):
            out[rows[~pole[:, j]], j] *= intertwiner_rational(m, t[~pole[:, j]])
        for i, at_pole in zip(rows, pole):
            if at_pole.any():
                out[i, at_pole] = self._values(ells[i])[at_pole]
        return out

    def eval(self, ell, m: int) -> complex:
        return _one_point(self, ell, m)


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
    -n-1 through the functional equation phi(-n-1) = b_m(-n-1/2) phi(n),
    with intertwiner_rational at the real parameters -n-1/2 of the batch,
    one call per order; there b_m(-n-1/2) = prod_{j<|m|} (n+1+j)/(j-n).
    Entries with |m| > n are exact zeros. Any other parameter is outside
    the table's reach and raises ProviderError, after the whole batch is
    checked and before any value is computed.
    """

    def __init__(self, table: CoefficientTable):
        self.table = table
        self.ktypes = table.ktypes()

    def _degree(self, ell) -> int:
        ell = ell_value(ell)
        x = ell.real
        if abs(ell.imag) > 1e-9 or abs(x - round(x)) > 1e-9:
            raise ProviderError(
                f"table provider is defined on integers and reflected integers, "
                f"got ell = {ell}", ell=ell)
        l = round(x)
        if -l - 1 > self.table.lmax:
            raise ProviderError(f"table lmax={self.table.lmax} cannot reach ell={l}", ell=ell)
        return l

    def eval_many(self, ells) -> np.ndarray:
        ms = sorted(self.ktypes)
        if not ms:
            return np.zeros((len(ells), 0), dtype=complex)
        ls = np.array([self._degree(ell) for ell in ells], dtype=int)
        lmax, values = self.table.lmax, self.table.values
        out = np.zeros((ls.size, len(ms)), dtype=complex)
        direct = np.flatnonzero((ls >= 0) & (ls <= lmax))
        out[direct] = values[ls[direct][:, None], np.array(ms) + lmax]
        for j, m in enumerate(ms):
            rows = np.flatnonzero(-ls - 1 >= abs(m))
            n = -ls[rows] - 1
            out[rows, j] = intertwiner_rational(m, -n - 0.5) * values[n, m + lmax]
        return out

    def eval(self, ell, m: int) -> complex:
        return _one_point(self, ell, m)


# ---------------------------------------------------------------------------
# synthesize: the inversion series


def synthesize(provider: CoefficientProvider, grid: SphereGrid, lmax: int) -> GridFunction:
    """Partial inversion sum of a coefficient provider on a grid.

    The provider is evaluated in one eval_many call at the reflected
    parameters -l-1 for l = k..lmax in ascending l, where k is the
    smallest |m| among its K-types with |m| <= lmax; for each such
    K-type m the values with l >= |m|, weighted by 2l + 1, are
    contracted with the closed-form kernel modes G_m(l; theta) into one
    radial profile (terms with |m| > l vanish identically and their
    values are not used). An inverse azimuthal FFT then assembles the
    grid. The work is O(lmax^2 n_theta) per K-type plus the provider
    evaluations, and results are bit-reproducible for a fixed numpy
    build.

    Provider values at non-integer parameters, such as those of an
    ExtendProvider, come from the 512-sample boundary rule, where mode m
    of degree l aliases unless l + |m| < DEFAULT_BOUNDARY_SAMPLES; a sum
    that would include such a term raises GridResolutionError up front.
    Provider failures follow the eval_many contract: a ProviderError
    naming the parameter for library errors and ArithmeticErrors, any
    other exception propagates.
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
    orders = sorted({abs(m) for m in ms if abs(m) <= lmax})
    if orders:
        ls = np.arange(orders[0], lmax + 1)
        values = provider.eval_many(-ls - 1.0) * (2 * ls + 1)[:, None]
        for k in orders:
            modes = integer_kernel_modes(k, lmax, grid.theta)[k:]
            for m in sorted({-k, k} & set(ms)):
                spectrum[:, m % grid.n_phi] = values[k - orders[0]:, ms.index(m)] @ modes
    return GridFunction(grid, np.fft.ifft(spectrum, axis=1) * grid.n_phi)
