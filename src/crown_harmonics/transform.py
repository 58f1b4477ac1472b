"""Kernel Fourier transform on the sphere and its holomorphic extension.

The primitive coefficients are taken against powers of the complexified
pairing:

    c(ell, m) = (1/2*pi) * integral over b of exp(-i m b)
                * integral over the sphere of f(x) Q(x, b)^ell dx db.

At integer degree the boundary modes of Q^ell have the closed form
of sphere.kernel_mode_sweep, and analyze pairs them with the azimuthal
FFT of f. extend evaluates a single coefficient at any complex ell for
cap-supported f against boundary modes of Q^ell by the folded
512-sample trapezoid rule of sphere.boundary_fold, a route that
shares no inner loop with analyze; agreement of the two routes at
integer ell is one of the library's primary cross-checks. synthesize
runs the inversion series

    f(x) = sum over ell of (2*ell+1) * (1/2*pi)
           * integral of phi_hat(-ell-1, b) Q(x, b)^ell db,

reading provider values on the integer spectrum, where the reflected
coefficient is phi(-l-1, m) = b_m(-l-1/2) phi(l, m), and contracting
them with the closed-form modes.

Coefficient providers (table-backed and extension-backed) live here
too, since synthesize consumes them and extend produces the canonical
one.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .errors import (
    CrownDomainError,
    GridResolutionError,
    NumericalError,
    ProviderError,
    SchemaError,
)
from .intertwining import POLE_TOL, intertwiner_ladder, singular_distance
from .sphere import (
    DEFAULT_BOUNDARY_SAMPLES,
    SUPPORT_REL_THRESHOLD,
    GridFunction,
    SphereGrid,
    boundary_fold,
    boundary_log_pairing,
    kernel_mode_sweep,
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

#: degrees of kernel_mode_sweep whose modes synthesize contracts at once
_SWEEP_BLOCK = 8

#: points of a ray whose extension values eval_rays folds at once
_RAY_BLOCK = 16

#: i^k at k % 4, exact
_I_POWERS = np.array([1, 1j, -1, -1j])


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

    def ktypes(self) -> frozenset:
        columns = np.flatnonzero(np.any(self.values != 0.0, axis=0))
        return frozenset((columns - self.lmax).tolist())


def lm_grid(lmax: int):
    """Broadcastable degree and order arrays (l[:, None], m[None, :]) of the
    dense (lmax + 1, 2 lmax + 1) table layout."""
    return np.arange(lmax + 1)[:, None], np.arange(-lmax, lmax + 1)[None, :]


# ---------------------------------------------------------------------------
# analyze: azimuthal FFT, then the closed-form kernel modes degree by degree


def analyze(f: GridFunction, lmax: int) -> CoefficientTable:
    """Full integer coefficient table of f up to degree lmax.

    The boundary integral of Q^l against exp(-i m b) is exp(-i m phi)
    G_m(l; theta), so c(l, m) pairs the azimuthal mode m of f with the
    closed-form kernel modes: one FFT along phi, then one sweep of
    sphere.kernel_mode_sweep over every order k = 0..lmax, lmax + 1
    Python-level steps in all. Step l contracts the modes G_k(l) of the
    orders k <= l with the weighted azimuthal columns of +k and -k, in
    which the factor i^k is folded (an exact multiply), into row l of the
    table. This costs O(lmax^3) time and O(lmax * n_theta) working memory
    beyond the FFT of f. It equals the double quadrature over an explicit
    2 lmax + 2 boundary grid in exact arithmetic; the entries with
    l < |m|, which vanish there in exact arithmetic, are exact zeros here.
    """
    require_resolution(f.grid, lmax)
    grid = f.grid
    # column m % n_phi: the weighted azimuthal mode (1/n_phi) sum f e^{-i m phi}
    weighted = np.fft.fft(f.values, axis=1) * (grid.theta_weights[:, None] / grid.n_phi)
    ks = np.arange(lmax + 1)
    # columns[k] = re, im of i^k times the column +k, then of -k, over theta
    phase = _I_POWERS[ks % 4][:, None]
    columns = np.empty((lmax + 1, 4, grid.n_theta))
    for c, sign in ((0, 1), (2, -1)):
        column = weighted[:, sign * ks % grid.n_phi].T * phase
        columns[:, c], columns[:, c + 1] = column.real, column.imag
    # pairs[l, k] = c(l, k), c(l, -k) as re, im pairs; the entries with l < k
    # stay exact zeros
    pairs = np.zeros((lmax + 1, lmax + 1, 4))
    for l, g in kernel_mode_sweep(ks, lmax, grid.theta):
        np.einsum("it,ict->ic", g, columns[:l + 1], out=pairs[l, :l + 1])
    pairs = pairs.view(complex)
    values = np.empty((lmax + 1, 2 * lmax + 1), dtype=complex)
    values[:, lmax:] = pairs[:, :, 0]
    values[:, lmax::-1] = pairs[:, :, 1]
    return CoefficientTable(values)


# ---------------------------------------------------------------------------
# coefficient providers, and extend: holomorphic evaluation at complex ell
# for cap-supported f


class CoefficientProvider:
    """Evaluation contract with a declared K-type set.

    ktypes is the finite set of K-types on which the provider may be
    nonzero. A provider implements one method, eval_rays(origins, steps,
    n): its values at the points origins[i] + j steps[i], j = 0..n-1
    (see ray_points), as an array of shape (rays * n, len(ktypes)) with
    rows in ray-major order and column j holding the K-type
    sorted(ktypes)[j]. eval_many(ells) is eval_rays with one point per
    ray, and eval(ell, m) is one entry of it, exactly 0 for m outside
    the declared set. A provider raises its own errors.
    """

    ktypes: frozenset = frozenset()

    def eval_rays(self, origins, steps, n: int) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def eval_many(self, ells) -> np.ndarray:
        return self.eval_rays(ells, 0.0, 1)

    def eval(self, ell, m: int) -> complex:
        m = int(m)
        if m not in self.ktypes:
            return 0.0 + 0.0j
        return complex(self.eval_many([ell])[0, sorted(self.ktypes).index(m)])


def ray_points(origins, steps, n: int) -> np.ndarray:
    """The points origins[i] + j steps[i], j = 0..n-1, as a (rays, n) array.

    steps broadcasts against origins; column 0 holds the origins as given.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise SchemaError(f"a ray needs an integer point count n >= 0, got {n!r}")
    origins = np.atleast_1d(np.asarray(origins, dtype=complex))
    steps = np.broadcast_to(np.asarray(steps, dtype=complex), origins.shape)
    points = origins[:, None] + steps[:, None] * np.arange(n)
    if n:
        points[:, 0] = origins
    return points


def _format_ell(ell) -> str:
    ell = complex(ell)
    return f"{ell.real:g}" if ell.imag == 0.0 else f"{ell:g}"


class ExtendProvider(CoefficientProvider):
    """Provider wrapping the holomorphic extension of a grid function.

    Precomputes, on the significant rows of f, the half-boundary log
    table of sphere.boundary_log_pairing, one weighted row vector per
    K-type and the sphere.boundary_fold weights of the K-types. eval_rays
    steps the kernel along each ray, since Q^(ell + step) = Q^ell Q^step:
    a run of points on one route (direct, or reflected through -ell-1)
    starts from Q^power, and each further point multiplies it by Q^step.
    Within one call each kernel power takes one exponential, and two
    kernels are held across rays, the last run start and the last step
    kernel: a run that starts at the held power copies it, a step equal
    to the held one reuses it, and a step that is its exact negation
    takes its reciprocal, Q^-step = 1/Q^step, which also serves the
    reflected run of a ray. Every further point costs one in-place
    multiply by Q^step and one (K x rows)(rows x 257) row product into a
    block buffer; every block of _RAY_BLOCK points costs one multiply by
    the folded cosines, one pairwise sum over the 257 samples, one
    finiteness test and one write. The row product stays per point: one
    product over a whole block takes the last sample of each point
    through a different BLAS edge kernel and changes its last bit, and
    one long dot product of the kernel with weights and cosines folded
    together gives up the short row sum and the pairwise cosine sum. The
    kernel is shared by all K-types. eval_many takes one point per ray,
    so a single point takes an exact exponential.

    Routes are decided per ray, from the last significant row, so the
    route arrays grow with the longest ray, not with the batch. The log
    table lies in the log image of the segment |z| <= 1,
    Re z >= cos(theta_last), where Re(ell log Q) and Re((-ell-1) log Q)
    are harmonic: each peaks on the boundary, on the arc (where it is
    linear in arg z) at the arc's ends. The chord and both ends are the
    last row's samples, so both maxima of a ray are one product of its
    points with that row.

    It applies the boundary_fold weights to its own kernel samples: the
    rule of sphere.kernel_mode_profiles, summed over rows first since the
    K-types are far fewer than the rows. A K-type's row vector keeps only
    the rows where its own azimuthal mode exceeds SUPPORT_REL_THRESHOLD
    of its own peak: on the other rows its column holds only roundoff
    left by other K-types, which the kernel would amplify like
    e^{t theta} on the tempered line. Instances are immutable after
    construction and safe to share across threads.

    The K-type set is detected from the azimuthal Fourier rows of f
    unless declared explicitly: a K-type counts as present when its row
    modes carry more than rel 1e-12 of the overall peak. The candidates
    are every order of the grid, -((n_phi-1)//2)..n_phi//2. A detected or
    declared K-type with 2|m| >= n_phi is aliased on the grid and raises
    GridResolutionError here, before any evaluation.

    Mode m of Q^l aliases on the boundary rule once l + |m| reaches
    DEFAULT_BOUNDARY_SAMPLES. A batch holding a nonnegative integer l
    with l + min(|m|, l) >= DEFAULT_BOUNDARY_SAMPLES for one of the
    K-types raises GridResolutionError before any kernel exponential.
    At a nonnegative integer l < |m| the value is exactly 0, as in
    analyze.
    """

    def __init__(self, f: GridFunction, ktypes=None):
        radius = support_radius(f)
        peak = np.abs(f.values).max()
        self.is_zero = peak == 0.0
        if not self.is_zero:
            if radius >= math.pi / 2.0:
                raise CrownDomainError(
                    f"support radius {radius:.6g} reaches the crown boundary pi/2; "
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
            column_peaks = np.abs(row_modes).max(axis=0)
            candidates = np.arange(-((f.grid.n_phi - 1) // 2), f.grid.n_phi // 2 + 1)
            present = column_peaks[candidates % f.grid.n_phi] > 1e-12 * column_peaks.max()
            self.ktypes = frozenset(candidates[present].tolist())
        aliased = sorted(m for m in self.ktypes if 2 * abs(m) >= f.grid.n_phi)
        if aliased:
            raise GridResolutionError(
                f"grid {f.grid.n_theta}x{f.grid.n_phi} cannot resolve K-type "
                f"m={aliased[-1]}: need n_phi > 2|m|")
        if self.is_zero:
            return
        ms = sorted(self.ktypes)
        self._log_q = boundary_log_pairing(f.grid.theta[mask])
        self._cosines = boundary_fold(ms)
        columns = row_modes[:, [m % f.grid.n_phi for m in ms]]
        magnitude = np.abs(columns)
        own = magnitude > SUPPORT_REL_THRESHOLD * magnitude.max(axis=0)
        self._weighted = np.where(own, f.grid.theta_weights[mask][:, None] * columns, 0.0).T

    def _kernel(self, power: complex) -> np.ndarray:
        """Q^power on the half-boundary samples of the significant rows."""
        kernel = power * self._log_q
        np.exp(kernel, out=kernel)
        return kernel

    def _contract(self, kernel: np.ndarray) -> np.ndarray:
        """sum over rows of w f_m G_m for every K-type m, from the kernel samples."""
        return np.sum((self._weighted @ kernel) * self._cosines, axis=1)

    # a kernel power, or the reciprocal of an underflowed step kernel, may
    # overflow; the values it leaves are not finite, and the callers'
    # finite checks report that as a numerical failure
    @np.errstate(over="ignore", invalid="ignore")
    def eval_rays(self, origins, steps, n: int) -> np.ndarray:
        ms = sorted(self.ktypes)
        points = ray_points(origins, steps, n)
        if not np.all(np.isfinite(points)):
            raise SchemaError("spectral parameter must be finite")
        out = np.zeros((points.size, len(ms)), dtype=complex)
        if not ms or self.is_zero:
            return out
        ks = np.abs(ms)
        ells = points.ravel()
        integer = (ells.imag == 0.0) & (ells.real >= 0.0) & (ells.real == np.round(ells.real))
        if integer.any():
            l = int(ells.real[integer].max())
            k = min(int(ks.max()), l)
            if l + k >= DEFAULT_BOUNDARY_SAMPLES:
                raise GridResolutionError(
                    f"degree l={l} with K-type |m|={k} aliases on the "
                    f"{DEFAULT_BOUNDARY_SAMPLES}-sample boundary grid; "
                    f"need l + |m| < {DEFAULT_BOUNDARY_SAMPLES}")
        edge = self._log_q[-1]
        reflect = np.zeros(points.shape, dtype=bool)
        steps = np.broadcast_to(np.asarray(steps, dtype=complex), points.shape[:1])
        prod = np.empty((_RAY_BLOCK, len(ms), edge.size), dtype=complex)
        # kernel is the working buffer a run steps; across rays the call
        # holds the last run-start kernel and the last step kernel, each
        # with its power
        kernel = np.empty_like(self._log_q)
        start_power = start = step_power = step_kernel = None
        for i, (ray, step) in enumerate(zip(points, steps)):
            # a = Re(ell log Q) and Re((-ell-1) log Q) = -(a + Re log Q) peak on
            # the last row; where the direct power would cancel, -ell-1 is
            # reflected
            a = np.multiply.outer(ray.real, edge.real)
            a -= np.multiply.outer(ray.imag, edge.imag)
            log_amp = a.max(axis=1)
            a += edge.real
            reflect[i] = (log_amp > _LOG_AMP_DIRECT_MAX) & (
                -a.min(axis=1) < log_amp - _LOG_AMP_ADVANTAGE_MIN)
            routes = reflect[i].tolist()
            # a run of points on one route starts from Q^power: the held
            # start if the power is the same, else an exact exponential.
            # Each further point multiplies the kernel in place by Q^step:
            # the held step kernel if the step is the same, its reciprocal
            # if the step is its negation (Q^-step = 1/Q^step), else an
            # exact exponential. The reflected points -ell-1 of a ray form
            # a ray of step -step. Each point's row product fills one slot
            # of the block buffer; a block is folded with the cosines,
            # summed and tested at once. An overflowed sample times an
            # underflowed one is nan where the exact power may be finite,
            # so a run ends at a value that is not finite: a block is
            # stepped as if its runs held, kept up to its first such value,
            # and the ray resumes after it with prev None and no held
            # kernel, one point at a time while the values stay not finite.
            # A step kernel that is not finite is not used (None)
            prev, j = None, 0
            while j < n:
                w = min(n - j, _RAY_BLOCK if j == 0 or prev is not None else 1)
                block = prod[:w]
                for b, (ell, route) in enumerate(zip(ray[j:j + w], routes[j:j + w])):
                    power, delta = (-ell - 1.0, -step) if route else (ell, step)
                    if route == prev and delta != step_power:
                        if step_kernel is not None and delta == -step_power:
                            np.reciprocal(step_kernel, out=step_kernel)
                        else:
                            step_kernel = self._kernel(delta)
                        step_power = delta
                        if not np.isfinite(step_kernel).all():
                            step_kernel = None
                    if route == prev and step_kernel is not None:
                        kernel *= step_kernel
                    else:
                        if power != start_power:
                            start_power, start = power, self._kernel(power)
                        np.copyto(kernel, start)
                    np.matmul(self._weighted, kernel, out=block[b])
                    prev = route
                np.multiply(block, self._cosines, out=block)
                values = np.add.reduce(block, axis=2)
                finite = np.isfinite(values).all(axis=1)
                if not finite.all():
                    w, prev = int(finite.argmin()) + 1, None
                    start_power = step_power = step_kernel = None
                out[i * n + j:i * n + j + w] = values[:w]
                j += w
        # at a nonnegative integer l < |m| the exact value is 0, as in analyze;
        # the rule leaves roundoff there, or the alias of mode m - 512
        out[integer[:, None] & (ells.real[:, None] < ks)] = 0.0
        rows = np.flatnonzero(reflect.ravel())
        if not rows.size:
            return out
        # phi(ell) = b_m(ell + 1/2) phi(-ell - 1), every b_m from one ladder
        # over the reflected points; at ell = -n-1 with n < |m| the identity
        # reads 0 * inf, so the direct value replaces the product there
        t = ells[rows] + 0.5
        out[rows] *= intertwiner_ladder(ks.max(), t)[:, ks]
        pole = singular_distance(ks, t[:, None]) < POLE_TOL
        for i, at_pole in zip(rows, pole):
            if at_pole.any():
                out[i, at_pole] = self._contract(self._kernel(ells[i]))[at_pole]
        return out

    # perfbench/tracer.py wraps eval from this class's own __dict__
    eval = CoefficientProvider.eval


def extend(f: GridFunction, ell, m: int) -> complex:
    """One coefficient of f at a complex spectral parameter.

    Requires the support of f to stay inside the crown cap (checked via
    support_radius). At integer ell this agrees with the analyze table;
    off the integers it is the holomorphic interpolation of it. A value
    that is not finite (the kernel overflowed) raises NumericalError.
    """
    value = ExtendProvider(f, ktypes=(m,)).eval(ell, m)
    if not cmath.isfinite(value):
        raise NumericalError(
            f"extension not finite at (ell={_format_ell(ell)}, m={int(m)}): "
            "the kernel power overflowed")
    return value


class TableProvider(CoefficientProvider):
    """Provider backed by an integer coefficient table: a gather.

    eval_rays reads the table at nonnegative integers l, and 0 past its
    lmax. A negative or non-integer parameter is outside the table's
    reach and raises ProviderError, after every point is checked and
    before any value is read. The reflection to -l-1 is synthesize's:
    the table holds no functional equation.
    """

    def __init__(self, table: CoefficientTable):
        self.table = table
        self.ktypes = table.ktypes()

    # a parameter that is not finite compares False and is rejected
    @np.errstate(invalid="ignore")
    def eval_rays(self, origins, steps, n: int) -> np.ndarray:
        ms = sorted(self.ktypes)
        ells = ray_points(origins, steps, n).ravel()
        if not ms:
            return np.zeros((ells.size, 0), dtype=complex)
        ls = np.round(ells.real)
        bad = ~((np.abs(ells.imag) <= 1e-9) & (np.abs(ells.real - ls) <= 1e-9) & (ls >= 0.0))
        if bad.any():
            ell = complex(ells[bad][0])
            raise ProviderError(
                f"table provider is defined on the nonnegative integers, got ell = {ell}",
                ell=ell)
        lmax = self.table.lmax
        out = np.zeros((ells.size, len(ms)), dtype=complex)
        stored = np.flatnonzero(ls <= lmax)
        out[stored] = self.table.values[ls[stored].astype(int)[:, None], np.array(ms) + lmax]
        return out

    # perfbench/tracer.py wraps eval from this class's own __dict__
    eval = CoefficientProvider.eval


# ---------------------------------------------------------------------------
# synthesize: the inversion series


def synthesize(provider: CoefficientProvider, grid: SphereGrid, lmax: int) -> GridFunction:
    """Partial inversion sum of a coefficient provider on a grid.

    The provider is evaluated in one eval_rays call, on the integer ray
    l = k..lmax (origin k, step 1), where k is the smallest |m| among its
    K-types with |m| <= lmax. The series needs phi(-l-1, m), which is
    b_m(-l-1/2) phi(l, m); every b_m comes from one intertwiner_ladder
    call at the real t = -l-1/2. For each K-type m the terms with
    l >= |m|, weighted by b_m and 2l + 1, are contracted with the
    closed-form kernel modes G_m(l; theta) into one radial profile (terms
    with |m| > l vanish identically, and their values are masked before
    they reach the sum). Row l - k of the ray holds degree l, with i^|m|
    folded in (an exact multiply); one sweep of sphere.kernel_mode_sweep
    over the orders then takes lmax - k + 1 Python-level steps, one per
    degree, and the modes of every _SWEEP_BLOCK degrees are added into
    the profiles by one batched product. An inverse azimuthal FFT
    assembles the grid. The work is O(lmax^2 n_theta) per K-type plus the
    provider evaluations, and results are bit-reproducible for a fixed
    numpy build and BLAS thread count.

    A provider raises its own errors, and they propagate. A provider's
    own limits stay its own: an ExtendProvider raises
    GridResolutionError where its boundary rule would alias, a
    TableProvider reads 0 past its lmax.
    """
    require_resolution(grid, 0)
    ms = sorted(provider.ktypes)
    for m in ms:
        if 2 * abs(m) >= grid.n_phi:
            raise GridResolutionError(
                f"azimuthal grid {grid.n_phi} cannot represent K-type m={m}")
    # column m % n_phi: the radial profile of the e^{i m phi} component
    spectrum = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    orders = sorted({abs(m) for m in ms if abs(m) <= lmax})
    if orders:
        ks = np.array(orders)
        ls = np.arange(orders[0], lmax + 1)
        values = provider.eval_rays(float(ls[0]), 1.0, ls.size)
        # terms[i, :, l - ls[0]] = phi(l) for the K-types +k and -k, k =
        # orders[i]; an absent K-type reads the zero column appended here
        values = np.pad(values, ((0, 0), (0, 1))).T
        index = {m: c for c, m in enumerate(ms)}
        terms = values[[[index.get(k, -1), index.get(-k, -1) if k else -1] for k in orders]]
        # times b_k(-l-1/2) and 2l + 1, then i^k; the terms with l < k
        # vanish: masked, they never reach the sum
        terms *= intertwiner_ladder(ks[-1], -ls - 0.5).T[ks][:, None]
        terms *= 2 * ls + 1
        terms = np.where(ls >= ks[:, None, None], terms, 0.0) * _I_POWERS[ks % 4][:, None, None]
        # coefficients[i] = re, im of the K-type +k, then -k, per degree
        coefficients = np.empty((ks.size, 4, ls.size))
        coefficients[:, 0::2], coefficients[:, 1::2] = terms.real, terms.imag
        profiles = np.zeros((ks.size, 4, grid.n_theta))
        block = np.zeros((ks.size, _SWEEP_BLOCK, grid.n_theta))
        for l, g in kernel_mode_sweep(orders, lmax, grid.theta):
            s, n = l - orders[0], len(g)
            b = s % _SWEEP_BLOCK
            # rows of orders yet to join hold zero modes, against zero terms
            block[:n, b] = g
            if b == _SWEEP_BLOCK - 1 or l == lmax:
                profiles[:n] += coefficients[:n, :, s - b:s + 1] @ block[:n, :b + 1]
        profiles = profiles[:, 0::2] + 1j * profiles[:, 1::2]
        live = np.array([m for m in ms if abs(m) <= lmax])
        negative = (live < 0).astype(int)
        spectrum[:, live % grid.n_phi] = profiles[np.searchsorted(ks, abs(live)), negative].T
    return GridFunction(grid, np.fft.ifft(spectrum, axis=1) * grid.n_phi)
