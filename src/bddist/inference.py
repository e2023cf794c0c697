"""The estimation pipeline, pointwise intervals and simulated uniform bands.

The pipeline, ``estimate``: ``resolve_bandwidths``, then ``fit_grid``, then
``build_surface`` and ``uniform_band`` over the points that fit.

Pointwise intervals use the normal quantile.  It comes from a port of
Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, 1989), the algorithm ``scipy.special.ndtri`` computes, with
the same coefficients, branches and Horner order: the same bits, without
importing scipy.

Uniform bands share one critical value: the empirical (1 - alpha) quantile
of the maximum absolute coordinate of mean-zero Gaussian draws whose
correlation is the regularized estimate from the covariance surface.
Draws come from a counter-based generator so results are reproducible
regardless of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandwidth import resolve_bandwidths
from .covariance import CovarianceSurface, build_surface
from .errors import InvalidInputError, InvalidLevelError
from .geometry import EvalGrid
from .kernels import DEFAULT_KERNEL
from .locpoly import PointFit, fit_grid

DEFAULT_NUM_DRAWS = 10000
DEFAULT_ALPHA = 0.05

# Bytes per band draw buffer: the two (DRAW_BUFFER_BYTES // (8 M), M)
# buffers, 1 170 rows each at M = 21, stay in a core's L2 cache.
DRAW_BUFFER_BYTES = 192 * 1024

# Warn when the boundary arc inside a kernel support is this many times h:
# the band's strong approximation needs that arc to stay of order h.
PERIMETER_MULTIPLE = 20.0


# Cephes ndtri.c constants, digit for digit: sqrt(2 pi), exp(-2), and the
# rational approximations' coefficients, highest power first.  Cephes omits
# the leading 1 of each Q and adds x in p1evl; 1.0 * x + c is that sum exactly.
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189

_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Phi^{-1}(y0), the Cephes ``ndtri`` algorithm step for step.

    A rational approximation in y - 1/2 on exp(-2) < y < 1 - exp(-2);
    beyond it, x = sqrt(-2 log y) of the nearer tail and a correction
    rational in 1/x, one set of coefficients for x < 8 and one past it.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


class BoundaryLengthWarning(UserWarning):
    """Local boundary arc length is large relative to the bandwidth."""


def normal_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value, Phi^{-1}(1 - alpha/2)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidLevelError(f"alpha must be in (0, 1), got {alpha}")
    return _ndtri(1.0 - alpha / 2.0)


def _limits(fits: list, q: float, se: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only theta_hat - q * se and theta_hat + q * se over ``fits``."""
    theta, width = np.array([fit.theta_hat for fit in fits]), q * se
    lower, upper = theta - width, theta + width
    lower.flags.writeable = upper.flags.writeable = False
    return lower, upper


def pointwise_ci(fits: list, se, alpha: float = DEFAULT_ALPHA) -> tuple[np.ndarray, np.ndarray]:
    """Normal-quantile confidence intervals theta_hat -+ normal_quantile(alpha) * se:
    read-only ``(lower, upper)`` arrays over ``fits``, in their order.

    ``se`` holds one standard error per fit, e.g. ``surface.se``.
    """
    se = np.asarray(se, dtype=float)
    if se.shape != (len(fits),):
        raise InvalidInputError(f"need one standard error per fit ({len(fits)}), "
                                f"got shape {se.shape}")
    bad = se[~((se > 0.0) & (se < math.inf))]  # NaN fails both comparisons
    if bad.size:
        raise InvalidInputError(f"standard error must be positive and finite, got {bad[0]}")
    return _limits(fits, normal_quantile(alpha), se)


def _draw_maxima(factor: np.ndarray, num_draws: int, seed: int) -> np.ndarray:
    """max_j |(factor z_i)_j| for num_draws standard normal vectors z_i.

    The normals come from one Philox stream in order, and every block's
    product is taken at the same (block, M) shape, so each row's arithmetic
    is that of one (num_draws, M) draw mapped in one product.
    """
    M = factor.shape[0]
    rng = np.random.Generator(np.random.Philox(seed))
    maxima = np.empty(num_draws)
    block = min(num_draws, max(1, DRAW_BUFFER_BYTES // (8 * M)))
    z = np.empty((block, M))
    mapped = np.empty((block, M))
    for start in range(0, num_draws, block):
        rows = min(block, num_draws - start)
        rng.standard_normal(out=z[:rows])
        # A short last block leaves the previous block's draws in z[rows:]:
        # the full-shape product keeps each row's arithmetic that of the others.
        np.matmul(z, factor.T, out=mapped)
        head = mapped[:rows]
        np.abs(head, out=head)
        head.max(axis=1, out=maxima[start:start + rows])
    return maxima


def uniform_quantile(corr: np.ndarray, alpha: float, num_draws: int = DEFAULT_NUM_DRAWS,
                     seed: int = 0, factor: np.ndarray | None = None) -> float:
    """Critical value for simultaneous coverage over the grid.

    Simulates ``num_draws`` mean-zero Gaussian vectors with the given unit-
    diagonal correlation and returns the ceil((1 - alpha) num_draws)-th order
    statistic of the per-draw maximum absolute coordinate.  The square-root
    ``factor`` from the regularization eigendecomposition is reused when
    supplied (it must be M x M); otherwise the matrix must already be
    positive semidefinite.

    The vectors are drawn, mapped through the factor and reduced to their
    maxima in blocks of DRAW_BUFFER_BYTES // (8 M) rows, through two reused
    (block, M) buffers.  The result does not depend on the blocking: it
    equals that of one (num_draws, M) draw mapped in one product.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidLevelError(f"alpha must be in (0, 1), got {alpha}")
    if num_draws < 1000:
        raise InvalidInputError(f"num_draws must be >= 1000, got {num_draws}")
    corr = np.asarray(corr, dtype=float)
    M = corr.shape[0]
    if corr.shape != (M, M):
        raise InvalidInputError("correlation matrix must be square")
    if not np.isfinite(corr).all():
        raise InvalidInputError("correlation matrix must be finite")
    if np.max(np.abs(np.diag(corr) - 1.0)) > 1e-8:
        raise InvalidInputError("correlation matrix must have unit diagonal")
    if factor is None:
        eigval, eigvec = np.linalg.eigh(0.5 * (corr + corr.T))
        if eigval[0] < -1e-10:
            raise InvalidInputError(
                f"correlation matrix is not PSD (min eigenvalue {eigval[0]:.3e}); "
                "regularize it first"
            )
        factor = eigvec * np.sqrt(np.maximum(eigval, 0.0))[None, :]
    factor = np.asarray(factor, dtype=float)
    if factor.shape != (M, M):
        raise InvalidInputError(f"factor must be {M} x {M} like the correlation matrix, "
                                f"got shape {factor.shape}")
    if not np.isfinite(factor).all():
        raise InvalidInputError("factor must be finite")
    maxima = _draw_maxima(factor, num_draws, seed)
    maxima.sort()
    k = math.ceil((1.0 - alpha) * num_draws)
    return float(maxima[k - 1])


@dataclass(frozen=True)
class BandResult:
    """Uniform confidence band theta_hat +- quantile * se: one critical value
    and the read-only ``lower`` and ``upper`` limits of the fitted points, in
    the order of the fits it was built from."""

    lower: np.ndarray
    upper: np.ndarray
    quantile: float
    alpha: float
    num_draws: int
    seed: int


def uniform_band(fits: list, surface: CovarianceSurface, alpha: float = DEFAULT_ALPHA,
                 num_draws: int = DEFAULT_NUM_DRAWS, seed: int = 0) -> BandResult:
    """Simultaneous confidence band over all grid fits, from ``surface.se``."""
    if len(fits) != surface.corr.shape[0]:
        raise InvalidInputError("fits and surface have mismatched grid sizes")
    q = uniform_quantile(surface.corr, alpha, num_draws, seed, factor=surface.factor)
    return BandResult(*_limits(fits, q, surface.se), q, alpha, num_draws, seed)


@dataclass(frozen=True)
class Estimate:
    """Per grid point, a PointFit or the BddistError its bandwidth or fit
    raised.  ``surface`` and ``band`` cover the ``fitted`` points and are built
    on first read, so an estimate whose points all failed builds neither."""

    points: tuple
    alpha: float
    num_draws: int
    seed: object

    @property
    def fitted(self) -> list[int]:
        return [k for k, f in enumerate(self.points) if isinstance(f, PointFit)]

    @property
    def fits(self) -> list:
        return [self.points[k] for k in self.fitted]

    @cached_property
    def surface(self) -> CovarianceSurface:
        return build_surface(self.fits)

    @cached_property
    def band(self) -> BandResult:
        return uniform_band(self.fits, self.surface, self.alpha, self.num_draws, self.seed)


def estimate(sample, grid: EvalGrid, rule, kernel: str = DEFAULT_KERNEL, p: int = 1,
             alpha: float = DEFAULT_ALPHA, num_draws: int = DEFAULT_NUM_DRAWS,
             seed=0) -> Estimate:
    """Effect estimates along ``grid``, under the bandwidth ``rule`` resolved on
    ``grid.polyline``.  A failure of the whole rule raises; a point's failure
    is kept as its entry.  ``seed`` (an int or SeedSequence) drives the band.
    Emits BoundaryLengthWarning, located at the caller, for each fitted point
    whose boundary arc inside the kernel support exceeds PERIMETER_MULTIPLE h."""
    hs = resolve_bandwidths(rule, sample, grid, kernel, p)
    est = Estimate(tuple(fit_grid(sample, grid, kernel, hs, p)), alpha, num_draws, seed)
    fits = est.fits
    if fits:  # arclengths_within rejects an empty array of centers
        arcs = grid.polyline.arclengths_within([fit.eval_pt for fit in fits],
                                               [fit.h for fit in fits])
        for fit, arc in zip(fits, arcs):
            if arc > PERIMETER_MULTIPLE * fit.h:
                warnings.warn(f"boundary arc length {arc:.3g} inside the kernel support at "
                              f"{tuple(fit.eval_pt.tolist())} exceeds {PERIMETER_MULTIPLE:g} x h",
                              BoundaryLengthWarning, stacklevel=2)
    return est
