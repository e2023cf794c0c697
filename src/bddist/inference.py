"""Pointwise confidence intervals and simulated uniform confidence bands.

Pointwise intervals use the normal quantile.  Uniform bands share one
critical value: the empirical (1 - alpha) quantile of the maximum absolute
coordinate of mean-zero Gaussian draws whose correlation is the regularized
estimate from the covariance surface.  Draws come from a counter-based
generator so results are reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .covariance import CovarianceSurface
from .errors import InvalidInputError, InvalidLevelError
from .locpoly import PointFit

DEFAULT_NUM_DRAWS = 10000

# Bytes per band draw buffer: the two (DRAW_BUFFER_BYTES // (8 M), M)
# buffers, 1 170 rows each at M = 21, stay in a core's L2 cache.
DRAW_BUFFER_BYTES = 192 * 1024

# Warn when the boundary arc inside a kernel support is this many times h.
PERIMETER_MULTIPLE = 20.0


class BoundaryLengthWarning(UserWarning):
    """Local boundary arc length is large relative to the bandwidth."""


def normal_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value, Phi^{-1}(1 - alpha/2)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidLevelError(f"alpha must be in (0, 1), got {alpha}")
    return float(ndtri(1.0 - alpha / 2.0))


@dataclass(frozen=True)
class IntervalResult:
    """One confidence interval: theta_hat +- quantile * se."""

    eval_pt: np.ndarray
    theta_hat: float
    se: float
    alpha: float
    quantile: float
    lower: float
    upper: float


def _interval(fit: PointFit, se: float, alpha: float, q: float) -> IntervalResult:
    return IntervalResult(
        eval_pt=fit.eval_pt,
        theta_hat=fit.theta_hat,
        se=se,
        alpha=alpha,
        quantile=q,
        lower=fit.theta_hat - q * se,
        upper=fit.theta_hat + q * se,
    )


def pointwise_ci(fit: PointFit, se: float, alpha: float = 0.05) -> IntervalResult:
    """Normal-quantile confidence interval at one evaluation point.

    ``se`` is the point's standard error, e.g. ``surface.se[k]``.
    """
    se = float(se)
    if not 0.0 < se < math.inf:
        raise InvalidInputError(f"standard error must be positive and finite, got {se}")
    return _interval(fit, se, alpha, normal_quantile(alpha))


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
    maxima = _draw_maxima(factor, num_draws, seed)
    maxima.sort()
    k = math.ceil((1.0 - alpha) * num_draws)
    return float(maxima[k - 1])


@dataclass(frozen=True)
class BandResult:
    """Uniform confidence band: per-point intervals sharing one critical value.

    ``grid`` is the evaluation grid when the covariance surface carried one.
    """

    grid: object
    intervals: list
    quantile: float
    alpha: float
    num_draws: int
    seed: int

    @property
    def lower(self) -> np.ndarray:
        return np.array([iv.lower for iv in self.intervals])

    @property
    def upper(self) -> np.ndarray:
        return np.array([iv.upper for iv in self.intervals])


def uniform_band(fits: list, surface: CovarianceSurface, alpha: float = 0.05,
                 num_draws: int = DEFAULT_NUM_DRAWS, seed: int = 0) -> BandResult:
    """Simultaneous confidence band over all grid fits.

    When the surface carries the grid, emits BoundaryLengthWarning for
    evaluation points whose local boundary arc length inside the kernel
    support exceeds PERIMETER_MULTIPLE times the bandwidth (the band's
    validity degrades on very wiggly boundaries).
    """
    if len(fits) != surface.corr.shape[0]:
        raise InvalidInputError("fits and surface have mismatched grid sizes")
    if surface.grid is not None:
        arcs = surface.grid.polyline.arclengths_within([fit.eval_pt for fit in fits],
                                                       [fit.h for fit in fits])
        for fit, arc in zip(fits, arcs):
            if arc > PERIMETER_MULTIPLE * fit.h:
                warnings.warn(
                    f"boundary arc length {arc:.3g} inside the kernel support at "
                    f"{tuple(fit.eval_pt.tolist())} exceeds {PERIMETER_MULTIPLE:g} x h",
                    BoundaryLengthWarning,
                    stacklevel=2,
                )
    q = uniform_quantile(surface.corr, alpha, num_draws, seed, factor=surface.factor)
    intervals = [_interval(fit, float(se), alpha, q)
                 for fit, se in zip(fits, surface.se)]
    return BandResult(surface.grid, intervals, q, alpha, num_draws, seed)
