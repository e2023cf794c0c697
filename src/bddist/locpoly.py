"""One-sided kernel-weighted local polynomial fits at a boundary point.

Each side t in {0, 1} of the signed distance score is fit separately by
weighted least squares in the bandwidth-scaled basis (1, D/h, ..., (D/h)^p);
the treatment effect estimate at the evaluation point is the difference of
the two fitted intercepts.  Sample averages in the normal equations run over
the full sample size n (not side-specific counts) so that the downstream
variance formulas apply verbatim, but a fit holds arrays only for the rows
inside its kernel support: nothing of length n outlives ``fit_point``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BddistError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidInputError,
    SingularGramError,
)
from .geometry import as_point
from .kernels import DistanceColumn, build_distance_column, kh_weight

MIN_GRAM_EIGENVALUE = 1e-10


def scaled_basis(u, p: int) -> np.ndarray:
    """Polynomial basis rows (1, u, ..., u^p) for each entry of u.

    Column j is column j - 1 times u: the products of ``np.vander``, bit
    for bit, without its slower accumulate.
    """
    if p < 0:
        raise InvalidInputError(f"polynomial order must be >= 0, got {p}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    B = np.empty((len(u), p + 1))
    B[:, 0] = 1.0
    for j in range(1, p + 1):
        B[:, j] = B[:, j - 1] * u
    return B


@dataclass(frozen=True)
class GramMatrix:
    """Kernel-weighted second-moment matrix of the scaled basis on one side.

    Carries its symmetric eigendecomposition so solves and inverses reuse a
    single factorization, and the minimum eigenvalue used by the
    well-posedness check.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.eigenvectors @ ((self.eigenvectors.T @ rhs) / self.eigenvalues)

    def inv_e1(self) -> np.ndarray:
        """First column of the inverse (the sandwich filter vector)."""
        return self.eigenvectors @ (self.eigenvectors[0, :] / self.eigenvalues)


def _gram_from_design(B: np.ndarray, Bw: np.ndarray, n: int) -> GramMatrix:
    """Gram of design B from its weighted copy Bw = B * w[:, None]."""
    M = Bw.T @ B / n
    M = 0.5 * (M + M.T)
    eigenvalues, eigenvectors = np.linalg.eigh(M)
    return GramMatrix(M, eigenvalues, eigenvectors)


@dataclass(frozen=True)
class SideFit:
    """One-sided weighted least squares fit in the scaled basis.

    ``gamma_hat`` holds coefficients of (1, D/h, ..., (D/h)^p); raw-basis
    coefficients are gamma_hat[j] / h^j.  ``rows`` are the ascending sample
    indices of the n_eff positively weighted observations on the side;
    their signed ``distances``, ``weights`` and ``residuals`` are aligned
    with them and kept for covariance estimation.
    """

    side: int
    gamma_hat: np.ndarray
    n_eff: int
    gram: GramMatrix
    rows: np.ndarray
    distances: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray

    @property
    def intercept(self) -> float:
        return float(self.gamma_hat[0])


def fit_side(y, column: DistanceColumn, side: int, kernel: str, h: float, p: int) -> SideFit:
    """Fit one side by kernel-weighted least squares.

    Raises
    ------
    InsufficientDataError
        Fewer than p + 1 observations carry positive weight on this side.
    SingularGramError
        The weighted second-moment matrix has an eigenvalue below 1e-10.
    """
    y = np.asarray(y, dtype=float)
    n = len(column)
    if y.shape != (n,):
        raise InvalidInputError("y must match the distance column's sample in length")
    idx = np.flatnonzero(column.side_mask(side))
    w = kh_weight(kernel, column.values[idx], h)
    keep = w > 0.0
    idx, w = idx[keep], w[keep]
    if idx.size < p + 1:
        raise InsufficientDataError(side, int(idx.size), p + 1)
    d = column.values[idx]
    B = scaled_basis(d / h, p)
    Bw = B * w[:, None]
    g = _gram_from_design(B, Bw, n)
    if g.min_eigenvalue < MIN_GRAM_EIGENVALUE:
        raise SingularGramError(side, g.min_eigenvalue)
    rows = column.rows[idx]
    y = y[rows]
    s = Bw.T @ y / n
    gamma = g.solve(s)
    residuals = y - B @ gamma
    for arr in (rows, d, w, residuals):
        arr.setflags(write=False)
    return SideFit(side, gamma, int(idx.size), g, rows, d, w, residuals)


@dataclass(frozen=True)
class PointFit:
    """Both one-sided fits at one evaluation point plus the effect estimate.

    ``n`` is the size of the sample the fits came from; the side fits hold
    their support rows.  Standard errors belong to the covariance surface
    built over the fits.
    """

    eval_pt: np.ndarray
    h: float
    p: int
    kernel: str
    n: int
    fit0: SideFit
    fit1: SideFit

    @property
    def theta_hat(self) -> float:
        return self.fit1.intercept - self.fit0.intercept

    def side(self, t: int) -> SideFit:
        return self.fit1 if t == 1 else self.fit0


def fit_point(sample, eval_pt, kernel: str, h: float, p: int,
              column: DistanceColumn | None = None) -> PointFit:
    """Fit both sides at one boundary point and form the effect estimate.

    A precomputed ``column`` for the same point is used as is; otherwise
    the column keeps only the rows within h of the point.
    """
    if not np.isfinite(h) or h <= 0.0:
        raise InvalidBandwidthError(f"bandwidth must be positive, got {h}")
    if column is None:
        column = build_distance_column(sample, eval_pt, h)
    elif not np.array_equal(column.eval_pt, as_point(eval_pt)):
        raise InvalidInputError("precomputed column belongs to a different point")
    fit0 = fit_side(sample.y, column, 0, kernel, h, p)
    fit1 = fit_side(sample.y, column, 1, kernel, h, p)
    return PointFit(as_point(eval_pt), float(h), int(p), kernel, len(column), fit0, fit1)


def fit_grid(sample, grid, kernel: str, bandwidths, p: int) -> list:
    """Fit every grid point; returns a list aligned with the grid.

    ``bandwidths`` is a scalar or one entry per point, such as the outcomes
    of ``resolve_bandwidths``.  Entries of the result are PointFit objects,
    or the raised error for points whose fit failed; an error entry in
    ``bandwidths`` is passed through as that point's result.
    """
    hs = np.broadcast_to(np.asarray(bandwidths, dtype=object), (grid.count,))

    def one(k):
        if isinstance(hs[k], BddistError):
            return hs[k]
        try:
            return fit_point(sample, grid.points[k], kernel, hs[k], p)
        except (InsufficientDataError, SingularGramError, InvalidBandwidthError) as err:
            return err

    return [one(k) for k in range(grid.count)]
