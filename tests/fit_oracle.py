"""Column-based one-sided fits: the tests' reference oracle.

``fit_side`` fits one side of one point on its own, from a distance column
over every sample row, with fresh arrays and one product at a time.
``bddist.locpoly`` fits every grid point in one pass over the kept rows of
all points; ``fit_grid`` and ``fit_point`` must equal these fits bit for
bit.
"""

import numpy as np

from bddist.errors import (
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidInputError,
    SingularGramError,
)
from bddist.geometry import as_point
from bddist.kernels import DistanceColumn, build_distance_column, kh_weight
from bddist.locpoly import MIN_GRAM_EIGENVALUE, GramMatrix, PointFit, SideFit, scaled_basis


def gram_from_design(B: np.ndarray, Bw: np.ndarray, n: int) -> GramMatrix:
    """Gram of design B from its weighted copy Bw = B * w[:, None]."""
    M = Bw.T @ B / n
    M = 0.5 * (M + M.T)
    eigenvalues, eigenvectors = np.linalg.eigh(M)
    return GramMatrix(M, eigenvalues, eigenvectors)


def fit_side(y, column: DistanceColumn, side: int, kernel: str, h: float, p: int) -> SideFit:
    """Fit one side by kernel-weighted least squares.

    Raises InsufficientDataError when fewer than p + 1 observations carry
    positive weight on this side, and SingularGramError when the weighted
    second-moment matrix has an eigenvalue below MIN_GRAM_EIGENVALUE.
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
    g = gram_from_design(B, Bw, n)
    if g.min_eigenvalue < MIN_GRAM_EIGENVALUE:
        raise SingularGramError(side, g.min_eigenvalue)
    rows = column.rows[idx]
    y = y[rows]
    s = Bw.T @ y / n
    gamma = g.solve(s)
    residuals = y - B @ gamma
    phi = (B @ g.inv_e1()) * w * residuals
    for arr in (rows, d, w, residuals, phi):
        arr.setflags(write=False)
    return SideFit(side, gamma, int(idx.size), g, rows, d, w, residuals, phi)


def fit_point(sample, eval_pt, kernel: str, h: float, p: int,
              column: DistanceColumn | None = None) -> PointFit:
    """Both sides at one point, on ``column`` or on the point's column over
    every row; side 0 is fit, and checked, first."""
    if not np.isfinite(h) or h <= 0.0:
        raise InvalidBandwidthError(f"bandwidth must be positive, got {h}")
    if column is None:
        column = build_distance_column(sample, eval_pt)
    elif not np.array_equal(column.eval_pt, as_point(eval_pt)):
        raise InvalidInputError("precomputed column belongs to a different point")
    fit0 = fit_side(sample.y, column, 0, kernel, h, p)
    fit1 = fit_side(sample.y, column, 1, kernel, h, p)
    return PointFit(as_point(eval_pt), float(h), int(p), kernel, len(column), fit0, fit1)
