"""Column-based one-sided fits: the tests' reference oracle.

``fit_side`` fits one side of one point on its own, from a distance column
over every sample row, with fresh arrays and one product at a time.
``bddist.locpoly`` fits each grid point from the rows its scan keeps;
``fit_grid`` and ``fit_point`` must equal these fits bit for bit.  A fit
keeps only its rows and influence values; ``support_arrays`` recomputes a
side's distances, weights and residuals from the sample.

A ``DistanceColumn`` holds the signed distances of sample rows to one
evaluation point, with their side mask; ``build_distance_column`` builds
the column over every row.  The fit-based pilot oracle reads it too.
"""

from dataclasses import dataclass

import numpy as np

from bddist.errors import (
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidInputError,
    SingularGramError,
)
from bddist.geometry import as_point, signed_distances
from bddist.kernels import kh_weight
from bddist.locpoly import MIN_GRAM_EIGENVALUE, GramMatrix, PointFit, SideFit, scaled_basis


@dataclass(frozen=True)
class DistanceColumn:
    """Signed distances from the n sample rows to one evaluation point,
    stored for the rows it keeps.

    ``rows`` holds the ascending sample indices the column keeps (every row
    of a column built from explicit values), ``values`` their signed
    distances and ``treated`` their side mask, taken from the sample's rule
    mask: True maps to D >= 0, False to D <= 0 (a control row at the point
    itself scores -0.0).  The column's length is n, the size of the whole
    sample and the denominator of every sample average.
    """

    eval_pt: np.ndarray
    values: np.ndarray
    treated: np.ndarray
    rows: np.ndarray = None
    n: int = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.treated, dtype=bool)
        pt = as_point(self.eval_pt)
        if vals.shape != mask.shape or vals.ndim != 1:
            raise InvalidInputError("values and treated must be equal-length 1-d arrays")
        if ((vals < 0.0) & mask).any() or ((vals > 0.0) & ~mask).any():
            raise InvalidInputError("side mask inconsistent with sign of distances")
        rows = np.arange(len(vals)) if self.rows is None else np.asarray(self.rows)
        n = len(vals) if self.n is None else int(self.n)
        if (rows.shape != vals.shape or (np.diff(rows) <= 0).any()
                or ((rows < 0) | (rows >= n)).any()):
            raise InvalidInputError(f"rows must be ascending indices into {n} sample rows, "
                                    "one per value")
        for arr in (vals, mask, pt, rows):
            arr.setflags(write=False)
        object.__setattr__(self, "eval_pt", pt)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "treated", mask)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return self.n

    def side_mask(self, side: int) -> np.ndarray:
        """Boolean mask of kept rows on side 0 (control) or 1 (treated)."""
        if side not in (0, 1):
            raise InvalidInputError(f"side must be 0 or 1, got {side}")
        return self.treated if side == 1 else ~self.treated


def build_distance_column(sample, eval_pt) -> DistanceColumn:
    """Signed distance column of every sample row at one point.

    ``sample.x`` and ``sample.treated`` are read as they are, with no
    gather; the side of each row comes from ``sample.treated``.
    """
    pt = as_point(eval_pt)
    return DistanceColumn(pt, signed_distances(sample.x, pt, sample.treated), sample.treated)


def gram_from_design(B: np.ndarray, Bw: np.ndarray, n: int) -> GramMatrix:
    """Gram of design B from its weighted copy Bw = B * w[:, None]."""
    M = Bw.T @ B / n
    M = 0.5 * (M + M.T)
    eigenvalues, eigenvectors = np.linalg.eigh(M)
    return GramMatrix(M, eigenvalues, eigenvectors)


def fit_side(y, column: DistanceColumn, side: int, kernel: str, h: float, p: int) -> SideFit:
    """Fit one side by kernel-weighted least squares.

    Raises InsufficientDataError when fewer than p + 1 observations carry
    positive weight on this side, and SingularGramError when h^2 times the
    weighted second-moment matrix (the Gram of the unit-free weights K(u))
    has an eigenvalue below MIN_GRAM_EIGENVALUE.
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
    unit_free = h * h * g.min_eigenvalue
    if unit_free < MIN_GRAM_EIGENVALUE:
        raise SingularGramError(side, unit_free)
    rows = column.rows[idx]
    y = y[rows]
    s = Bw.T @ y / n
    gamma = g.solve(s)
    residuals = y - B @ gamma
    phi = (B @ g.inv_e1()) * w * residuals
    for arr in (rows, phi):
        arr.setflags(write=False)
    return SideFit(side, gamma, int(idx.size), g, rows, phi)


def support_arrays(sample, fit: PointFit, side: int):
    """``(distances, weights, residuals)`` on the rows of one side of
    ``fit``, recomputed from the sample: the signed distances of the column
    over every row, the kernel weights K_h(D) and y minus the fitted
    values."""
    sf = fit.side(side)
    d = build_distance_column(sample, fit.eval_pt).values[sf.rows]
    w = kh_weight(fit.kernel, d, fit.h)
    residuals = sample.y[sf.rows] - scaled_basis(d / fit.h, fit.p) @ sf.gamma_hat
    return d, w, residuals


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
