"""Cross-point residual covariance of the effect estimates along the grid.

Each side contributes the empirical covariance of per-observation influence
values of its intercept estimate, and the surface over the whole grid is
assembled from them in one pass.  This equals the two-sided sum of sandwich
forms (nh^2)^{-1} e1' Psi(x1)^{-1} Upsilon(x1, x2) Psi(x2)^{-1} e1; the
sandwich form is kept in the test suite as the reference oracle.

Influence values vanish outside a fit's kernel support, so they are held
only on its support rows, and the surface works on the union U of the
grid's support rows, never on all n rows: each side is scattered into one
dense M x |U| block and reduced by one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, InvalidInputError, InvalidPairingError
from .geometry import EvalGrid
from .locpoly import PointFit, scaled_basis

# Eigenvalues of the correlation estimate are clipped from below at this floor.
EIG_FLOOR = 1e-10


def influence_values(fit: PointFit, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Influence values phi_i of the side intercept estimate, on its support.

    Returns ``(rows, phi)``: the side's positively weighted sample rows and
    phi_i = e1' Psi^{-1} r_p(D_i/h) K_h(D_i) e_i there (phi_i is zero on every
    other row).  The side covariance between two points is
    n^{-2} sum_i phi_i(x1) phi_i(x2), which matches the sandwich form exactly
    (the h^2 factors cancel).
    """
    sf = fit.side(side)
    B = scaled_basis(sf.distances / fit.h, fit.p)
    return sf.rows, (B @ sf.gram.inv_e1()) * sf.weights * sf.residuals


@dataclass(frozen=True)
class CovarianceSurface:
    """Grid-by-grid covariance matrix and its regularized correlation.

    ``factor`` satisfies corr = factor @ factor.T and is reused as the
    square-root in the Gaussian band simulation.  ``grid`` is the evaluation
    grid the fits came from when the caller supplied one (its polyline feeds
    the boundary-length warnings; the fits may cover only some of its
    points), otherwise None.  ``regularization_applied`` says whether any
    eigenvalue of the correlation fell below EIG_FLOOR and was clipped.
    """

    grid: EvalGrid | None
    xi: np.ndarray
    corr: np.ndarray
    factor: np.ndarray
    regularization_applied: bool

    @property
    def se(self) -> np.ndarray:
        """Standard errors of the effect estimates, sqrt(diag(xi))."""
        return np.sqrt(np.diag(self.xi))


def regularize_correlation(corr: np.ndarray):
    """Clip eigenvalues at EIG_FLOOR and renormalize the diagonal to one.

    Returns (corr, factor, applied): the regularized matrix, a square-root
    factor from the same eigendecomposition, and whether clipping changed
    anything.
    """
    corr = 0.5 * (corr + corr.T)
    eigval, eigvec = np.linalg.eigh(corr)
    applied = bool(np.any(eigval < EIG_FLOOR))
    clipped = np.maximum(eigval, EIG_FLOOR)
    root = eigvec * np.sqrt(clipped)[None, :]
    reg = root @ root.T
    d = 1.0 / np.sqrt(np.diag(reg))
    reg = reg * d[:, None] * d[None, :]
    np.fill_diagonal(reg, 1.0)
    factor = root * d[:, None]
    return reg, factor, applied


def build_surface(fits: list, *, grid: EvalGrid | None = None) -> CovarianceSurface:
    """Assemble the covariance surface over all grid fits.

    All fits must have succeeded on the same sample; its size n is read from
    the fits.  Per-point bandwidths are allowed.
    """
    if not fits:
        raise InvalidInputError("no fits supplied")
    if any(not isinstance(f, PointFit) for f in fits):
        raise InvalidInputError("build_surface requires successful fits only")
    n = fits[0].n
    if any(f.n != n for f in fits):
        raise InvalidPairingError("point fits built from different sample sizes")
    M = len(fits)
    xi = np.zeros((M, M))
    for side in (0, 1):
        pieces = [influence_values(f, side) for f in fits]
        in_union = np.zeros(n, dtype=bool)
        for rows, _ in pieces:
            in_union[rows] = True
        union = np.flatnonzero(in_union)
        phi = np.zeros((M, union.size))
        for k, (rows, values) in enumerate(pieces):
            phi[k, np.searchsorted(union, rows)] = values
        xi += phi @ phi.T / (n * n)
    xi = 0.5 * (xi + xi.T)
    diag = np.diag(xi)
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise DegenerateVarianceError(
            f"variance at grid point {bad} is {diag[bad]:.3e}; "
            "needs a nonzero residual with positive weight"
        )
    corr = xi / np.sqrt(diag[:, None] * diag[None, :])
    corr, factor, applied = regularize_correlation(corr)
    return CovarianceSurface(grid, xi, corr, factor, applied)
