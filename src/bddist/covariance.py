"""Cross-point residual covariance of the effect estimates along the grid.

Each side contributes the empirical covariance of per-observation influence
values phi_i of its intercept estimate (``SideFit.influence``), n^{-2} sum_i
phi_i(x1) phi_i(x2) between two points, and the surface over the whole grid
is assembled from them in one pass.  This equals the two-sided sum of sandwich
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
from .locpoly import PointFit

# Eigenvalues of the correlation estimate are clipped from below at this floor.
EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class CovarianceSurface:
    """Grid-by-grid covariance matrix and its regularized correlation.

    ``factor`` satisfies corr = factor @ factor.T and is reused as the
    square-root in the Gaussian band simulation.  ``regularization_applied``
    says whether any eigenvalue of the correlation fell below EIG_FLOOR and
    was clipped.
    """

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


def build_surface(fits: list) -> CovarianceSurface:
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
        sides = [f.side(side) for f in fits]
        rows = np.concatenate([sf.rows for sf in sides])
        point = np.repeat(np.arange(M), [sf.rows.size for sf in sides])
        in_union = np.zeros(n, dtype=bool)
        in_union[rows] = True
        union = np.flatnonzero(in_union)
        phi = np.zeros((M, union.size))
        phi[point, np.searchsorted(union, rows)] = np.concatenate([sf.influence for sf in sides])
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
    return CovarianceSurface(xi, corr, factor, applied)
