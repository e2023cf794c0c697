"""One-sided kernel-weighted local polynomial fits at boundary points.

Each side t in {0, 1} of the signed distance score is fit separately by
weighted least squares in the bandwidth-scaled basis (1, D/h, ..., (D/h)^p);
the treatment effect estimate at an evaluation point is the difference of
the two fitted intercepts.  Sample averages in the normal equations run over
the full sample size n (not side-specific counts) so that the downstream
variance formulas apply verbatim.

``fit_grid`` fits every grid point in one pass.  One scan per point finds
the rows within its bandwidth; the signed distances, kernel weights and
basis of all kept rows are then formed together, elementwise, and grouped
by point and side.  Each (point, side) group takes its own Gram and score
products, solve and residuals on its rows alone, so every fit equals a fit
of that point by itself, bit for bit.  A fit holds arrays only for its
support rows: nothing of length n outlives the pass.  ``fit_point`` is the
one-point case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BddistError,
    InsufficientDataError,
    InvalidInputError,
    SingularGramError,
)
from .geometry import ROW_BLOCK, as_point, row_blocks, signed_distances
from .kernels import bandwidth_error, kernel_eval

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
    well-posedness check.  ``solve`` also takes a stack of Grams, (..., q, q)
    with eigenvalues (..., q), and right-hand sides stacked as (..., q, r).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        V, lam = self.eigenvectors, self.eigenvalues
        z = np.swapaxes(V, -1, -2) @ rhs
        return V @ (z / (lam if z.ndim == lam.ndim else lam[..., None]))

    def inv_e1(self) -> np.ndarray:
        """First column of the inverse (the sandwich filter vector)."""
        return self.eigenvectors @ (self.eigenvectors[0, :] / self.eigenvalues)


@dataclass(frozen=True)
class SideFit:
    """One-sided weighted least squares fit in the scaled basis.

    ``gamma_hat`` holds coefficients of (1, D/h, ..., (D/h)^p); raw-basis
    coefficients are gamma_hat[j] / h^j.  ``rows`` are the ascending sample
    indices of the n_eff positively weighted observations on the side;
    their signed ``distances``, ``weights``, ``residuals`` and
    ``influence`` values phi_i = e1' Psi^{-1} r_p(D_i/h) K_h(D_i) e_i of the
    intercept are aligned with them and kept for covariance estimation.
    """

    side: int
    gamma_hat: np.ndarray
    n_eff: int
    gram: GramMatrix
    rows: np.ndarray
    distances: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    influence: np.ndarray

    @property
    def intercept(self) -> float:
        return float(self.gamma_hat[0])


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


def side_failure(counts, min_eigenvalues, q: int) -> BddistError | None:
    """The error an order-q fit raises first, or None, given each side's
    count of positively weighted rows and smallest Gram eigenvalue.  Side 0
    is checked before side 1, and on a side the count before the Gram."""
    for side in (0, 1):
        if counts[side] < q + 1:
            return InsufficientDataError(side, int(counts[side]), q + 1)
        if min_eigenvalues[side] < MIN_GRAM_EIGENVALUE:
            return SingularGramError(side, float(min_eigenvalues[side]))
    return None


def _support_rows(x, points, radii):
    """Rows of ``x`` within each radius of its point: one scan per point.

    Each scan keeps every row whose squared distance is within
    radius (1 + 1e-9), a margin that absorbs the rounding of the squares, so
    no row inside the kernel support of a bandwidth h = radius is lost.  It
    walks the rows in the blocks of ``row_blocks`` through two reused block
    buffers; each row's arithmetic is the same in any block, so the kept
    rows do not depend on the blocking.

    Returns ``(point, rows)``: for each point in turn, its kept rows in
    ascending order, and the point's index alongside each row.
    """
    n = len(x)
    keep = np.empty(n, dtype=bool)
    dx = np.empty(min(n, ROW_BLOCK + 1))
    dy = np.empty_like(dx)
    blocks = row_blocks(n)
    found = []
    for pt, radius in zip(points, radii):
        r2 = (radius * (1.0 + 1e-9)) ** 2
        for block in blocks:
            m = block.stop - block.start
            bx, by = dx[:m], dy[:m]
            np.subtract(x[block, 0], pt[0], out=bx)
            np.subtract(x[block, 1], pt[1], out=by)
            np.multiply(bx, bx, out=bx)
            np.multiply(by, by, out=by)
            np.add(bx, by, out=bx)
            np.less_equal(bx, r2, out=keep[block])
        found.append(np.flatnonzero(keep))
    point = np.repeat(np.arange(len(found)), [r.size for r in found])
    return point, np.concatenate(found)


def _support_segments(sample, pts, hs, kernel: str):
    """``(counts, rows, d, w, u)``: the positively weighted rows of segment
    t m + j (side t of point j) ascending, with their signed distances, kernel
    weights and D/h.  The arrays for all kept rows formed on the way die with
    this call, before the fits."""
    point, rows = _support_rows(sample.x, pts, hs)
    treated = sample.treated[rows]
    d = signed_distances(sample.x[rows], pts[point], treated)
    u = d / hs[point]
    w = kernel_eval(kernel, u) / (hs * hs)[point]
    pos = w > 0.0
    by_side = [np.flatnonzero(pos & ~treated), np.flatnonzero(pos & treated)]
    order = np.concatenate(by_side)
    counts = np.concatenate([np.bincount(point[i], minlength=len(pts)) for i in by_side])
    del point, treated, pos, by_side  # before the sorted copies are made
    return counts, rows[order], d[order], w[order], u[order]


def _fit_points(sample, points, kernel: str, hs, p: int) -> list:
    """Fits at ``points`` with bandwidths ``hs``, one entry per point.

    An entry is a PointFit, the error its fit raised, or the BddistError
    given in ``hs`` for that point.  The checks run in the order a fit of
    the point alone makes them: ``bandwidth_error``, then ``side_failure``.
    """
    out = [h if isinstance(h, BddistError) else bandwidth_error(h) for h in hs]
    todo = [k for k, err in enumerate(out) if err is None]
    if not todo:
        return out
    n, m = len(sample), len(todo)
    counts, rows, d, w, u = _support_segments(
        sample, points[todo], np.array([hs[k] for k in todo], dtype=float), kernel)
    B = scaled_basis(u, p)
    segs = [slice(end - c, end) for c, end in zip(counts, np.cumsum(counts))]
    y = sample.y[rows]

    # Every product runs on one segment's rows alone: BLAS sums depend on
    # the operands' shapes, so a batched product would change the last bits.
    # The weighted design is formed per segment too, never for all rows.
    grams = np.zeros((2 * m, p + 1, p + 1))
    for s in np.flatnonzero(counts >= p + 1):
        Bs = B[segs[s]]
        grams[s] = (Bs * w[segs[s], None]).T @ Bs
    grams /= n
    grams = 0.5 * (grams + grams.transpose(0, 2, 1))
    eigenvalues, eigenvectors = np.linalg.eigh(grams)

    residuals = np.empty_like(y)
    influence = np.empty_like(y)
    for arr in (rows, d, w):
        arr.setflags(write=False)
    for j, k in enumerate(todo):
        out[k] = side_failure(counts[j::m], eigenvalues[j::m, 0], p)
        if out[k] is not None:
            continue
        sides = []
        for t, s in enumerate((j, m + j)):
            seg = segs[s]
            g = GramMatrix(grams[s], eigenvalues[s], eigenvectors[s])
            gamma = g.solve((B[seg] * w[seg, None]).T @ y[seg] / n)
            r, phi = residuals[seg], influence[seg]
            np.subtract(y[seg], B[seg] @ gamma, out=r)
            np.multiply(B[seg] @ g.inv_e1(), w[seg], out=phi)
            phi *= r
            r.setflags(write=False)
            phi.setflags(write=False)
            sides.append(SideFit(t, gamma, int(counts[s]), g,
                                 rows[seg], d[seg], w[seg], r, phi))
        out[k] = PointFit(points[k], float(hs[k]), int(p), kernel, n, *sides)
    return out


def fit_point(sample, eval_pt, kernel: str, h: float, p: int) -> PointFit:
    """Fit both sides at one boundary point and form the effect estimate.

    The one-point case of ``fit_grid``: the fit keeps only the rows within
    h of the point.  Raises the error the fit fails with.
    """
    fit = _fit_points(sample, as_point(eval_pt)[None, :], kernel, [h], p)[0]
    if isinstance(fit, BddistError):
        raise fit
    return fit


def fit_grid(sample, grid, kernel: str, bandwidths, p: int) -> list:
    """Fit every grid point in one pass; returns a list aligned with the grid.

    ``bandwidths`` is a scalar or one entry per point, such as the outcomes
    of ``resolve_bandwidths``.  Entries of the result are PointFit objects,
    or the error a point's fit raised (too few rows or a singular Gram on a
    side, or a bandwidth that is not positive); an error entry in
    ``bandwidths`` is passed through as that point's result.  Each entry
    equals ``fit_point`` at that point bit for bit.
    """
    hs = np.broadcast_to(np.asarray(bandwidths, dtype=object), (grid.count,))
    return _fit_points(sample, grid.points, kernel, hs, p)
