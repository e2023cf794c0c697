"""One-sided kernel-weighted local polynomial fits at boundary points.

Each side t in {0, 1} of the signed distance score is fit separately by
weighted least squares in the bandwidth-scaled basis (1, D/h, ..., (D/h)^p);
the treatment effect estimate at an evaluation point is the difference of
the two fitted intercepts.  Sample averages in the normal equations run over
the full sample size n (not side-specific counts) so that the downstream
variance formulas apply verbatim.

``fit_grid`` fits every grid point in one pass, one point at a time.  A
scan finds the rows within the point's bandwidth; their signed distances,
kernel weights and basis are formed on those rows alone, and each side
keeps its positively weighted rows.  Each side's Gram and score products,
solve and influence values run on its own rows, so every fit equals a fit
of that point by itself, bit for bit; one batched eigendecomposition serves
every side.  A fit keeps only its support rows and their influence values:
nothing of length n outlives the pass.  ``fit_point`` is the one-point case.
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

# Floor on h^2 times a side's smallest Gram eigenvalue (see side_failure).
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
    indices of the n_eff positively weighted observations on the side, and
    ``influence`` their values phi_i = e1' Psi^{-1} r_p(D_i/h) K_h(D_i) e_i
    of the intercept: all that the covariance surface reads.  The distances,
    weights and residuals follow from the sample, ``rows`` and
    ``gamma_hat``.
    """

    side: int
    gamma_hat: np.ndarray
    n_eff: int
    gram: GramMatrix
    rows: np.ndarray
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


def side_failure(counts, min_eigenvalues, q: int, h: float) -> BddistError | None:
    """The error an order-q fit at bandwidth h raises first, or None, given
    each side's count of positively weighted rows and smallest Gram
    eigenvalue.  Side 0 is checked before side 1, and on a side the count
    before the Gram.

    The Gram n^{-1} sum_i K(u_i)/h^2 r(u_i) r(u_i)' has units of 1/h^2,
    as u = D/h has none; so the check compares h^2 lambda_min, the smallest
    eigenvalue of the unit-free Gram of the weights K(u), with
    MIN_GRAM_EIGENVALUE.  Scaling the coordinates and h by c leaves it
    unchanged.  It still averages over all n rows: with the support held
    fixed it falls like n_eff / n as n grows.
    """
    for side in (0, 1):
        if counts[side] < q + 1:
            return InsufficientDataError(side, int(counts[side]), q + 1)
        unit_free = h * h * min_eigenvalues[side]
        if unit_free < MIN_GRAM_EIGENVALUE:
            return SingularGramError(side, float(unit_free))
    return None


def _support_rows(x, pt, radius) -> np.ndarray:
    """Ascending rows of ``x`` within ``radius`` of ``pt``: one scan.

    The scan keeps every row whose squared distance is within
    radius (1 + 1e-9), a margin that absorbs the rounding of the squares, so
    no row inside the kernel support of a bandwidth h = radius is lost.  It
    walks the rows in the blocks of ``row_blocks`` through two block
    buffers; each row's arithmetic is the same in any block, so the kept
    rows do not depend on the blocking.
    """
    n = len(x)
    keep = np.empty(n, dtype=bool)
    dx = np.empty(min(n, ROW_BLOCK + 1))
    dy = np.empty_like(dx)
    r2 = (radius * (1.0 + 1e-9)) ** 2
    for block in row_blocks(n):
        m = block.stop - block.start
        bx, by = dx[:m], dy[:m]
        np.subtract(x[block, 0], pt[0], out=bx)
        np.subtract(x[block, 1], pt[1], out=by)
        np.multiply(bx, bx, out=bx)
        np.multiply(by, by, out=by)
        np.add(bx, by, out=bx)
        np.less_equal(bx, r2, out=keep[block])
    return np.flatnonzero(keep)


def _side_designs(sample, pt, kernel: str, h: float, p: int) -> list:
    """``(rows, w, B)`` for side 0, then side 1, at one point: the side's
    positively weighted rows ascending, their kernel weights K(D/h)/h^2 and
    their scaled basis rows."""
    rows = _support_rows(sample.x, pt, h)
    treated = sample.treated[rows]
    u = signed_distances(sample.x.take(rows, axis=0), pt, treated) / h
    w = kernel_eval(kernel, u) / (h * h)
    pos = w > 0.0
    return [(rows[i], w[i], scaled_basis(u[i], p))
            for i in (np.flatnonzero(pos & ~treated), np.flatnonzero(pos & treated))]


def _fit_points(sample, points, kernel: str, hs, p: int) -> list:
    """Fits at ``points`` with bandwidths ``hs``, one entry per point.

    An entry is a PointFit, the error its fit raised, or the BddistError
    given in ``hs`` for that point.  The checks run in the order a fit of
    the point alone makes them: ``bandwidth_error``, then ``side_failure``.
    """
    out = [h if isinstance(h, BddistError) else bandwidth_error(h) for h in hs]
    todo = [(k, float(hs[k])) for k, err in enumerate(out) if err is None]
    if not todo:
        return out
    n = len(sample)
    sides = [_side_designs(sample, points[k], kernel, h, p) for k, h in todo]

    # Every product runs on one side's rows alone: BLAS sums depend on the
    # operands' shapes, so a product over several sides would change the
    # last bits.  One batched eigendecomposition serves every side.
    grams = np.zeros((len(todo), 2, p + 1, p + 1))
    for j, t in np.ndindex(grams.shape[:2]):
        _, w, B = sides[j][t]
        if w.size >= p + 1:
            grams[j, t] = (B * w[:, None]).T @ B
    grams /= n
    grams = 0.5 * (grams + np.swapaxes(grams, -1, -2))
    eigenvalues, eigenvectors = np.linalg.eigh(grams)

    for j, (k, h) in enumerate(todo):
        point, sides[j] = sides[j], None  # a point's weights and basis die with its fit
        counts = [rows.size for rows, _, _ in point]
        out[k] = side_failure(counts, eigenvalues[j, :, 0], p, h)
        if out[k] is not None:
            continue
        fits = []
        for t, (rows, w, B) in enumerate(point):
            g = GramMatrix(grams[j, t], eigenvalues[j, t], eigenvectors[j, t])
            y = sample.y.take(rows)
            gamma = g.solve((B * w[:, None]).T @ y / n)
            phi = B @ g.inv_e1()
            phi *= w
            phi *= y - B @ gamma
            rows.setflags(write=False)
            phi.setflags(write=False)
            fits.append(SideFit(t, gamma, counts[t], g, rows, phi))
        out[k] = PointFit(points[k], h, int(p), kernel, n, *fits)
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
